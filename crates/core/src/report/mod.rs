//! Report rendering — the §A.6 human-readable tables plus JSON export,
//! and the incremental sink for streaming-mode findings.

use crate::attrib::DebugInfo;
use crate::detect::{charges, FindingKind, Findings, IssueCounts, StreamFinding};
use crate::predict::Prediction;
use odp_hash::fnv::FnvHashMap;
use odp_model::{CodePtr, DataOpEvent, SimDuration};
use odp_trace::{SpaceStats, TraceStats};
use serde::Serialize;
use std::fmt::Write as _;

/// One aggregated row of a category table: findings sharing a source
/// location.
#[derive(Clone, Debug, Serialize)]
pub struct ReportRow {
    /// Percentage of total execution time.
    pub time_pct: f64,
    /// Eliminable time at this site.
    pub time: SimDuration,
    /// Number of wasted operations at this site.
    pub count: usize,
    /// Wasted bytes at this site.
    pub bytes: u64,
    /// Resolved source location (or the raw code pointer).
    pub source: String,
}

/// A category section of the report.
#[derive(Clone, Debug, Serialize)]
pub struct ReportSection {
    /// Section title (§A.6 style).
    pub title: String,
    /// Rows, sorted by descending time.
    pub rows: Vec<ReportRow>,
}

/// The complete analysis report.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// Program name (if known).
    pub program: String,
    /// Issue counts (Table 1 conventions).
    pub counts: IssueCounts,
    /// Detector output.
    pub findings: Findings,
    /// Optimization-potential estimate.
    pub prediction: Prediction,
    /// Aggregate trace statistics.
    pub stats: TraceStats,
    /// Tool space overhead (Figure 3).
    pub space: SpaceStats,
    /// Console lines accumulated by the tool (info + warnings).
    pub console: Vec<String>,
    /// Rendered category sections.
    pub sections: Vec<ReportSection>,
}

pub(crate) struct RowAggregator<'a> {
    dbg: Option<&'a DebugInfo>,
    total_ns: u64,
    by_site: FnvHashMap<u64, (usize, u64, u64)>, // codeptr → (count, ns, bytes)
    order: Vec<u64>,
}

impl<'a> RowAggregator<'a> {
    pub(crate) fn new(dbg: Option<&'a DebugInfo>, total: SimDuration) -> Self {
        RowAggregator {
            dbg,
            total_ns: total.as_nanos().max(1),
            by_site: FnvHashMap::default(),
            order: Vec::new(),
        }
    }

    pub(crate) fn add(&mut self, e: &DataOpEvent) {
        let entry = self.by_site.entry(e.codeptr.0).or_insert_with(|| {
            self.order.push(e.codeptr.0);
            (0, 0, 0)
        });
        entry.0 += 1;
        entry.1 += e.duration().as_nanos();
        entry.2 += e.bytes;
    }

    pub(crate) fn finish(self, title: &str) -> ReportSection {
        let mut rows: Vec<ReportRow> = self
            .order
            .iter()
            .map(|&cp| {
                let (count, ns, bytes) = self.by_site[&cp];
                let source = match self.dbg.and_then(|d| d.resolve(CodePtr(cp))) {
                    Some(loc) => loc.to_string(),
                    None => CodePtr(cp).to_string(),
                };
                ReportRow {
                    time_pct: 100.0 * ns as f64 / self.total_ns as f64,
                    time: SimDuration(ns),
                    count,
                    bytes,
                    source,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.time.cmp(&a.time).then(b.count.cmp(&a.count)));
        ReportSection {
            title: title.to_string(),
            rows,
        }
    }
}

/// The §A.6 sections, in [`charges`]' category order.
const SECTIONS: [(FindingKind, &str); 5] = [
    (
        FindingKind::DuplicateTransfer,
        "OpenMP Duplicate Target Data Transfer Analysis",
    ),
    (
        FindingKind::RoundTrip,
        "OpenMP Round-Trip Target Data Transfer Analysis",
    ),
    (
        FindingKind::RepeatedAlloc,
        "OpenMP Repeated Target Memory Allocation Analysis",
    ),
    (
        FindingKind::UnusedAlloc,
        "OpenMP Unused Target Memory Allocation Analysis",
    ),
    (
        FindingKind::UnusedTransfer,
        "OpenMP Unused Target Data Transfer Analysis",
    ),
];

/// Build the category sections from findings: every charged instance is
/// one row contribution at the event it is charged at. One walk, one
/// aggregator alive at a time (a million-event trace has many sites).
pub(crate) fn build_sections(
    findings: &Findings,
    dbg: Option<&DebugInfo>,
    total: SimDuration,
) -> Vec<ReportSection> {
    let mut charges = charges(findings).peekable();
    SECTIONS
        .iter()
        .map(|&(kind, title)| {
            let mut agg = RowAggregator::new(dbg, total);
            while let Some(c) = charges.next_if(|c| c.evidence.kind() == kind) {
                agg.add(c.evidence.charged());
            }
            agg.finish(title)
        })
        .collect()
}

/// Render one live finding as a console line (the streaming counterpart
/// of the §A.6 tables; events are identified by log sequence number).
pub fn render_stream_finding(f: &StreamFinding) -> String {
    match f {
        StreamFinding::DuplicateTransfer {
            hash,
            dest_device,
            event,
            first,
            occurrence,
            ..
        } => format!(
            "stream: duplicate transfer (occurrence {occurrence}) of content {hash} \
             to {dest_device} — event #{event} repeats #{first}"
        ),
        StreamFinding::RoundTrip {
            hash,
            src_device,
            dest_device,
            tx,
            rx,
            ..
        } => format!(
            "stream: round trip of content {hash} from {src_device} via {dest_device} \
             — outbound #{tx}, returned by #{rx}"
        ),
        StreamFinding::RepeatedAlloc {
            host_addr,
            device,
            bytes,
            alloc,
            occurrence,
            ..
        } => format!(
            "stream: repeated allocation (occurrence {occurrence}) of 0x{host_addr:x} \
             ({bytes} B) on {device} — event #{alloc}"
        ),
        StreamFinding::UnusedAlloc {
            device,
            alloc,
            delete,
            ..
        } => match delete {
            Some(delete) => format!(
                "stream: unused allocation on {device} — event #{alloc} (freed by #{delete})"
            ),
            None => format!("stream: unused allocation on {device} — event #{alloc} (never freed)"),
        },
        StreamFinding::UnusedTransfer {
            device,
            event,
            reason,
            ..
        } => {
            let why = match reason {
                crate::detect::UnusedTransferReason::AfterLastKernel => "after the last kernel",
                crate::detect::UnusedTransferReason::OverwrittenBeforeUse => {
                    "overwritten before any kernel ran"
                }
            };
            format!("stream: unused transfer to {device} — event #{event} ({why})")
        }
    }
}

/// Render a live issue-count snapshot — the incremental counterpart of
/// the §A.6 summary table, emitted periodically while the program runs
/// (`--stream-interval`) instead of once after it exits.
pub(crate) fn render_counts_snapshot(c: &IssueCounts) -> String {
    format!(
        "stream: snapshot DD={} RT={} RA={} UA={} UT={} (total {})",
        c.dd,
        c.rt,
        c.ra,
        c.ua,
        c.ut,
        c.total()
    )
}

/// Renders live findings (each final when delivered) into console
/// lines, and on request a `render_counts_snapshot` line between
/// them, so a console consumer sees the §A.6 summary grow during the
/// run. The counts are accumulated from the delivered findings
/// themselves and therefore always agree with the engine's
/// `live_counts()` at the delivery point.
#[derive(Debug, Default)]
pub struct SnapshotStreamSink {
    /// Running counts over everything delivered.
    counts: IssueCounts,
    /// Rendered lines (findings + snapshots), delivery order.
    pub lines: Vec<String>,
}

impl SnapshotStreamSink {
    /// Counts accumulated so far.
    pub fn counts(&self) -> IssueCounts {
        self.counts
    }

    /// Append a snapshot line now (the CLI's periodic timer calls this
    /// between finding batches).
    pub fn snapshot(&mut self) {
        self.lines.push(render_counts_snapshot(&self.counts));
    }

    /// One finding became final.
    pub fn on_finding(&mut self, finding: &StreamFinding) {
        self.counts.add(finding.kind());
        self.lines.push(render_stream_finding(finding));
    }
}

pub(crate) fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

impl Report {
    /// Render the human-readable console report (§A.6 shape).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.console {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Total time : {} ({} data ops, {} kernels)",
            self.stats.total_time, self.prediction.ops_eliminated, self.stats.kernels
        );

        for section in &self.sections {
            let _ = writeln!(out, "\n=== {} ===", section.title);
            if section.rows.is_empty() {
                let _ = writeln!(out, "  no issues detected");
                continue;
            }
            let _ = writeln!(
                out,
                "  {:>8}  {:>12}  {:>8}  {:>12}  source",
                "time(%)", "time", "count", "bytes"
            );
            for row in &section.rows {
                let _ = writeln!(
                    out,
                    "  {:>7.2}%  {:>12}  {:>8}  {:>12}  {}",
                    row.time_pct,
                    row.time.to_string(),
                    row.count,
                    human_bytes(row.bytes),
                    row.source
                );
            }
        }

        let c = self.counts;
        let _ = writeln!(out, "\n=== Summary ===");
        let _ = writeln!(
            out,
            "  issues: DD={} RT={} RA={} UA={} UT={}",
            c.dd, c.rt, c.ra, c.ua, c.ut
        );
        let _ = writeln!(
            out,
            "  predicted time savings : {} ({} ops, {})",
            self.prediction.time_saved,
            self.prediction.ops_eliminated,
            human_bytes(self.prediction.bytes_eliminated)
        );
        let _ = writeln!(
            out,
            "  predicted speedup      : {:.2}x ({} -> {})",
            self.prediction.predicted_speedup,
            self.prediction.total_time,
            self.prediction.predicted_time
        );
        let _ = writeln!(
            out,
            "  tool space overhead    : {} peak ({} data-op records, {} target records)",
            human_bytes(self.space.peak_alloc_bytes as u64),
            self.space.data_op_records,
            self.space.target_records
        );
        out
    }

    /// Serialize the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"report serialization: {e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
        assert_eq!(human_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn console_sink_renders_every_category() {
        use crate::detect::UnusedTransferReason;
        use odp_model::{DeviceId, HashVal};
        let mut sink = SnapshotStreamSink::default();
        let findings = [
            StreamFinding::DuplicateTransfer {
                hash: HashVal(0xab),
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(0),
                host_addr: 0x1000,
                codeptr: CodePtr(0x1),
                event: 5,
                first: 2,
                occurrence: 2,
                confidence: crate::detect::Confidence::Confirmed,
            },
            StreamFinding::RoundTrip {
                hash: HashVal(0xcd),
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(1),
                host_addr: 0x1000,
                codeptr: CodePtr(0x2),
                tx: 3,
                rx: 9,
                confidence: crate::detect::Confidence::Confirmed,
            },
            StreamFinding::RepeatedAlloc {
                host_addr: 0x1000,
                device: DeviceId::target(0),
                bytes: 4096,
                codeptr: CodePtr(0x3),
                alloc: 7,
                occurrence: 3,
                confidence: crate::detect::Confidence::Confirmed,
            },
            StreamFinding::UnusedAlloc {
                device: DeviceId::target(0),
                host_addr: 0x2000,
                codeptr: CodePtr(0x4),
                alloc: 11,
                delete: None,
                confidence: crate::detect::Confidence::Confirmed,
            },
            StreamFinding::UnusedTransfer {
                device: DeviceId::target(0),
                host_addr: 0x3000,
                codeptr: CodePtr(0x5),
                event: 13,
                reason: UnusedTransferReason::AfterLastKernel,
                confidence: crate::detect::Confidence::Confirmed,
            },
        ];
        for f in &findings {
            sink.on_finding(f);
        }
        assert_eq!(sink.lines.len(), findings.len());
        assert!(sink.lines[0].contains("duplicate transfer"));
        assert!(sink.lines[1].contains("round trip"));
        assert!(sink.lines[2].contains("repeated allocation"));
        assert!(sink.lines[3].contains("never freed"));
        assert!(sink.lines[4].contains("after the last kernel"));
        assert!(sink.lines.iter().all(|l| l.starts_with("stream: ")));
    }

    #[test]
    fn snapshot_sink_interleaves_summary_lines() {
        use odp_model::{DeviceId, HashVal};
        let mut sink = SnapshotStreamSink::default();
        let dup = |event| StreamFinding::DuplicateTransfer {
            hash: HashVal(0xab),
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            host_addr: 0x1000,
            codeptr: CodePtr(0x1),
            event,
            first: 0,
            occurrence: 2,
            confidence: crate::detect::Confidence::Confirmed,
        };
        for i in 1..=5 {
            sink.on_finding(&dup(i));
            if i % 2 == 0 {
                sink.snapshot();
            }
        }
        // 5 findings + snapshots after #2 and #4.
        assert_eq!(sink.lines.len(), 7);
        assert!(sink.lines[2].contains("snapshot DD=2"));
        assert!(sink.lines[5].contains("snapshot DD=4"));
        assert_eq!(sink.counts().dd, 5);
        sink.snapshot();
        assert!(sink
            .lines
            .last()
            .unwrap()
            .contains("snapshot DD=5 RT=0 RA=0 UA=0 UT=0 (total 5)"));
    }
}
