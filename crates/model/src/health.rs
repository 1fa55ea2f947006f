//! Trace-health accounting: what the pipeline quarantined instead of
//! trusting.
//!
//! A production ingest pipeline (ROADMAP: fleet-scale, millions of runs)
//! sees callback streams its authors never anticipated — dropped or
//! duplicated callbacks, truncated payloads, stalled shards, events
//! naming devices that do not exist. The detection pipeline never
//! panics on such input; it *quarantines* the malformed evidence and
//! counts it here, so every report can state exactly how much of the
//! stream it actually trusted.
//!
//! The accounting invariant (checked by the fault-injection
//! differential suite): every event the producer injected is either
//! **survived** (analyzed normally) or **quarantined** (counted in
//! exactly one bucket below). Nothing is silently discarded.

use serde::{Deserialize, Serialize};

/// Counters for evidence the pipeline refused to trust.
///
/// Each bucket is one failure class; [`TraceHealth::total_quarantined`]
/// is the number of events (or event fragments) excluded from
/// analysis. A wholly healthy run is `TraceHealth::default()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHealth {
    /// Events naming a device outside the configured device range.
    pub out_of_range: u64,
    /// `End` callbacks with no matching open `Begin` (dropped or
    /// duplicated begin/end edges).
    pub orphaned: u64,
    /// Transfer payloads shorter than the byte count the callback
    /// claimed — the content hash cannot be trusted.
    pub truncated: u64,
    /// Event ids claimed by more than one shard record after a merge
    /// (a duplicated `(shard, seq)` pair; the extra records).
    pub duplicate_ids: u64,
    /// Events that arrived at the streaming engine at or below a
    /// watermark that a stall-recovery forced release already retired.
    pub late: u64,
    /// Times the watermark stall detector force-released the reorder
    /// buffer rather than wait on a wedged shard.
    pub forced_releases: u64,
    /// Streamed events the finalize view no longer contained (the
    /// post-mortem log lost what the engine saw live).
    pub missing_at_finalize: u64,
    /// Persisted events dropped by the trace loader: sections of an
    /// on-disk trace whose checksum, bounds, or layout could not be
    /// verified (a wholly undecodable file counts as one).
    pub unreadable: u64,
}

impl TraceHealth {
    /// Events excluded from analysis. `forced_releases` is an incident
    /// count, not an event count, so it is not part of the sum.
    ///
    /// Saturating, like [`TraceHealth::merge`]: the counters of a
    /// persisted trace come from its footer, which a hostile writer
    /// controls.
    pub fn total_quarantined(&self) -> u64 {
        [
            self.out_of_range,
            self.orphaned,
            self.truncated,
            self.duplicate_ids,
            self.late,
            self.missing_at_finalize,
            self.unreadable,
        ]
        .into_iter()
        .fold(0, u64::saturating_add)
    }

    /// Did anything degrade at all?
    pub fn is_clean(&self) -> bool {
        *self == TraceHealth::default()
    }

    /// Fold another health record into this one (shard merge). Each
    /// bucket saturates at `u64::MAX` instead of overflowing.
    pub fn merge(&mut self, other: &TraceHealth) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.out_of_range, other.out_of_range);
        add(&mut self.orphaned, other.orphaned);
        add(&mut self.truncated, other.truncated);
        add(&mut self.duplicate_ids, other.duplicate_ids);
        add(&mut self.late, other.late);
        add(&mut self.forced_releases, other.forced_releases);
        add(&mut self.missing_at_finalize, other.missing_at_finalize);
        add(&mut self.unreadable, other.unreadable);
    }

    /// The console warning summarizing what was quarantined, or `None`
    /// for a clean trace.
    pub fn warning(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        Some(format!(
            "warning: degraded trace — quarantined {} event(s) \
             (out-of-range {}, orphaned {}, truncated {}, duplicate ids {}, \
             late {}, missing at finalize {}, unreadable {}; {} forced release(s))",
            self.total_quarantined(),
            self.out_of_range,
            self.orphaned,
            self.truncated,
            self.duplicate_ids,
            self.late,
            self.missing_at_finalize,
            self.unreadable,
            self.forced_releases,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_health_has_no_warning() {
        let h = TraceHealth::default();
        assert!(h.is_clean());
        assert_eq!(h.total_quarantined(), 0);
        assert!(h.warning().is_none());
    }

    #[test]
    fn merge_sums_every_bucket() {
        let mut a = TraceHealth {
            out_of_range: 1,
            orphaned: 2,
            truncated: 3,
            duplicate_ids: 4,
            late: 5,
            forced_releases: 6,
            missing_at_finalize: 7,
            unreadable: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.out_of_range, 2);
        assert_eq!(a.orphaned, 4);
        assert_eq!(a.truncated, 6);
        assert_eq!(a.duplicate_ids, 8);
        assert_eq!(a.late, 10);
        assert_eq!(a.forced_releases, 12);
        assert_eq!(a.missing_at_finalize, 14);
        assert_eq!(a.unreadable, 16);
        // forced_releases is an incident count, not quarantined events.
        assert_eq!(a.total_quarantined(), 2 + 4 + 6 + 8 + 10 + 14 + 16);
    }

    #[test]
    fn merge_and_total_saturate_instead_of_overflowing() {
        let mut a = TraceHealth {
            unreadable: u64::MAX,
            orphaned: 1,
            forced_releases: u64::MAX - 1,
            ..TraceHealth::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.unreadable, u64::MAX);
        assert_eq!(a.forced_releases, u64::MAX);
        assert_eq!(a.orphaned, 2);
        assert_eq!(a.total_quarantined(), u64::MAX);
        assert!(a.warning().is_some());
    }

    #[test]
    fn unreadable_degrades_and_round_trips() {
        let h = TraceHealth {
            unreadable: 2,
            ..TraceHealth::default()
        };
        assert!(!h.is_clean());
        assert!(h.warning().unwrap().contains("unreadable 2"));
        let json = serde_json::to_string(&h).unwrap();
        let parsed: TraceHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn warning_reports_every_bucket() {
        let h = TraceHealth {
            orphaned: 3,
            forced_releases: 1,
            ..TraceHealth::default()
        };
        let w = h.warning().unwrap();
        assert!(w.contains("quarantined 3 event(s)"));
        assert!(w.contains("orphaned 3"));
        assert!(w.contains("1 forced release(s)"));
    }
}
