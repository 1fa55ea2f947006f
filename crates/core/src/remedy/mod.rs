//! Online mapping remediation — acting on findings instead of only
//! reporting them.
//!
//! The five §5 detectors diagnose inefficient map patterns but leave
//! the fix to the programmer. This module closes the loop, the dynamic
//! counterpart of Marzen et al.'s *static* mapping generation
//! (PAPERS.md): a [`RemediationPolicy`] subscribes to the streaming
//! engine's live [`StreamFinding`]s and translates each finding kind
//! into a concrete mapping rewrite that the simulated runtime applies
//! at every *subsequent* map-clause item:
//!
//! | finding (§5)          | rewrite                                            |
//! |-----------------------|----------------------------------------------------|
//! | duplicate transfer    | persist the mapping; the re-send is dropped because the present-table entry is reused |
//! | round trip (from host)| downgrade the exit copy (`from` → `release`): the host provably already holds the bytes |
//! | round trip (from dev) | persist + targeted `update` at exit instead of the delete/re-send bounce |
//! | repeated allocation   | persist the mapping (no release → no re-allocation)|
//! | unused allocation     | elide the clause (never allocate)                  |
//! | unused transfer       | downgrade the enter copy (`to` → `alloc`)          |
//!
//! Rules are keyed by `(device, host address)` — exactly what the
//! runtime knows at a map clause — and are *monotone*: once learned, a
//! rule only strengthens, so the enter and exit halves of one region
//! can never disagree (the [`odp_ompt::MapAdvisor`] contract). The
//! runtime guards soundness on its side: elision is overridden for
//! kernel-referenced variables, persistence falls back to a plain
//! release while other regions still hold the mapping, and the exit-side
//! `from` copy of a persisted mapping survives as a targeted update.
//!
//! **Host visibility is not guaranteed.** A `skip_from` rule ("the host
//! provably has the bytes") is honoured at every exit of its site: also
//! the first copy-back of a seeded re-run, and after a kernel has written
//! the variable since the host last received it — the kernel's result
//! then never reaches the host. `crates/static/tests/remedy_oracle.rs`
//! compares every host variable's final bytes with the unremediated
//! run's and pins the cases that differ today (`KNOWN_UNSOUND`); the
//! candidate rule is to honour `skip_from` only while no kernel has
//! written the variable since the host's last copy (ROADMAP, aim 3).
//! That rule has one home: the copy-back decision in `odp_sim`'s
//! `Runtime::map_exit`, the one place the runtime reads
//! `MapAdvice::skip_from`.
//!
//! One advisor serves every run: a [`Remediator`] owns the policy, and
//! every runtime thread attaches the same one. Two ways to fill the
//! policy:
//!
//! * **Adaptive** ([`Remediator::adaptive`]) — the policy rides along
//!   with the run: every advisor consult first drains the streaming
//!   engine's new findings into the policy, so iteration *n*'s
//!   diagnosis rewrites iteration *n+1*'s mappings.
//! * **Seeded re-run** ([`Remediator::seeded`] over
//!   [`RemediationPolicy::from_findings`]) — build the policy from a
//!   previous run's post-mortem findings and attach it to a fresh run;
//!   the detectors then find **zero** issues of the remediated kinds
//!   (enforced by `tests/adaptive_remediation.rs`).
//!
//! What the rewrites recovered — transfers, bytes, alloc/free work,
//! priced by the runtime's own timing model — lands in a
//! [`RemediationReport`] (per finding kind, per device), rendered in
//! the §A.6 console style and exported as JSON. With remediation off,
//! nothing in this module runs and detection output stays byte-identical
//! to the unremediated tool (the differential suites enforce this).

use crate::detect::{Findings, StreamFinding};
use crate::tool::{FindingsTap, ToolHandle};
use odp_hash::fnv::FnvHashMap;
use odp_model::{DeviceId, FindingKind, SimDuration};
use odp_ompt::{MapAdvice, MapAdvisor, RemediationStats, RemedyCounter};
use parking_lot::{Mutex, MutexGuard};
use serde::Serialize;
use std::fmt::Write as _;

/// Translates §5 findings into mapping rewrites, keyed by
/// `(device, host address)`. A [`Remediator`] holds it for a run; feed
/// it live findings with [`RemediationPolicy::observe`].
#[derive(Clone, Debug, Default)]
pub struct RemediationPolicy {
    /// Merged rewrite per site. Slots only ever go `None` → `Some`
    /// (monotone), first cause wins for attribution.
    rules: FnvHashMap<(u32, u64), MapAdvice>,
    /// Findings observed per cause (Table 1 order).
    observed: [u64; FindingKind::ALL.len()],
    /// Advisor consults served.
    consults: u64,
}

impl RemediationPolicy {
    /// An empty policy (learns only from observed findings).
    pub fn new() -> RemediationPolicy {
        RemediationPolicy::default()
    }

    /// Seed a policy from a previous run's post-mortem findings — the
    /// re-run mode: attach the result to a fresh runtime and the
    /// remediated kinds disappear from its report.
    pub fn from_findings(findings: &Findings) -> RemediationPolicy {
        let mut p = RemediationPolicy::new();
        p.absorb(findings);
        p
    }

    /// Merge a (further) report's findings into the policy — iterative
    /// re-seeding. Under free-running shared-device threading each run's
    /// schedule may expose sites a previous run never exercised; rules
    /// are monotone per site, so absorbing successive reports converges
    /// to a fixed point where the remediated kinds stay eliminated on
    /// every schedule.
    pub fn absorb(&mut self, findings: &Findings) {
        for finding in findings.stream_findings() {
            self.observe(&finding);
        }
    }

    /// Learn from one live finding. Degraded findings — evidence that
    /// survived a forced watermark release or arrived after one — are
    /// ignored wholesale: a rewrite rule seeded from reordered or
    /// incomplete evidence could skip a transfer the program needs.
    pub fn observe(&mut self, finding: &StreamFinding) {
        if finding.confidence().is_degraded() {
            return;
        }
        match *finding {
            StreamFinding::DuplicateTransfer {
                src_device,
                dest_device,
                host_addr,
                ..
            } => self.on_duplicate(src_device, dest_device, host_addr),
            StreamFinding::RoundTrip {
                src_device,
                dest_device,
                host_addr,
                ..
            } => self.on_round_trip(src_device, dest_device, host_addr),
            StreamFinding::RepeatedAlloc {
                device, host_addr, ..
            } => self.on_repeated_alloc(device, host_addr),
            StreamFinding::UnusedAlloc {
                device, host_addr, ..
            } => self.on_unused_alloc(device, host_addr),
            StreamFinding::UnusedTransfer {
                device, host_addr, ..
            } => self.on_unused_transfer(device, host_addr),
        }
    }

    /// Number of sites with at least one rewrite rule.
    pub(crate) fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Advisor consults served so far.
    pub(crate) fn consults(&self) -> u64 {
        self.consults
    }

    /// Findings observed per cause, [`FindingKind::ALL`] order.
    pub(crate) fn observed(&self) -> [u64; FindingKind::ALL.len()] {
        self.observed
    }

    /// The merged rewrite for a site (KEEP when unknown). This *is* the
    /// advisor lookup [`Remediator`] makes.
    pub(crate) fn advise(&mut self, device: u32, host_addr: u64) -> MapAdvice {
        self.consults += 1;
        self.rules
            .get(&(device, host_addr))
            .copied()
            .unwrap_or(MapAdvice::KEEP)
    }

    // ---- per-kind translation rules -------------------------------------

    fn rule_mut(&mut self, device: u32, host_addr: u64) -> &mut MapAdvice {
        self.rules.entry((device, host_addr)).or_default()
    }

    fn on_duplicate(&mut self, src: DeviceId, dest: DeviceId, host_addr: u64) {
        self.observed[FindingKind::DuplicateTransfer.index()] += 1;
        if let Some(ix) = dest.target_index() {
            // Re-send to a device: keep the mapping resident instead.
            let r = self.rule_mut(ix as u32, host_addr);
            r.persist = r.persist.or(Some(FindingKind::DuplicateTransfer));
        } else if let Some(ix) = src.target_index() {
            // Re-send to the host: the host provably has the bytes.
            let r = self.rule_mut(ix as u32, host_addr);
            r.skip_from = r.skip_from.or(Some(FindingKind::DuplicateTransfer));
        }
    }

    fn on_round_trip(&mut self, src: DeviceId, dest: DeviceId, host_addr: u64) {
        self.observed[FindingKind::RoundTrip.index()] += 1;
        if src.is_host() {
            // Host content bounced off a device and came back unchanged:
            // the copy-back is redundant.
            if let Some(ix) = dest.target_index() {
                let r = self.rule_mut(ix as u32, host_addr);
                r.skip_from = r.skip_from.or(Some(FindingKind::RoundTrip));
            }
        } else if let Some(ix) = src.target_index() {
            // Device content bounced via the host: persist the mapping;
            // the runtime degrades the exit copy to a targeted update
            // (the "inject an update instead of a round trip" rewrite).
            let r = self.rule_mut(ix as u32, host_addr);
            r.persist = r.persist.or(Some(FindingKind::RoundTrip));
        }
    }

    fn on_repeated_alloc(&mut self, device: DeviceId, host_addr: u64) {
        self.observed[FindingKind::RepeatedAlloc.index()] += 1;
        if let Some(ix) = device.target_index() {
            let r = self.rule_mut(ix as u32, host_addr);
            r.persist = r.persist.or(Some(FindingKind::RepeatedAlloc));
        }
    }

    fn on_unused_alloc(&mut self, device: DeviceId, host_addr: u64) {
        self.observed[FindingKind::UnusedAlloc.index()] += 1;
        if let Some(ix) = device.target_index() {
            let r = self.rule_mut(ix as u32, host_addr);
            r.elide = r.elide.or(Some(FindingKind::UnusedAlloc));
        }
    }

    fn on_unused_transfer(&mut self, device: DeviceId, host_addr: u64) {
        self.observed[FindingKind::UnusedTransfer.index()] += 1;
        if let Some(ix) = device.target_index() {
            let r = self.rule_mut(ix as u32, host_addr);
            r.skip_to = r.skip_to.or(Some(FindingKind::UnusedTransfer));
        }
    }
}

/// The one advisor of a remediated run: a [`RemediationPolicy`] behind
/// a lock and, in adaptive mode, a tee tap on the live findings stream.
/// Every runtime thread attaches a clone of the same `Arc`, so a pattern
/// thread A diagnosed rewrites thread B's very next region. A consult
/// first pumps the tap without blocking — it never waits for another
/// thread's drain, and with one runtime thread and no other consumer
/// the engine lock is always free, so the pump drains on every consult
/// — then advises. The tap is the remediator's **own**
/// ([`ToolHandle::tap_stream_findings`]), so a live console poller
/// draining its own tap concurrently loses nothing to the policy (and
/// vice versa). Per-thread `RemediationStats` stay in each runtime and
/// merge at finalize (`odp_sim::run_on_threads_shared`).
pub struct Remediator {
    /// `None` in seeded mode (nothing to learn mid-run).
    tap: Option<FindingsTap>,
    policy: Mutex<RemediationPolicy>,
}

impl Remediator {
    /// An adaptive remediator over a streaming tool's handle: the policy
    /// starts empty and learns from the live findings stream.
    pub fn adaptive(handle: &ToolHandle) -> Remediator {
        Remediator {
            tap: Some(handle.tap_stream_findings()),
            policy: Mutex::new(RemediationPolicy::new()),
        }
    }

    /// A seeded remediator: the policy is fixed up front (typically
    /// [`RemediationPolicy::from_findings`] over a previous run's
    /// report) and nothing is learned mid-run.
    pub fn seeded(policy: RemediationPolicy) -> Remediator {
        Remediator {
            tap: None,
            policy: Mutex::new(policy),
        }
    }

    /// The policy, for post-run reporting.
    pub fn policy(&self) -> MutexGuard<'_, RemediationPolicy> {
        self.policy.lock()
    }
}

impl MapAdvisor for Remediator {
    fn advise(&self, device: u32, host_addr: u64) -> MapAdvice {
        // Non-blocking: if another thread is mid-drain it will deliver
        // to our tap; whatever is already there still lands in the
        // policy before this consult.
        let findings = self.tap.as_ref().map(FindingsTap::try_take);
        let mut policy = self.policy.lock();
        for f in findings.iter().flatten() {
            policy.observe(f);
        }
        policy.advise(device, host_addr)
    }
}

/// One report row: what remediation recovered for one finding kind.
#[derive(Clone, Debug, Serialize)]
pub struct RemediationRow {
    /// Finding kind (cause) name.
    pub kind: String,
    /// Advisor rewrites applied.
    pub rewrites: u64,
    /// Transfers that never happened.
    pub transfers_avoided: u64,
    /// Bytes those transfers would have moved.
    pub bytes_recovered: u64,
    /// Transfer time recovered.
    pub transfer_time_recovered: SimDuration,
    /// Device allocations avoided.
    pub allocs_avoided: u64,
    /// Device deallocations avoided.
    pub deletes_avoided: u64,
    /// Alloc/free time recovered.
    pub mgmt_time_recovered: SimDuration,
    /// Exit copies degraded to targeted updates (still moved bytes).
    pub updates_injected: u64,
}

/// Per-device recovered totals.
#[derive(Clone, Debug, Serialize)]
pub struct RemediationDeviceRow {
    /// Target device index.
    pub device: u32,
    /// Bytes recovered on this device.
    pub bytes_recovered: u64,
    /// Transfer time recovered on this device.
    pub transfer_time_recovered: SimDuration,
}

/// Recovered-vs-baseline accounting of one remediated run, per finding
/// kind and per device — the §A.6-style summary `--remediate` prints.
#[derive(Clone, Debug, Serialize)]
pub struct RemediationReport {
    /// Sites with at least one rewrite rule.
    pub rules: usize,
    /// Advisor consults served (policy lookup count).
    pub consults: u64,
    /// Findings the policy observed, per kind ([`FindingKind::ALL`] order).
    pub observed: Vec<u64>,
    /// Per-kind recovered rows (kinds with any activity).
    pub rows: Vec<RemediationRow>,
    /// Per-device recovered totals (devices with any activity).
    pub devices: Vec<RemediationDeviceRow>,
    /// Bytes the remediated run actually transferred.
    pub actual_transfer_bytes: u64,
    /// Bytes recovered (baseline = actual + recovered).
    pub recovered_transfer_bytes: u64,
    /// Transfer time the remediated run actually spent.
    pub actual_transfer_time: SimDuration,
    /// Transfer time recovered.
    pub recovered_transfer_time: SimDuration,
    /// Alloc/free time recovered.
    pub recovered_mgmt_time: SimDuration,
}

impl RemediationReport {
    /// Assemble the report from the policy, the runtime's remediation
    /// stats, and the run's actual transfer totals
    /// (`RuntimeStats::bytes_transferred` / `transfer_time`).
    pub fn new(
        policy: &RemediationPolicy,
        stats: &RemediationStats,
        actual_transfer_bytes: u64,
        actual_transfer_time: SimDuration,
    ) -> RemediationReport {
        let rows = FindingKind::ALL
            .iter()
            .filter_map(|&cause| {
                let c = stats.per_cause(cause);
                if c == RemedyCounter::default() {
                    return None;
                }
                Some(RemediationRow {
                    kind: cause.name().to_string(),
                    rewrites: c.rewrites,
                    transfers_avoided: c.transfers_avoided,
                    bytes_recovered: c.transfer_bytes_avoided,
                    transfer_time_recovered: c.transfer_time_avoided,
                    allocs_avoided: c.allocs_avoided,
                    deletes_avoided: c.deletes_avoided,
                    mgmt_time_recovered: c.mgmt_time_avoided,
                    updates_injected: c.updates_injected,
                })
            })
            .collect();
        let devices = (0..stats.device_count() as u32)
            .filter_map(|d| {
                let c = stats.per_device(d);
                if c == RemedyCounter::default() {
                    return None;
                }
                Some(RemediationDeviceRow {
                    device: d,
                    bytes_recovered: c.transfer_bytes_avoided,
                    transfer_time_recovered: c.transfer_time_avoided,
                })
            })
            .collect();
        let totals = stats.totals();
        RemediationReport {
            rules: policy.rule_count(),
            consults: policy.consults(),
            observed: policy.observed().to_vec(),
            rows,
            devices,
            actual_transfer_bytes,
            recovered_transfer_bytes: totals.transfer_bytes_avoided,
            actual_transfer_time,
            recovered_transfer_time: totals.transfer_time_avoided,
            recovered_mgmt_time: totals.mgmt_time_avoided,
        }
    }

    /// Total recovered time (transfers + alloc/free).
    pub fn recovered_time(&self) -> SimDuration {
        SimDuration(self.recovered_transfer_time.as_nanos() + self.recovered_mgmt_time.as_nanos())
    }

    /// Render the §A.6-style console section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n=== OpenMP Adaptive Mapping Remediation ===");
        let _ = writeln!(
            out,
            "  policy : {} site rule(s), {} consult(s)",
            self.rules, self.consults
        );
        if self.rows.is_empty() {
            let _ = writeln!(out, "  no rewrites applied");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>8} {:>8} {:>12} {:>12} {:>7} {:>7} {:>7}",
            "kind", "rewrites", "xfers", "bytes", "time", "allocs", "deletes", "updates"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<22} {:>8} {:>8} {:>12} {:>12} {:>7} {:>7} {:>7}",
                row.kind,
                row.rewrites,
                row.transfers_avoided,
                row.bytes_recovered,
                row.transfer_time_recovered.to_string(),
                row.allocs_avoided,
                row.deletes_avoided,
                row.updates_injected,
            );
        }
        for d in &self.devices {
            let _ = writeln!(
                out,
                "  dev{} : {} B / {} recovered",
                d.device, d.bytes_recovered, d.transfer_time_recovered
            );
        }
        let baseline_bytes = self.actual_transfer_bytes + self.recovered_transfer_bytes;
        let baseline_ns =
            self.actual_transfer_time.as_nanos() + self.recovered_transfer_time.as_nanos();
        let pct = if baseline_ns == 0 {
            0.0
        } else {
            100.0 * self.recovered_transfer_time.as_nanos() as f64 / baseline_ns as f64
        };
        let _ = writeln!(
            out,
            "  recovered transfer time : {} ({:.1}% of the unremediated {})",
            self.recovered_transfer_time,
            pct,
            SimDuration(baseline_ns)
        );
        let _ = writeln!(
            out,
            "  recovered bytes         : {} of {} baseline ({} still moved)",
            self.recovered_transfer_bytes, baseline_bytes, self.actual_transfer_bytes
        );
        out
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"remediation report serialization: {e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{CodePtr, HashVal};

    fn dev(n: u32) -> DeviceId {
        DeviceId::target(n)
    }

    #[test]
    fn each_finding_kind_maps_to_its_rewrite() {
        let mut p = RemediationPolicy::new();
        p.observe(&StreamFinding::DuplicateTransfer {
            hash: HashVal(1),
            src_device: DeviceId::HOST,
            dest_device: dev(0),
            host_addr: 0x100,
            codeptr: CodePtr(0x1),
            event: 1,
            first: 0,
            occurrence: 2,
            confidence: crate::detect::Confidence::Confirmed,
        });
        p.observe(&StreamFinding::RoundTrip {
            hash: HashVal(2),
            src_device: DeviceId::HOST,
            dest_device: dev(0),
            host_addr: 0x200,
            codeptr: CodePtr(0x2),
            tx: 2,
            rx: 3,
            confidence: crate::detect::Confidence::Confirmed,
        });
        p.observe(&StreamFinding::RoundTrip {
            hash: HashVal(3),
            src_device: dev(1),
            dest_device: DeviceId::HOST,
            host_addr: 0x300,
            codeptr: CodePtr(0x3),
            tx: 4,
            rx: 5,
            confidence: crate::detect::Confidence::Confirmed,
        });
        p.observe(&StreamFinding::RepeatedAlloc {
            host_addr: 0x400,
            device: dev(0),
            bytes: 64,
            codeptr: CodePtr(0x4),
            alloc: 6,
            occurrence: 2,
            confidence: crate::detect::Confidence::Confirmed,
        });
        p.observe(&StreamFinding::UnusedAlloc {
            device: dev(0),
            host_addr: 0x500,
            codeptr: CodePtr(0x5),
            alloc: 7,
            delete: None,
            confidence: crate::detect::Confidence::Confirmed,
        });
        p.observe(&StreamFinding::UnusedTransfer {
            device: dev(0),
            host_addr: 0x600,
            codeptr: CodePtr(0x6),
            event: 8,
            reason: crate::detect::UnusedTransferReason::AfterLastKernel,
            confidence: crate::detect::Confidence::Confirmed,
        });

        assert_eq!(p.rule_count(), 6);
        assert_eq!(
            p.advise(0, 0x100).persist,
            Some(FindingKind::DuplicateTransfer)
        );
        assert_eq!(p.advise(0, 0x200).skip_from, Some(FindingKind::RoundTrip));
        assert_eq!(p.advise(1, 0x300).persist, Some(FindingKind::RoundTrip));
        assert_eq!(p.advise(0, 0x400).persist, Some(FindingKind::RepeatedAlloc));
        assert_eq!(p.advise(0, 0x500).elide, Some(FindingKind::UnusedAlloc));
        assert_eq!(
            p.advise(0, 0x600).skip_to,
            Some(FindingKind::UnusedTransfer)
        );
        assert!(p.advise(0, 0x999).is_keep(), "unknown sites stay untouched");
        assert_eq!(p.observed(), [1, 2, 1, 1, 1]);
    }

    #[test]
    fn rules_are_monotone_first_cause_wins() {
        let mut p = RemediationPolicy::new();
        p.on_repeated_alloc(dev(0), 0x100);
        p.on_duplicate(DeviceId::HOST, dev(0), 0x100);
        let advice = p.advise(0, 0x100);
        assert_eq!(
            advice.persist,
            Some(FindingKind::RepeatedAlloc),
            "the first cause keeps the attribution"
        );
    }

    #[test]
    fn from_findings_seeds_the_same_rules_as_observe() {
        use crate::detect::testutil::{detect, EventFactory};
        let mut f = EventFactory::new();
        // Duplicate pair to dev0 + a host round trip.
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64),
            f.d2h(40, 0, 0x1000, 7, 64),
        ];
        let findings = detect(&ops, &[], 1);
        assert!(findings.counts().dd >= 1 && findings.counts().rt >= 1);
        let mut p = RemediationPolicy::from_findings(&findings);
        let advice = p.advise(0, 0x1000);
        assert!(advice.persist.is_some(), "duplicate → persist");
        assert!(advice.skip_from.is_some(), "host round trip → skip_from");
    }

    #[test]
    fn report_renders_rows_and_baseline() {
        let mut p = RemediationPolicy::new();
        p.on_repeated_alloc(dev(0), 0x100);
        let mut stats = RemediationStats::default();
        {
            let c = stats.counter_mut(0, FindingKind::RepeatedAlloc);
            c.rewrites = 3;
            c.transfers_avoided = 2;
            c.transfer_bytes_avoided = 2048;
            c.transfer_time_avoided = SimDuration(5_000);
            c.allocs_avoided = 2;
            c.mgmt_time_avoided = SimDuration(1_000);
        }
        let report = RemediationReport::new(&p, &stats, 1024, SimDuration(2_500));
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.recovered_transfer_bytes, 2048);
        assert_eq!(report.recovered_time(), SimDuration(6_000));
        let text = report.render();
        assert!(text.contains("Adaptive Mapping Remediation"));
        assert!(text.contains("repeated allocation"));
        assert!(text.contains("recovered transfer time"));
        let json = report.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["recovered_transfer_bytes"], 2048);
    }

    #[test]
    fn empty_report_says_so() {
        let p = RemediationPolicy::new();
        let report = RemediationReport::new(&p, &RemediationStats::default(), 0, SimDuration::ZERO);
        assert!(report.rows.is_empty());
        assert!(report.render().contains("no rewrites applied"));
    }

    #[test]
    fn live_remediator_pumps_findings_from_a_streaming_tool() {
        use crate::tool::{OmpDataPerfTool, ToolConfig};
        use odp_model::SimTime;
        use odp_ompt::{CompilerProfile, DataOpCallback, DataOpType, Endpoint, Tool as _};

        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let payload = vec![9u8; 64];
        let op = |endpoint, id: u64, time: u64, payload| DataOpCallback {
            endpoint,
            target_id: 1,
            host_op_id: id,
            optype: DataOpType::TransferToDevice,
            src_device: DeviceId::HOST,
            src_addr: 0x1000,
            dest_device: dev(0),
            dest_addr: 0xd000,
            bytes: 64,
            codeptr_ra: CodePtr(0x42),
            time: SimTime(time),
            payload,
        };
        // Two identical transfers → one live duplicate finding.
        for (id, t) in [(1u64, 0u64), (2, 20)] {
            tool.on_data_op(&op(Endpoint::Begin, id, t, None));
            tool.on_data_op(&op(Endpoint::End, id, t + 10, Some(payload.as_slice())));
        }

        let remediator = Remediator::adaptive(&handle);
        let advice = remediator.advise(0, 0x1000);
        assert_eq!(
            advice.persist,
            Some(FindingKind::DuplicateTransfer),
            "the live duplicate must already steer this consult"
        );
        assert_eq!(remediator.policy().rule_count(), 1);
    }
}
