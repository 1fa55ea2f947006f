//! Output verification: a structural digest of `Findings`, the share
//! of events that land in a finding, and the golden values pinned for
//! the default seed.
//!
//! The findings types implement no equality, and their JSON is
//! hundreds of MB at storm scale, so "the same findings" is checked by
//! a 64-bit FNV-1a digest fed with every field of every finding in
//! order — a difference in any id, address, hash, time, kind, device,
//! confidence, or in grouping or order, changes it.

use odp_hash::fnv::FnvHasher;
use odp_model::DataOpEvent;
use ompdataperf::detect::pairing::AllocDeletePair;
use ompdataperf::detect::unused_transfer::UnusedTransferReason;
use ompdataperf::{Confidence, Findings, IssueCounts};
use std::hash::Hasher;

/// The seed every pinned value below belongs to.
pub const DEFAULT_SEED: u64 = 1;

/// Byte-wise FNV-1a over 64-bit words (the repository's hasher; its
/// `write_u64` shortcut mixes less, so words go in as bytes).
struct Fnv(FnvHasher);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FnvHasher::default())
    }

    fn word(&mut self, w: u64) {
        self.0.write(&w.to_le_bytes());
    }

    fn event(&mut self, e: &DataOpEvent) {
        self.word(e.id.0);
        self.word(e.kind as u64);
        self.word(e.src_device.0 as u64);
        self.word(e.dest_device.0 as u64);
        self.word(e.src_addr);
        self.word(e.dest_addr);
        self.word(e.bytes);
        self.word(e.hash.map_or(u64::MAX, |h| h.0));
        self.word(e.hash.is_some() as u64);
        self.word(e.span.start.0);
        self.word(e.span.end.0);
        self.word(e.codeptr.0);
    }

    fn pair(&mut self, p: &AllocDeletePair) {
        self.event(&p.alloc);
        self.word(p.delete.is_some() as u64);
        if let Some(d) = &p.delete {
            self.event(d);
        }
    }

    fn confidence(&mut self, c: Confidence) {
        self.word(c.is_degraded() as u64);
    }
}

/// Digest of every field of `f`, in order.
pub fn findings_digest(f: &Findings) -> u64 {
    let mut h = Fnv::new();
    h.word(f.duplicates.len() as u64);
    for g in &f.duplicates {
        h.word(g.hash.0);
        h.word(g.dest_device.0 as u64);
        h.word(g.events.len() as u64);
        g.events.iter().for_each(|e| h.event(e));
        h.confidence(g.confidence);
    }
    h.word(f.round_trips.len() as u64);
    for g in &f.round_trips {
        h.word(g.hash.0);
        h.word(g.src_device.0 as u64);
        h.word(g.dest_device.0 as u64);
        h.word(g.trips.len() as u64);
        for t in g.trips.iter() {
            h.event(&t.tx);
            h.event(&t.rx);
            h.word(t.spilled as u64);
        }
        h.confidence(g.confidence);
    }
    h.word(f.repeated_allocs.len() as u64);
    for g in &f.repeated_allocs {
        h.word(g.host_addr);
        h.word(g.device.0 as u64);
        h.word(g.bytes);
        h.word(g.pairs.len() as u64);
        g.pairs.iter().for_each(|p| h.pair(p));
        h.confidence(g.confidence);
    }
    h.word(f.unused_allocs.len() as u64);
    for u in &f.unused_allocs {
        h.pair(&u.pair);
        h.confidence(u.confidence);
    }
    h.word(f.unused_transfers.len() as u64);
    for u in &f.unused_transfers {
        h.event(&u.event);
        h.word(matches!(u.reason, UnusedTransferReason::AfterLastKernel) as u64);
        h.confidence(u.confidence);
    }
    h.0.finish()
}

/// Distinct events named by any finding.
pub fn events_in_findings(f: &Findings) -> usize {
    let mut ids: Vec<u64> = Vec::new();
    let pair = |ids: &mut Vec<u64>, p: &AllocDeletePair| {
        ids.push(p.alloc.id.0);
        ids.extend(p.delete.as_ref().map(|d| d.id.0));
    };
    for g in &f.duplicates {
        ids.extend(g.events.iter().map(|e| e.id.0));
    }
    for g in &f.round_trips {
        for t in g.trips.iter() {
            ids.push(t.tx.id.0);
            ids.push(t.rx.id.0);
        }
    }
    for g in &f.repeated_allocs {
        g.pairs.iter().for_each(|p| pair(&mut ids, p));
    }
    f.unused_allocs.iter().for_each(|u| pair(&mut ids, &u.pair));
    ids.extend(f.unused_transfers.iter().map(|u| u.event.id.0));
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// `(dd, rt, ra, ua, ut)` as the five `findings.*` metrics.
pub fn count_metrics(c: &IssueCounts) -> [(&'static str, f64); 5] {
    [
        ("findings.dd", c.dd as f64),
        ("findings.rt", c.rt as f64),
        ("findings.ra", c.ra as f64),
        ("findings.ua", c.ua as f64),
        ("findings.ut", c.ut as f64),
    ]
}

/// Field-wise sum of issue counts.
pub fn sum_counts<'a>(all: impl IntoIterator<Item = &'a IssueCounts>) -> IssueCounts {
    all.into_iter()
        .fold(IssueCounts::default(), |a, c| IssueCounts {
            dd: a.dd + c.dd,
            rt: a.rt + c.rt,
            ra: a.ra + c.ra,
            ua: a.ua + c.ua,
            ut: a.ut + c.ut,
        })
}

const fn counts(dd: usize, rt: usize, ra: usize, ua: usize, ut: usize) -> IssueCounts {
    IssueCounts { dd, rt, ra, ua, ut }
}

/// `suite_postmortem` golden counts, `odp_workloads::all()` order. The
/// ten §7.2 programs carry the paper's Table 1 Medium counts (the same
/// values `tests/table1_issue_counts.rs` asserts); the five HeCBench
/// programs are pinned from their first run. The suite is
/// deterministic: these hold for every seed.
pub const SUITE_GOLDEN: [(&str, IssueCounts); 15] = [
    ("babelstream", counts(499, 0, 499, 0, 0)),
    ("bfs", counts(18, 10, 9, 0, 0)),
    ("hotspot", counts(2, 0, 0, 0, 0)),
    ("lud", counts(0, 0, 0, 0, 0)),
    ("minife", counts(402, 4, 398, 0, 0)),
    ("minifmm", counts(3, 0, 0, 0, 0)),
    ("nw", counts(0, 0, 0, 0, 0)),
    ("rsbench", counts(0, 1, 0, 0, 0)),
    ("tealeaf", counts(4720, 11, 4706, 0, 0)),
    ("xsbench", counts(0, 1, 0, 0, 0)),
    ("resize-omp", counts(99, 0, 198, 0, 0)),
    ("mandelbrot-omp", counts(15, 0, 15, 1, 0)),
    ("accuracy-omp", counts(6, 0, 0, 1, 1)),
    ("lif-omp", counts(0, 0, 0, 0, 0)),
    ("bspline-vgh-omp", counts(1798, 0, 0, 1, 1)),
];

/// Full-size storm, [`DEFAULT_SEED`]: event count, finding counts and
/// findings digest (`storm_postmortem` and `storm_stream` both).
pub const STORM_GOLDEN_EVENTS: usize = 1_213_542;
pub const STORM_GOLDEN_COUNTS: IssueCounts = counts(7_788, 35_169, 109_349, 10_516, 10_618);
pub const STORM_GOLDEN_DIGEST: u64 = 0xa67e_22e3_e433_c012;

/// `corpus_gate`, [`DEFAULT_SEED`]: sizes of the diff's new / fixed /
/// persisting site sets and the digest of their keys.
pub const CORPUS_GOLDEN_SITES: (usize, usize, usize) = (169, 140, 255);
pub const CORPUS_GOLDEN_DIGEST: u64 = 0x985a_30da_2dff_9877;

/// Digest of a sequence of words (site keys, counts).
pub fn words_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    words.into_iter().for_each(|w| h.word(w));
    h.0.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::capture;
    use ompdataperf::analysis::infer_num_devices_columnar;
    use ompdataperf::detect::EventView;

    fn findings(seed: u64) -> Findings {
        let cols = capture(seed, 2_000, 0).columnar();
        let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
        Findings::detect_fused(&view)
    }

    #[test]
    fn the_digest_tells_findings_apart() {
        let a = findings(5);
        assert_eq!(findings_digest(&a), findings_digest(&findings(5)));
        assert_ne!(findings_digest(&a), findings_digest(&findings(6)));

        // One flipped field, one dropped finding, one swapped pair.
        let mut b = a.clone();
        b.unused_transfers[0].event.dest_addr ^= 1;
        assert_ne!(findings_digest(&a), findings_digest(&b));
        let mut b = a.clone();
        b.unused_allocs.pop();
        assert_ne!(findings_digest(&a), findings_digest(&b));
        let mut b = a.clone();
        b.duplicates.swap(0, 1);
        assert_ne!(findings_digest(&a), findings_digest(&b));

        let share = events_in_findings(&a);
        assert!(share > 0 && share <= a.counts().total() * 2 + a.duplicates.len());
    }
}
