//! Seeded, deterministic fault injection for the simulated runtime.
//!
//! A production OMPT deployment sees callback streams the tool's
//! authors never anticipated: dropped or duplicated callbacks,
//! truncated transfer payloads, events naming devices that do not
//! exist, transfers that fail and are retried, devices that run out of
//! memory mid-run, and shards that simply stop making progress. The
//! [`FaultPlan`] lets the simulator *manufacture* those streams on
//! demand — deterministically, from a seed — so the detection
//! pipeline's graceful-degradation paths (quarantine accounting,
//! watermark stall recovery, degraded-confidence findings) can be
//! driven and differential-tested instead of hoped about.
//!
//! Wiring: a plan rides in [`crate::RuntimeConfig::faults`]; the
//! runtime consults one [`FaultSession`] (derived per shard by
//! `threads::run_on_threads{,_shared}`) at every callback dispatch,
//! every transfer, and every device allocation. Every injected fault is
//! counted in a [`FaultCounts`] total shared by all clones of the plan,
//! so a test can reconcile *injected* against what the pipeline reports
//! as *quarantined + survived*.
//!
//! The no-op plan (the default) is a single `bool` test on the hot
//! path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Device-number offset used for corrupt-device faults: far above any
/// configured device count, so the event is out of range everywhere.
pub(crate) const CORRUPT_DEVICE_OFFSET: u32 = 0x4000_0000;

/// Per-class fault probabilities, in parts per 65536 per event, plus
/// the two triggered (non-probabilistic) fault classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop the `Begin` edge of a data-op callback (the `End` arrives
    /// orphaned).
    pub drop_begin: u16,
    /// Drop the `End` edge (the event is never recorded and its open
    /// `Begin` pins the shard's watermark).
    pub drop_end: u16,
    /// Deliver the `End` edge twice (the second is an orphan).
    pub duplicate_end: u16,
    /// Truncate a transfer payload below the claimed byte count.
    pub truncate_payload: u16,
    /// Flip bits in a transfer payload (the content hash changes).
    pub corrupt_payload: u16,
    /// Report a device number no configuration contains.
    pub corrupt_device: u16,
    /// Fail a transfer attempt (the runtime retries with backoff).
    pub transfer_fail: u16,
    /// After this many data ops, the shard stalls: every later `End`
    /// edge is dropped, so its watermark never advances again.
    pub stall_after_ops: Option<u64>,
    /// Which shard the stall applies to (`for_shard` keeps the stall
    /// only on this shard).
    pub stall_shard: u32,
    /// Device allocations from this one onward (1-based, counted per
    /// shard) fail as if the device were out of memory.
    pub oom_from_alloc: Option<u64>,
}

impl FaultConfig {
    fn is_noop(&self) -> bool {
        *self == FaultConfig::default()
    }
}

/// Named fault presets for the CLI's `--fault-profile`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults (the default plan).
    None,
    /// Dropped/duplicated callback edges and truncated payloads.
    Lossy,
    /// Everything in `Lossy` plus corrupt payloads/devices and failing
    /// transfers.
    Hostile,
    /// One shard stops closing events mid-run (watermark stall).
    Stalled,
    /// A device runs out of memory mid-run.
    Oom,
}

impl FaultProfile {
    /// Parse a `--fault-profile` argument.
    pub fn parse(s: &str) -> Option<FaultProfile> {
        match s {
            "none" => Some(FaultProfile::None),
            "lossy" => Some(FaultProfile::Lossy),
            "hostile" => Some(FaultProfile::Hostile),
            "stalled" => Some(FaultProfile::Stalled),
            "oom" => Some(FaultProfile::Oom),
            _ => None,
        }
    }

    /// The profile names `parse` accepts.
    pub const NAMES: &'static str = "none, lossy, hostile, stalled, oom";

    /// The fault configuration this profile stands for.
    pub(crate) fn config(self) -> FaultConfig {
        match self {
            FaultProfile::None => FaultConfig::default(),
            FaultProfile::Lossy => FaultConfig {
                drop_begin: 1000,
                drop_end: 1000,
                duplicate_end: 800,
                truncate_payload: 600,
                ..FaultConfig::default()
            },
            FaultProfile::Hostile => FaultConfig {
                drop_begin: 1000,
                drop_end: 1000,
                duplicate_end: 800,
                truncate_payload: 600,
                corrupt_payload: 600,
                corrupt_device: 400,
                transfer_fail: 1500,
                ..FaultConfig::default()
            },
            FaultProfile::Stalled => FaultConfig {
                stall_after_ops: Some(40),
                ..FaultConfig::default()
            },
            FaultProfile::Oom => FaultConfig {
                oom_from_alloc: Some(4),
                ..FaultConfig::default()
            },
        }
    }
}

/// Running totals of injected faults, shared by every clone of one
/// [`FaultPlan`] (so multi-threaded runs reconcile globally).
#[derive(Debug, Default)]
struct FaultTotals {
    dropped_begin: AtomicU64,
    dropped_end: AtomicU64,
    duplicated_end: AtomicU64,
    truncated: AtomicU64,
    corrupted_payload: AtomicU64,
    corrupted_device: AtomicU64,
    transfer_retries: AtomicU64,
    stalled_drops: AtomicU64,
    oom_failures: AtomicU64,
}

/// A point-in-time snapshot of everything a plan injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Dropped `Begin` edges (each leaves an orphaned `End`).
    pub dropped_begin: u64,
    /// Dropped `End` edges (each event is lost entirely).
    pub dropped_end: u64,
    /// Duplicated `End` edges (each extra copy is an orphan).
    pub duplicated_end: u64,
    /// Truncated transfer payloads.
    pub truncated: u64,
    /// Bit-flipped transfer payloads.
    pub corrupted_payload: u64,
    /// Events stamped with an out-of-range device number.
    pub corrupted_device: u64,
    /// Failed transfer attempts the runtime retried.
    pub transfer_retries: u64,
    /// `End` edges dropped by a stalled shard.
    pub stalled_drops: u64,
    /// Device allocations failed by the OOM trigger.
    pub oom_failures: u64,
}

impl FaultCounts {
    /// Total injected faults of every class.
    pub fn total(&self) -> u64 {
        self.dropped_begin
            + self.dropped_end
            + self.duplicated_end
            + self.truncated
            + self.corrupted_payload
            + self.corrupted_device
            + self.transfer_retries
            + self.stalled_drops
            + self.oom_failures
    }

    /// Events the trace log can never contain: their `End` edge (the
    /// record point) was dropped, either probabilistically or by a
    /// stall.
    pub fn events_lost(&self) -> u64 {
        self.dropped_end + self.stalled_drops
    }

    /// `End` edges delivered with no open `Begin` — what a correct
    /// collector must quarantine as orphans.
    pub fn orphans_injected(&self) -> u64 {
        self.dropped_begin + self.duplicated_end
    }

    /// One-line summary for console output.
    pub fn summary(&self) -> String {
        format!(
            "fault injection: {} fault(s) (begin drops {}, end drops {}, dup ends {}, \
             truncated {}, corrupt payloads {}, corrupt devices {}, transfer retries {}, \
             stall drops {}, oom {})",
            self.total(),
            self.dropped_begin,
            self.dropped_end,
            self.duplicated_end,
            self.truncated,
            self.corrupted_payload,
            self.corrupted_device,
            self.transfer_retries,
            self.stalled_drops,
            self.oom_failures,
        )
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Cloning a plan (as `RuntimeConfig` cloning does) shares the fault
/// totals; `FaultPlan::for_shard` additionally splits the random
/// stream so every shard draws independent, reproducible decisions.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
    shard: u32,
    enabled: bool,
    totals: Arc<FaultTotals>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The no-fault plan (one disabled-flag test per event).
    pub fn none() -> FaultPlan {
        FaultPlan::new(0, FaultConfig::default())
    }

    /// A plan drawing from `cfg` with the random stream seeded by
    /// `seed`.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            seed,
            shard: 0,
            enabled: !cfg.is_noop(),
            totals: Arc::new(FaultTotals::default()),
        }
    }

    /// A plan for a named profile.
    pub fn from_profile(profile: FaultProfile, seed: u64) -> FaultPlan {
        FaultPlan::new(seed, profile.config())
    }

    /// Does this plan ever inject anything?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The plan's configuration.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Derive the plan shard `shard` consults: an independent random
    /// stream over the same configuration and shared totals. The stall
    /// trigger stays only on `cfg.stall_shard`.
    pub(crate) fn for_shard(&self, shard: u32) -> FaultPlan {
        FaultPlan {
            cfg: self.cfg,
            seed: self.seed,
            shard,
            enabled: self.enabled,
            totals: Arc::clone(&self.totals),
        }
    }

    /// Snapshot the injected-fault totals across every clone.
    pub fn counts(&self) -> FaultCounts {
        let t = &*self.totals;
        FaultCounts {
            dropped_begin: t.dropped_begin.load(Ordering::Relaxed),
            dropped_end: t.dropped_end.load(Ordering::Relaxed),
            duplicated_end: t.duplicated_end.load(Ordering::Relaxed),
            truncated: t.truncated.load(Ordering::Relaxed),
            corrupted_payload: t.corrupted_payload.load(Ordering::Relaxed),
            corrupted_device: t.corrupted_device.load(Ordering::Relaxed),
            transfer_retries: t.transfer_retries.load(Ordering::Relaxed),
            stalled_drops: t.stalled_drops.load(Ordering::Relaxed),
            oom_failures: t.oom_failures.load(Ordering::Relaxed),
        }
    }

    /// Start the per-runtime fault session for this plan.
    pub(crate) fn session(&self) -> FaultSession {
        // SplitMix64 over (seed, shard) so shards draw disjoint streams.
        let mut z = self
            .seed
            .wrapping_add((self.shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultSession {
            plan: self.clone(),
            rng: z ^ (z >> 31),
            ops_seen: 0,
            allocs_seen: 0,
        }
    }
}

/// The single fault (at most one) applied to one data-op callback pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataOpFault {
    /// Deliver both edges untouched.
    Clean,
    /// Suppress the `Begin` edge.
    DropBegin,
    /// Suppress the `End` edge.
    DropEnd,
    /// Deliver the `End` edge twice.
    DuplicateEnd,
    /// Shorten the payload below the claimed byte count.
    TruncatePayload,
    /// Flip bits in the payload.
    CorruptPayload,
    /// Stamp both edges with an out-of-range device number.
    CorruptDevice,
}

/// Per-runtime mutable fault state: the running random stream and the
/// trigger counters. Derived from the plan at runtime construction.
#[derive(Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    rng: u64,
    ops_seen: u64,
    allocs_seen: u64,
}

impl FaultSession {
    #[inline]
    fn next(&mut self) -> u64 {
        // SplitMix64: the same finalizer the kernel default mutation
        // uses; cheap, full-period, and splittable by construction.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decide the fate of the next data-op callback pair. At most one
    /// fault class fires per event (classes are laddered over one
    /// draw), which keeps the injected-vs-quarantined reconciliation
    /// exact. `is_transfer` gates the payload classes.
    pub(crate) fn on_data_op(&mut self, is_transfer: bool) -> DataOpFault {
        if !self.plan.enabled {
            return DataOpFault::Clean;
        }
        self.ops_seen += 1;
        let cfg = self.plan.cfg;
        // A stalled shard closes nothing ever again.
        if let Some(after) = cfg.stall_after_ops {
            if self.plan.shard == cfg.stall_shard && self.ops_seen > after {
                Self::bump(&self.plan.totals.stalled_drops);
                return DataOpFault::DropEnd;
            }
        }
        let draw = (self.next() & 0xFFFF) as u16;
        let mut floor = 0u16;
        let mut hit = |p: u16| {
            let lo = floor;
            floor = floor.saturating_add(p);
            p > 0 && draw >= lo && draw < floor
        };
        if hit(cfg.drop_begin) {
            Self::bump(&self.plan.totals.dropped_begin);
            return DataOpFault::DropBegin;
        }
        if hit(cfg.drop_end) {
            Self::bump(&self.plan.totals.dropped_end);
            return DataOpFault::DropEnd;
        }
        if hit(cfg.duplicate_end) {
            Self::bump(&self.plan.totals.duplicated_end);
            return DataOpFault::DuplicateEnd;
        }
        if hit(cfg.corrupt_device) {
            Self::bump(&self.plan.totals.corrupted_device);
            return DataOpFault::CorruptDevice;
        }
        if is_transfer {
            if hit(cfg.truncate_payload) {
                Self::bump(&self.plan.totals.truncated);
                return DataOpFault::TruncatePayload;
            }
            if hit(cfg.corrupt_payload) {
                Self::bump(&self.plan.totals.corrupted_payload);
                return DataOpFault::CorruptPayload;
            }
        }
        DataOpFault::Clean
    }

    /// How many attempts of this transfer fail before one succeeds
    /// (0 = first attempt succeeds). Geometric in `transfer_fail`,
    /// capped so a run always terminates.
    pub(crate) fn transfer_failures(&mut self) -> u32 {
        if !self.plan.enabled || self.plan.cfg.transfer_fail == 0 {
            return 0;
        }
        let mut failures = 0;
        while failures < 3 && ((self.next() & 0xFFFF) as u16) < self.plan.cfg.transfer_fail {
            failures += 1;
            Self::bump(&self.plan.totals.transfer_retries);
        }
        failures
    }

    /// Does the next device allocation fail with a simulated OOM?
    pub(crate) fn alloc_fails(&mut self) -> bool {
        if !self.plan.enabled {
            return false;
        }
        let Some(from) = self.plan.cfg.oom_from_alloc else {
            return false;
        };
        self.allocs_seen += 1;
        if self.allocs_seen >= from {
            Self::bump(&self.plan.totals.oom_failures);
            true
        } else {
            false
        }
    }
}

/// Corrupt a payload copy in place: flip a deterministic bit derived
/// from the draw state, guaranteed to change the content hash.
pub(crate) fn flip_payload_bit(payload: &mut [u8], salt: u64) {
    if payload.is_empty() {
        return;
    }
    let idx = (salt as usize) % payload.len();
    payload[idx] ^= 1 << ((salt >> 32) & 7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled_and_free_of_decisions() {
        let plan = FaultPlan::default();
        assert!(!plan.is_enabled());
        let mut s = plan.session();
        for _ in 0..100 {
            assert_eq!(s.on_data_op(true), DataOpFault::Clean);
        }
        assert_eq!(s.transfer_failures(), 0);
        assert!(!s.alloc_fails());
        assert_eq!(plan.counts(), FaultCounts::default());
    }

    #[test]
    fn sessions_are_deterministic_in_seed_and_shard() {
        let plan = FaultPlan::from_profile(FaultProfile::Hostile, 42);
        let a: Vec<_> = {
            let mut s = plan.session();
            (0..256).map(|_| s.on_data_op(true)).collect()
        };
        let b: Vec<_> = {
            let mut s = plan.for_shard(0).session();
            (0..256).map(|_| s.on_data_op(true)).collect()
        };
        assert_eq!(a, b, "same seed + shard → same decisions");
        let c: Vec<_> = {
            let mut s = plan.for_shard(1).session();
            (0..256).map(|_| s.on_data_op(true)).collect()
        };
        assert_ne!(a, c, "different shards draw independent streams");
    }

    #[test]
    fn totals_reconcile_with_decisions() {
        let plan = FaultPlan::from_profile(FaultProfile::Lossy, 7);
        let mut s = plan.session();
        let mut by_class = FaultCounts::default();
        for i in 0..4096 {
            match s.on_data_op(i % 3 != 0) {
                DataOpFault::Clean => {}
                DataOpFault::DropBegin => by_class.dropped_begin += 1,
                DataOpFault::DropEnd => by_class.dropped_end += 1,
                DataOpFault::DuplicateEnd => by_class.duplicated_end += 1,
                DataOpFault::TruncatePayload => by_class.truncated += 1,
                DataOpFault::CorruptPayload => by_class.corrupted_payload += 1,
                DataOpFault::CorruptDevice => by_class.corrupted_device += 1,
            }
        }
        assert!(by_class.total() > 0, "lossy must inject at 4096-op scale");
        assert_eq!(plan.counts(), by_class);
    }

    #[test]
    fn stall_drops_every_end_after_the_trigger() {
        let plan = FaultPlan::new(
            1,
            FaultConfig {
                stall_after_ops: Some(5),
                ..FaultConfig::default()
            },
        );
        let mut s = plan.session();
        for _ in 0..5 {
            assert_eq!(s.on_data_op(true), DataOpFault::Clean);
        }
        for _ in 0..10 {
            assert_eq!(s.on_data_op(true), DataOpFault::DropEnd);
        }
        assert_eq!(plan.counts().stalled_drops, 10);
        // Another shard never stalls.
        let mut other = plan.for_shard(3).session();
        for _ in 0..20 {
            assert_eq!(other.on_data_op(true), DataOpFault::Clean);
        }
    }

    #[test]
    fn oom_trigger_fails_from_the_nth_alloc() {
        let plan = FaultPlan::new(
            1,
            FaultConfig {
                oom_from_alloc: Some(3),
                ..FaultConfig::default()
            },
        );
        let mut s = plan.session();
        assert!(!s.alloc_fails());
        assert!(!s.alloc_fails());
        assert!(s.alloc_fails());
        assert!(s.alloc_fails());
        assert_eq!(plan.counts().oom_failures, 2);
    }

    #[test]
    fn shared_totals_sum_across_shards() {
        let plan = FaultPlan::from_profile(FaultProfile::Lossy, 11);
        let mut a = plan.for_shard(0).session();
        let mut b = plan.for_shard(1).session();
        for _ in 0..2048 {
            a.on_data_op(true);
            b.on_data_op(true);
        }
        assert!(plan.counts().total() > 0);
    }

    #[test]
    fn profile_parsing_round_trips() {
        for (name, p) in [
            ("none", FaultProfile::None),
            ("lossy", FaultProfile::Lossy),
            ("hostile", FaultProfile::Hostile),
            ("stalled", FaultProfile::Stalled),
            ("oom", FaultProfile::Oom),
        ] {
            assert_eq!(FaultProfile::parse(name), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
        assert!(!FaultPlan::from_profile(FaultProfile::None, 9).is_enabled());
        assert!(FaultPlan::from_profile(FaultProfile::Hostile, 9).is_enabled());
    }

    #[test]
    fn payload_bit_flip_changes_content() {
        let mut buf = vec![0u8; 64];
        flip_payload_bit(&mut buf, 0xDEAD_BEEF_1234_5678);
        assert_ne!(buf, vec![0u8; 64]);
    }
}
