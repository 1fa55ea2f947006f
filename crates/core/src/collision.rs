//! Hash-collision audit (§B.1).
//!
//! "We added an optional feature to OMPDataPerf that stores copies of all
//! transferred data and checks for hash collisions. While this feature
//! incurs moderate runtime overhead and extremely high memory overhead,
//! it allows comprehensive collision detection when enabled."
//!
//! Across all the paper's benchmarks and problem sizes: 0 collisions for
//! all 19 evaluated functions — the property our integration tests
//! re-verify.

use odp_hash::fnv::FnvHashMap;
use serde::Serialize;

/// A detected collision: two different payloads with one digest.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct Collision {
    /// The shared digest.
    pub hash: u64,
    /// Length of the first payload.
    pub first_len: usize,
    /// Length of the colliding payload.
    pub second_len: usize,
}

/// The audit store. Disabled by default (extreme memory overhead).
#[derive(Debug, Default)]
pub(crate) struct CollisionAudit {
    enabled: bool,
    /// digest → distinct payloads observed with that digest.
    by_hash: FnvHashMap<u64, Vec<Vec<u8>>>,
    collisions: Vec<Collision>,
    payload_bytes: usize,
    checks: u64,
}

impl CollisionAudit {
    /// Create an audit store; `enabled = false` makes `record` free.
    pub(crate) fn new(enabled: bool) -> Self {
        CollisionAudit {
            enabled,
            ..Default::default()
        }
    }

    /// Record a transfer's payload and digest; detects and remembers any
    /// collision with previously seen payloads.
    pub(crate) fn record(&mut self, payload: &[u8], hash: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        let entries = self.by_hash.entry(hash).or_default();
        for existing in entries.iter() {
            if existing.as_slice() == payload {
                return; // same content — by definition not a collision
            }
        }
        if !entries.is_empty() {
            self.collisions.push(Collision {
                hash,
                first_len: entries[0].len(),
                second_len: payload.len(),
            });
        }
        self.payload_bytes += payload.len();
        entries.push(payload.to_vec());
    }

    /// Collisions observed so far.
    pub(crate) fn collisions(&self) -> &[Collision] {
        &self.collisions
    }

    /// Number of payloads checked.
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }

    /// Bytes of payload copies retained (the "extremely high memory
    /// overhead" the paper warns about).
    pub(crate) fn retained_bytes(&self) -> usize {
        self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_audit_is_free() {
        let mut a = CollisionAudit::new(false);
        a.record(b"abc", 1);
        a.record(b"xyz", 1);
        assert!(a.collisions().is_empty());
        assert_eq!(a.checks(), 0);
        assert_eq!(a.retained_bytes(), 0);
    }

    #[test]
    fn identical_payloads_are_not_collisions() {
        let mut a = CollisionAudit::new(true);
        a.record(b"same", 42);
        a.record(b"same", 42);
        assert!(a.collisions().is_empty());
        assert_eq!(a.retained_bytes(), 4, "one retained copy");
    }

    #[test]
    fn different_payloads_same_hash_is_a_collision() {
        let mut a = CollisionAudit::new(true);
        a.record(b"aaaa", 42);
        a.record(b"bbbb", 42);
        assert_eq!(a.collisions().len(), 1);
        assert_eq!(a.collisions()[0].hash, 42);
    }

    #[test]
    fn different_hashes_never_collide() {
        let mut a = CollisionAudit::new(true);
        a.record(b"aaaa", 1);
        a.record(b"bbbb", 2);
        assert!(a.collisions().is_empty());
        assert_eq!(a.checks(), 2);
    }
}
