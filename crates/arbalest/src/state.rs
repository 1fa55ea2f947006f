//! Per-variable state tracked by the Arbalest-Vec reproduction.
//!
//! Arbalest's core abstraction is a state machine per mapped variable
//! (the VSA — variable state automaton); this module holds the two state
//! records our rendition needs: the device-side mapping state and the
//! host-side freshness state.

/// State of one variable's mapping on one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MappingState {
    /// The mapping is live (between alloc and delete).
    pub mapped: bool,
    /// The device copy has been initialized (H2D transfer or a kernel
    /// write).
    pub dev_init: bool,
    /// Mapped size in bytes (for BO checks).
    pub bytes: u64,
}

impl MappingState {
    /// A freshly allocated, uninitialized mapping.
    pub(crate) fn fresh(bytes: u64) -> Self {
        MappingState {
            mapped: true,
            dev_init: false,
            bytes,
        }
    }
}

/// Host-side freshness state of one variable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct HostState {
    /// The host copy has ever been written.
    pub initialized: bool,
    /// The device holds a newer copy than the host (kernel wrote it and
    /// no D2H has happened since).
    pub stale: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_mapping_is_uninitialized() {
        let m = MappingState::fresh(128);
        assert!(m.mapped);
        assert!(!m.dev_init);
        assert_eq!(m.bytes, 128);
    }

    #[test]
    fn host_state_default_is_clean() {
        let h = HostState::default();
        assert!(!h.initialized);
        assert!(!h.stale);
    }
}
