//! Device identifiers, following OpenMP terminology (paper §2.1).
//!
//! OpenMP numbers target devices `0..num_devices`; the *host device* (the
//! device on which the program begins execution) is addressed here with a
//! reserved sentinel so that data-op events can uniformly carry
//! `src_device`/`dest_device` fields the way OMPT callbacks do.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a logical execution engine ("device" in OpenMP terms).
///
/// Target devices are numbered from zero. The host is [`DeviceId::HOST`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeviceId(pub i32);

impl DeviceId {
    /// The host device (the CPU the program starts on).
    ///
    /// OpenMP's `omp_get_initial_device()` returns `num_devices`, but tools
    /// cannot know `num_devices` when decoding a trace, so we follow the
    /// common OMPT implementation practice of using a negative sentinel.
    pub const HOST: DeviceId = DeviceId(-1);

    /// Construct the id of the `n`-th target device.
    #[inline]
    pub const fn target(n: u32) -> Self {
        DeviceId(n as i32)
    }

    /// Is this the host device?
    #[inline]
    pub const fn is_host(self) -> bool {
        self.0 < 0
    }

    /// Is this a target (non-host) device?
    #[inline]
    pub const fn is_target(self) -> bool {
        self.0 >= 0
    }

    /// Index of this device among target devices, if it is one.
    #[inline]
    pub fn target_index(self) -> Option<usize> {
        if self.is_target() {
            Some(self.0 as usize)
        } else {
            None
        }
    }

    /// Raw OMPT-style device number (host encoded as `-1`).
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }
}

impl fmt::Debug for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "dev{}", self.0)
        }
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_sentinel_is_not_a_target() {
        assert!(DeviceId::HOST.is_host());
        assert!(!DeviceId::HOST.is_target());
        assert_eq!(DeviceId::HOST.target_index(), None);
    }

    #[test]
    fn target_indices_round_trip() {
        for n in [0u32, 1, 7, 15] {
            let d = DeviceId::target(n);
            assert!(d.is_target());
            assert_eq!(d.target_index(), Some(n as usize));
            assert_eq!(d.raw(), n as i32);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(DeviceId::HOST.to_string(), "host");
        assert_eq!(DeviceId::target(2).to_string(), "dev2");
    }

    #[test]
    fn ordering_places_host_first() {
        let mut v = vec![DeviceId::target(1), DeviceId::HOST, DeviceId::target(0)];
        v.sort();
        assert_eq!(
            v,
            vec![DeviceId::HOST, DeviceId::target(0), DeviceId::target(1)]
        );
    }
}
