//! OMPT interface versions.

use serde::Serialize;
use std::fmt;

/// The OMPT interface version a runtime implements.
///
/// OMPDataPerf requires 5.1 (EMI callbacks); it degrades with a warning on
/// 5.0 (non-EMI target callbacks only) and cannot operate on runtimes
/// without OMPT (§A.6, §D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum OmptVersion {
    /// No OMPT support at all (e.g. GCC's libgomp).
    None,
    /// Pre-5.0 technical-report preview ("TR4 5.0 preview 1" in §A.6).
    Tr4Preview,
    /// OpenMP 5.0: tool initialization + non-EMI target callbacks.
    V5_0,
    /// OpenMP 5.1: EMI callbacks — what OMPDataPerf requires.
    V5_1,
    /// OpenMP 6.0: non-EMI target callbacks deprecated.
    V6_0,
}

impl OmptVersion {
    /// Version string as a runtime would report it.
    pub(crate) fn version_string(self) -> &'static str {
        match self {
            OmptVersion::None => "none",
            OmptVersion::Tr4Preview => "TR4 5.0 preview 1",
            OmptVersion::V5_0 => "5.0",
            OmptVersion::V5_1 => "5.1",
            OmptVersion::V6_0 => "6.0",
        }
    }
}

impl fmt::Display for OmptVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.version_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emi_availability() {
        // Every profile offers the EMI target callbacks exactly when it
        // reports OMPT 5.1 or later.
        use crate::{CallbackKind, CompilerProfile};
        for profile in CompilerProfile::ALL {
            for caps in [profile.capabilities(), profile.capabilities_pre_emi()] {
                assert_eq!(
                    caps.supports(CallbackKind::TargetEmi),
                    caps.ompt_version >= OmptVersion::V5_1,
                    "{profile:?} at {}",
                    caps.ompt_version
                );
            }
        }
    }

    #[test]
    fn ordering_matches_chronology() {
        assert!(OmptVersion::None < OmptVersion::Tr4Preview);
        assert!(OmptVersion::Tr4Preview < OmptVersion::V5_0);
        assert!(OmptVersion::V5_0 < OmptVersion::V5_1);
        assert!(OmptVersion::V5_1 < OmptVersion::V6_0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(OmptVersion::Tr4Preview.to_string(), "TR4 5.0 preview 1");
        assert_eq!(OmptVersion::V5_1.to_string(), "5.1");
    }
}
