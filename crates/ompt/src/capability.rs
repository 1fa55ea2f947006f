//! Compiler/runtime OMPT capability profiles — the paper's Table 6.
//!
//! Appendix D surveys OMPT target-feature support across nine compiler
//! infrastructures. This module encodes that matrix: which callbacks each
//! runtime supports, since which release, and the footnoted
//! deprecation/optionality status. The simulator can be configured with
//! any profile, which makes tool degradation (§A.6's version warning)
//! testable without the actual compilers.

use crate::callback::CallbackKind;
use crate::version::OmptVersion;
use serde::Serialize;

/// One of the nine surveyed compiler infrastructures (Table 6 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum CompilerProfile {
    /// AMD Optimizing C/C++ and Fortran Compilers.
    AmdAocc,
    /// AMD AOMP (Radeon-focused LLVM fork).
    AmdAomp,
    /// AMD ROCm LLVM.
    AmdRocm,
    /// Arm Compiler for Linux (offload disabled; non-target OMPT only).
    ArmAcfl,
    /// GNU GCC (no OMPT at all).
    GnuGcc,
    /// HPE Cray Compiling Environment.
    HpeCce,
    /// Intel oneAPI DPC++/C++ and Fortran.
    IntelIcx,
    /// LLVM Clang/Flang (the paper's primary platform).
    LlvmClang,
    /// NVIDIA HPC SDK.
    NvidiaHpc,
}

/// What a configured runtime offers to tools.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RuntimeCapabilities {
    /// The compiler infrastructure this models.
    pub profile: CompilerProfile,
    /// OMPT interface version reported at tool initialization.
    pub ompt_version: OmptVersion,
    /// Runtime identification string (cf. §A.6 "LLVM OMP version ...").
    pub runtime_name: &'static str,
    /// Callbacks this runtime dispatches.
    pub supported_callbacks: Vec<CallbackKind>,
    /// Does the runtime implement the OMPT target tracing interface?
    pub tracing_interface: bool,
    /// Must the program be (re)compiled with a special flag for OMPT to
    /// engage (NVHPC's `-mp=ompt`)?
    pub requires_recompile_flag: Option<&'static str>,
}

impl RuntimeCapabilities {
    /// Does the runtime dispatch `kind`?
    pub(crate) fn supports(&self, kind: CallbackKind) -> bool {
        self.supported_callbacks.contains(&kind)
    }

    /// Does this runtime satisfy OMPDataPerf's two hard requirements
    /// (`target_emi` + `target_data_op_emi`, §6)?
    pub fn meets_ompdataperf_requirements(&self) -> bool {
        self.supports(CallbackKind::TargetEmi) && self.supports(CallbackKind::TargetDataOpEmi)
    }
}

/// A row of Table 6: per-feature first-supporting version strings.
#[derive(Clone, Debug, Serialize)]
pub struct SupportMatrixRow {
    /// Compiler column.
    pub profile: CompilerProfile,
    /// Display name.
    pub compiler: &'static str,
    /// Runtime library name.
    pub runtime_name: &'static str,
    /// Tool-initialization support since (None = unsupported).
    pub tool_init: Option<&'static str>,
    /// Non-EMI target callbacks since.
    pub target_callbacks: Option<&'static str>,
    /// OMPT tracing interface since.
    pub tracing: Option<&'static str>,
    /// EMI target callbacks since.
    pub target_emi: Option<&'static str>,
    /// Target-map EMI callback since (optional feature).
    pub target_map_emi: Option<&'static str>,
}

impl CompilerProfile {
    /// All nine profiles, Table 6 column order.
    pub const ALL: [CompilerProfile; 9] = [
        CompilerProfile::AmdAocc,
        CompilerProfile::AmdAomp,
        CompilerProfile::AmdRocm,
        CompilerProfile::ArmAcfl,
        CompilerProfile::GnuGcc,
        CompilerProfile::HpeCce,
        CompilerProfile::IntelIcx,
        CompilerProfile::LlvmClang,
        CompilerProfile::NvidiaHpc,
    ];

    /// The capability set this compiler's runtime offers: what the
    /// Table 6 row implies.
    pub fn capabilities(self) -> RuntimeCapabilities {
        use CallbackKind::*;
        let row = self.support_matrix_row();
        let mut supported_callbacks = Vec::new();
        if row.target_emi.is_some() {
            supported_callbacks.extend([TargetEmi, TargetDataOpEmi, TargetSubmitEmi]);
        }
        if row.target_callbacks.is_some() {
            supported_callbacks.extend([Target, TargetDataOp, TargetSubmit]);
        }
        if row.target_map_emi.is_some() {
            supported_callbacks.extend([TargetMapEmi, TargetMap]);
        }
        RuntimeCapabilities {
            profile: self,
            // EMI arrived with 5.1; tool initialization alone is the 5.0
            // (non-target) interface; GCC has no OMPT at all.
            ompt_version: match (row.target_emi, row.tool_init) {
                (Some(_), _) => OmptVersion::V5_1,
                (None, Some(_)) => OmptVersion::V5_0,
                (None, None) => OmptVersion::None,
            },
            runtime_name: row.runtime_name,
            supported_callbacks,
            tracing_interface: row.tracing.is_some(),
            requires_recompile_flag: since(TABLE6[self as usize][7]),
        }
    }

    /// A degraded variant of this profile reporting only OMPT 5.0
    /// (non-EMI callbacks) — used to reproduce the §A.6 warning, which
    /// shows OMPDataPerf operating against "OMPT interface version TR4 5.0
    /// preview 1" with degraded features.
    pub fn capabilities_pre_emi(self) -> RuntimeCapabilities {
        use CallbackKind::*;
        let mut caps = self.capabilities();
        caps.ompt_version = OmptVersion::Tr4Preview;
        caps.supported_callbacks = vec![Target, TargetDataOp, TargetSubmit];
        caps
    }

    /// Table 6 row (feature → first supporting release).
    pub fn support_matrix_row(self) -> SupportMatrixRow {
        let cell = TABLE6[self as usize];
        SupportMatrixRow {
            profile: self,
            compiler: cell[0],
            runtime_name: cell[1],
            tool_init: since(cell[2]),
            target_callbacks: since(cell[3]),
            tracing: since(cell[4]),
            target_emi: since(cell[5]),
            target_map_emi: since(cell[6]),
        }
    }
}

/// Table 6 as the paper prints it, one row per [`CompilerProfile`] in
/// declaration (= [`CompilerProfile::ALL`]) order: compiler, runtime library, then the first release supporting
/// tool initialization, the non-EMI target callbacks, the tracing
/// interface, the EMI target callbacks and the target-map EMI callback
/// (`-`: unsupported) — plus, from Appendix D's prose, the flag a
/// program must be recompiled with for OMPT to engage. Names, capability
/// sets and matrix rows all derive from it.
#[rustfmt::skip]
const TABLE6: [[&str; 8]; 9] = [
    ["AMD AOCC",         "AOCC libomp",                    "2.0",    "5.0",    "-",      "5.0",    "-",    "-"],
    ["AMD AOMP",         "AOMP libomp",                    "0.8-0",  "17.0-3", "14.0-1", "17.0-3", "-",    "-"],
    ["AMD ROCm",         "ROCm libomp",                    "3.5.0",  "5.7.0",  "5.1.0",  "5.7.0",  "-",    "-"],
    // Offload disabled: non-target OMPT only, no target callbacks.
    ["Arm ACfL",         "ACfL libomp",                    "20.0",   "-",      "-",      "-",      "-",    "-"],
    ["GNU GCC",          "libgomp",                        "-",      "-",      "-",      "-",      "-",    "-"],
    ["HPE CCE",          "libcraymp",                      "11.0.0", "16.0.0", "-",      "16.0.0", "-",    "-"],
    ["Intel ICX/IFX",    "Intel libomp",                   "2021.1", "2023.2", "-",      "2023.2", "-",    "-"],
    ["LLVM Clang/Flang", "LLVM OMP version: 5.0.20140926", "8.0.0",  "17.0.1", "-",      "17.0.1", "-",    "-"],
    ["NVIDIA NVHPC",     "libnvomp",                       "22.7",   "22.7",   "-",      "22.7",   "22.7", "-mp=ompt"],
];

/// A [`TABLE6`] cell: `-` means unsupported.
fn since(cell: &'static str) -> Option<&'static str> {
    Some(cell).filter(|&c| c != "-")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_of_nine_meet_ompdataperf_requirements() {
        // Table 6 / §D: all full-EMI runtimes qualify; ACfL (no target
        // callbacks) and GCC (no OMPT) do not.
        let qualifying = CompilerProfile::ALL
            .iter()
            .filter(|p| p.capabilities().meets_ompdataperf_requirements())
            .count();
        assert_eq!(qualifying, 7);
        assert!(!CompilerProfile::GnuGcc
            .capabilities()
            .meets_ompdataperf_requirements());
        assert!(!CompilerProfile::ArmAcfl
            .capabilities()
            .meets_ompdataperf_requirements());
    }

    #[test]
    fn only_amd_forks_have_tracing() {
        for p in CompilerProfile::ALL {
            let expect = matches!(p, CompilerProfile::AmdAomp | CompilerProfile::AmdRocm);
            assert_eq!(p.capabilities().tracing_interface, expect, "{p:?}");
        }
    }

    #[test]
    fn nvhpc_requires_recompile_flag() {
        assert_eq!(
            CompilerProfile::NvidiaHpc
                .capabilities()
                .requires_recompile_flag,
            Some("-mp=ompt")
        );
        assert_eq!(
            CompilerProfile::LlvmClang
                .capabilities()
                .requires_recompile_flag,
            None
        );
    }

    #[test]
    fn pre_emi_profile_reports_tr4_and_no_emi() {
        let caps = CompilerProfile::LlvmClang.capabilities_pre_emi();
        assert_eq!(caps.ompt_version, OmptVersion::Tr4Preview);
        assert!(!caps.supports(CallbackKind::TargetEmi));
        assert!(caps.supports(CallbackKind::Target));
        assert!(!caps.meets_ompdataperf_requirements());
    }

    #[test]
    fn matrix_rows_match_capabilities() {
        for p in CompilerProfile::ALL {
            let row = p.support_matrix_row();
            let caps = p.capabilities();
            assert_eq!(
                row.target_emi.is_some(),
                caps.supports(CallbackKind::TargetEmi),
                "{p:?}: matrix row and capability set disagree on EMI"
            );
            assert_eq!(row.tracing.is_some(), caps.tracing_interface, "{p:?}");
        }
    }

    #[test]
    fn gcc_row_is_all_dashes() {
        let row = CompilerProfile::GnuGcc.support_matrix_row();
        assert!(row.tool_init.is_none());
        assert!(row.target_callbacks.is_none());
        assert!(row.target_emi.is_none());
    }
}
