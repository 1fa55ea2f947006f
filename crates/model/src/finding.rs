//! The five §5 inefficiency classes — one name for a finding, a report
//! section, a fleet site and the cause of a remediation rewrite.

use serde::{Deserialize, Serialize};

/// Which of the five §5 inefficiency classes a finding belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FindingKind {
    /// Algorithm 1: duplicate data transfer.
    DuplicateTransfer,
    /// Algorithm 2: round-trip data transfer.
    RoundTrip,
    /// Algorithm 3: repeated device memory allocation.
    RepeatedAlloc,
    /// Algorithm 4: unused device memory allocation.
    UnusedAlloc,
    /// Algorithm 5: unused data transfer.
    UnusedTransfer,
}

impl FindingKind {
    /// All kinds, Table 1 order.
    pub const ALL: [FindingKind; 5] = [
        FindingKind::DuplicateTransfer,
        FindingKind::RoundTrip,
        FindingKind::RepeatedAlloc,
        FindingKind::UnusedAlloc,
        FindingKind::UnusedTransfer,
    ];

    /// Dense index into [`FindingKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 1-style short code.
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::DuplicateTransfer => "DD",
            FindingKind::RoundTrip => "RT",
            FindingKind::RepeatedAlloc => "RA",
            FindingKind::UnusedAlloc => "UA",
            FindingKind::UnusedTransfer => "UT",
        }
    }

    /// Human-readable name (remediation report rows).
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::DuplicateTransfer => "duplicate transfer",
            FindingKind::RoundTrip => "round trip",
            FindingKind::RepeatedAlloc => "repeated allocation",
            FindingKind::UnusedAlloc => "unused allocation",
            FindingKind::UnusedTransfer => "unused transfer",
        }
    }
}
