//! Code pointers and resolved source locations.
//!
//! OMPT callbacks report a `codeptr_ra` — the return address of the runtime
//! call generated for each directive. The paper's tool resolves these
//! through DWARF debug info (libdw) to `file:line` locations. Our substrate
//! (`ompdataperf::attrib`) performs the same resolution against synthetic
//! debug info registered by each workload.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An opaque code pointer (return address of a directive's runtime call).
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct CodePtr(pub u64);

impl CodePtr {
    /// The null code pointer: "no attribution available".
    pub const NULL: CodePtr = CodePtr(0);

    /// Is attribution information available for this pointer?
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for CodePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "<unknown>")
        } else {
            write!(f, "0x{:08x}", self.0)
        }
    }
}

/// A resolved source location.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub struct SourceLoc {
    /// Source file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Enclosing function name.
    pub function: String,
}

impl SourceLoc {
    /// Construct a source location.
    pub fn new(file: impl Into<String>, line: u32, function: impl Into<String>) -> Self {
        SourceLoc {
            file: file.into(),
            line,
            function: function.into(),
        }
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} ({})", self.file, self.line, self.function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_pointer_display() {
        assert_eq!(CodePtr::NULL.to_string(), "<unknown>");
        assert!(CodePtr::NULL.is_null());
        assert!(!CodePtr(0x400123).is_null());
    }

    #[test]
    fn loc_display() {
        let l = SourceLoc::new("bfs.c", 42, "main");
        assert_eq!(l.to_string(), "bfs.c:42 (main)");
    }
}
