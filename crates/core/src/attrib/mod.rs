//! Source attribution — the libdw/DWARF substrate.
//!
//! The native tool resolves each event's `codeptr_ra` to `file:line`
//! through DWARF debug info read with libdw (§6, Figure 1); programs must
//! be compiled with `-g` for line numbers. Our simulated programs
//! register equivalent debug info here: one `file:line` in a function
//! per directive call site, looked up by its exact code pointer.
//!
//! Workloads build their "compilation" with [`SourceFile`], which both
//! allocates code pointers and registers their locations, so directive
//! call sites in workload code carry honest line attribution.

use odp_hash::fnv::FnvHashMap;
use odp_model::{CodePtr, SourceLoc};
use serde::Serialize;

/// Debug information for the monitored program.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DebugInfo {
    files: Vec<String>,
    functions: Vec<String>,
    /// Code pointer → `(file, function, line)` indices.
    exact: FnvHashMap<u64, (u32, u32, u32)>,
}

impl DebugInfo {
    /// Empty debug info ("compiled without `-g`"): every resolution
    /// fails, as for an unstripped-but-debugless binary.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern_file(&mut self, file: &str) -> u32 {
        match self.files.iter().position(|f| f == file) {
            Some(ix) => ix as u32,
            None => {
                self.files.push(file.to_string());
                (self.files.len() - 1) as u32
            }
        }
    }

    fn intern_func(&mut self, func: &str) -> u32 {
        match self.functions.iter().position(|f| f == func) {
            Some(ix) => ix as u32,
            None => {
                self.functions.push(func.to_string());
                (self.functions.len() - 1) as u32
            }
        }
    }

    /// Register an exact code pointer → location mapping.
    pub fn register(&mut self, codeptr: CodePtr, file: &str, line: u32, function: &str) {
        let f = self.intern_file(file);
        let fun = self.intern_func(function);
        self.exact.insert(codeptr.0, (f, fun, line));
    }

    /// Resolve a code pointer to a source location.
    pub(crate) fn resolve(&self, codeptr: CodePtr) -> Option<SourceLoc> {
        if codeptr.is_null() {
            return None;
        }
        let &(f, fun, line) = self.exact.get(&codeptr.0)?;
        Some(SourceLoc::new(
            self.files[f as usize].clone(),
            line,
            self.functions[fun as usize].clone(),
        ))
    }

    /// Number of registered locations.
    pub(crate) fn len(&self) -> usize {
        self.exact.len()
    }

    /// No registrations?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A synthetic "source file" that allocates code pointers for directive
/// call sites as it registers them — the workload-facing builder.
#[derive(Debug)]
pub struct SourceFile<'a> {
    dbg: &'a mut DebugInfo,
    file: String,
    next_addr: u64,
}

impl<'a> SourceFile<'a> {
    /// Start a file whose code occupies addresses from `base`.
    pub fn new(dbg: &'a mut DebugInfo, file: impl Into<String>, base: u64) -> Self {
        SourceFile {
            dbg,
            file: file.into(),
            next_addr: base,
        }
    }

    /// Allocate a code pointer for a directive at `line` inside
    /// `function`, registering its attribution.
    pub fn line(&mut self, line: u32, function: &str) -> CodePtr {
        let ptr = CodePtr(self.next_addr);
        self.next_addr += 0x10; // one call site's worth of code
        self.dbg.register(ptr, &self.file, line, function);
        ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_resolution() {
        let mut d = DebugInfo::new();
        d.register(CodePtr(0x400100), "bfs.c", 42, "BFSGraph");
        let loc = d.resolve(CodePtr(0x400100)).unwrap();
        assert_eq!(loc.file, "bfs.c");
        assert_eq!(loc.line, 42);
        assert_eq!(loc.function, "BFSGraph");
    }

    #[test]
    fn null_pointer_resolves_to_none() {
        let mut d = DebugInfo::new();
        d.register(CodePtr(0x1), "x.c", 1, "f");
        assert!(d.resolve(CodePtr::NULL).is_none());
    }

    #[test]
    fn source_file_builder_allocates_distinct_ptrs() {
        let mut d = DebugInfo::new();
        let (p1, p2);
        {
            let mut sf = SourceFile::new(&mut d, "hotspot.c", 0x400000);
            p1 = sf.line(120, "compute_tran_temp");
            p2 = sf.line(135, "compute_tran_temp");
        }
        assert_ne!(p1, p2);
        assert_eq!(d.resolve(p1).unwrap().line, 120);
        assert_eq!(d.resolve(p2).unwrap().line, 135);
        assert_eq!(d.resolve(p2).unwrap().file, "hotspot.c");
    }

    #[test]
    fn missing_debug_info_resolves_nothing() {
        let d = DebugInfo::new();
        assert!(d.resolve(CodePtr(0x400100)).is_none());
        assert!(d.is_empty());
    }
}
