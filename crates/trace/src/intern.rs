//! Code-pointer interning for 24-byte target records.
//!
//! Target constructs repeat a handful of code pointers (one per directive
//! in the source), so the 24-byte record stores a `u32` index into this
//! table instead of the raw 8-byte pointer.

use odp_model::CodePtr;
use std::collections::HashMap;

/// Interning table mapping code pointers to dense `u32` indices.
#[derive(Debug, Default)]
pub struct CodePtrTable {
    by_ptr: HashMap<u64, u32>,
    ptrs: Vec<u64>,
}

impl CodePtrTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `ptr`, returning its stable index.
    pub(crate) fn intern(&mut self, ptr: CodePtr) -> u32 {
        if let Some(&ix) = self.by_ptr.get(&ptr.0) {
            return ix;
        }
        let ix = self.ptrs.len() as u32;
        self.ptrs.push(ptr.0);
        self.by_ptr.insert(ptr.0, ix);
        ix
    }

    /// Resolve an index back to the code pointer.
    pub(crate) fn resolve(&self, ix: u32) -> CodePtr {
        self.ptrs
            .get(ix as usize)
            .map(|&p| CodePtr(p))
            .unwrap_or(CodePtr::NULL)
    }

    /// Number of distinct pointers interned.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }

    /// Approximate heap bytes used by the table (counted toward tool space
    /// overhead).
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.ptrs.capacity() * std::mem::size_of::<u64>()
            + self.by_ptr.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = CodePtrTable::new();
        let a = t.intern(CodePtr(0x100));
        let b = t.intern(CodePtr(0x200));
        assert_ne!(a, b);
        assert_eq!(t.intern(CodePtr(0x100)), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = CodePtrTable::new();
        for p in [0x1u64, 0x42, 0xdead_beef] {
            let ix = t.intern(CodePtr(p));
            assert_eq!(t.resolve(ix), CodePtr(p));
        }
    }

    #[test]
    fn unknown_index_resolves_null() {
        let t = CodePtrTable::new();
        assert_eq!(t.resolve(7), CodePtr::NULL);
    }
}
