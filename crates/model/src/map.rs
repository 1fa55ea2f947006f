//! OpenMP `map` clause semantics (paper §2.2).
//!
//! `map` clauses control the implicit data environment of `target` regions:
//! whether data is copied to the device on entry (`to`), back to the host on
//! exit (`from`), both (`tofrom`), merely allocated (`alloc`), or removed
//! (`delete`/`release`). The simulator executes these semantics against its
//! reference-counted present table, mirroring LLVM's `libomptarget`.

use serde::Serialize;
use std::fmt;

/// The map type of an OpenMP `map` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum MapType {
    /// `map(to: ...)` — copy host→device on region entry.
    To,
    /// `map(from: ...)` — copy device→host on region exit.
    From,
    /// `map(tofrom: ...)` — both directions. The default for implicitly
    /// mapped aggregates.
    ToFrom,
    /// `map(alloc: ...)` — allocate on the device without copying.
    Alloc,
    /// `map(release: ...)` — decrement the reference count on exit-data.
    Release,
    /// `map(delete: ...)` — force the reference count to zero and free.
    Delete,
}

impl MapType {
    /// Does entering a region with this map type copy data to the device
    /// (when the data was not already present)?
    #[inline]
    pub fn copies_to_device(self) -> bool {
        matches!(self, MapType::To | MapType::ToFrom)
    }

    /// Does exiting a region with this map type copy data back to the host
    /// (when the reference count drops to zero)?
    #[inline]
    pub fn copies_from_device(self) -> bool {
        matches!(self, MapType::From | MapType::ToFrom)
    }

    /// Does this map type allocate device memory on entry when absent?
    #[inline]
    pub fn allocates(self) -> bool {
        matches!(
            self,
            MapType::To | MapType::From | MapType::ToFrom | MapType::Alloc
        )
    }

    /// OpenMP source spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            MapType::To => "to",
            MapType::From => "from",
            MapType::ToFrom => "tofrom",
            MapType::Alloc => "alloc",
            MapType::Release => "release",
            MapType::Delete => "delete",
        }
    }
}

impl fmt::Display for MapType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Map-type modifiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub struct MapModifier {
    /// `always` modifier: perform the copy even if the data is already
    /// present on the device.
    pub always: bool,
}

impl MapModifier {
    /// No modifiers.
    pub const NONE: MapModifier = MapModifier { always: false };
    /// The `always` modifier.
    pub const ALWAYS: MapModifier = MapModifier { always: true };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directionality() {
        assert!(MapType::To.copies_to_device());
        assert!(!MapType::To.copies_from_device());
        assert!(MapType::From.copies_from_device());
        assert!(!MapType::From.copies_to_device());
        assert!(MapType::ToFrom.copies_to_device() && MapType::ToFrom.copies_from_device());
        assert!(!MapType::Alloc.copies_to_device() && !MapType::Alloc.copies_from_device());
    }

    #[test]
    fn allocation_rules() {
        for mt in [MapType::To, MapType::From, MapType::ToFrom, MapType::Alloc] {
            assert!(mt.allocates(), "{mt} should allocate when absent");
        }
        for mt in [MapType::Release, MapType::Delete] {
            assert!(!mt.allocates(), "{mt} should not allocate");
        }
    }

    #[test]
    fn keywords_match_spec() {
        assert_eq!(MapType::ToFrom.to_string(), "tofrom");
        assert_eq!(MapType::Alloc.to_string(), "alloc");
    }
}
