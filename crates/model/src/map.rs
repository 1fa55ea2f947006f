//! OpenMP `map` clause semantics (paper §2.2).
//!
//! `map` clauses control the implicit data environment of `target` regions:
//! whether data is copied to the device on entry (`to`), back to the host on
//! exit (`from`), both (`tofrom`), merely allocated (`alloc`), or removed
//! (`delete`/`release`). What one clause does to one entry of libomptarget's
//! reference-counted present table is stated once, as the transition
//! [`MapType::enter`] / [`MapType::exit`] returning a [`MapStep`]. The
//! simulator (`odp_sim::Runtime`) and the static analyzer's abstract
//! executor (`odp_static`) both step it; neither decides a refcount,
//! `always`, last-reference or `delete` rule of its own.

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
    fn allocates(self) -> bool {
        matches!(
            self,
            MapType::To | MapType::From | MapType::ToFrom | MapType::Alloc
        )
    }

    /// This clause on a region-entry path, against an entry whose
    /// reference count is `refcount` (`None`: the data is absent).
    /// Absent data is allocated, and copied in for `to`/`tofrom`;
    /// `release`/`delete` of absent data does nothing and reports it.
    /// Present data gains a reference, and is copied in again only under
    /// `always`.
    #[inline]
    pub fn enter(self, refcount: Option<u32>, always: bool) -> MapStep {
        match refcount {
            None if !self.allocates() => MapStep {
                absent: true,
                ..MapStep::default()
            },
            None => MapStep {
                alloc: true,
                to: self.copies_to_device(),
                refcount: Some(1),
                ..MapStep::default()
            },
            Some(n) => MapStep {
                to: always && self.copies_to_device(),
                refcount: Some(n + 1),
                ..MapStep::default()
            },
        }
    }

    /// This clause on a region-exit path, against an entry whose
    /// reference count is `refcount` (`None`: the data is absent, which
    /// is reported). `delete` drops every reference, any other type one;
    /// the entry is freed when none is left. `from`/`tofrom` data is
    /// copied back when the last reference goes, or on every exit under
    /// `always`.
    #[inline]
    pub fn exit(self, refcount: Option<u32>, always: bool) -> MapStep {
        let Some(n) = refcount else {
            return MapStep {
                absent: true,
                ..MapStep::default()
            };
        };
        let last = self == MapType::Delete || n <= 1;
        MapStep {
            from: self.copies_from_device() && (always || last),
            free: last,
            refcount: if last { None } else { Some(n - 1) },
            ..MapStep::default()
        }
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

/// What one map clause does to one present-table entry: the data
/// operations to perform, in runtime order (`alloc` then `to` on entry,
/// `from` then `free` on exit), and the entry's reference count after
/// the clause. Returned by [`MapType::enter`] and [`MapType::exit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapStep {
    /// The clause needs present data and found none (a runtime warning);
    /// nothing else happens.
    pub absent: bool,
    /// Allocate device memory for a new entry.
    pub alloc: bool,
    /// Copy host → device.
    pub to: bool,
    /// Copy device → host.
    pub from: bool,
    /// Free the device memory and remove the entry.
    pub free: bool,
    /// The reference count after the clause; `None` when no entry is
    /// left.
    pub refcount: Option<u32>,
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

    /// A step as the table below spells it: the operations in runtime
    /// order, space-separated, then `-> refcount` (`-> none`).
    fn spell(step: MapStep) -> String {
        let ops = [
            (step.absent, "absent"),
            (step.alloc, "alloc"),
            (step.to, "to"),
            (step.from, "from"),
            (step.free, "free"),
        ];
        let mut out: Vec<String> = ops
            .iter()
            .filter(|(on, _)| *on)
            .map(|(_, name)| name.to_string())
            .collect();
        out.push(match step.refcount {
            Some(n) => format!("-> {n}"),
            None => "-> none".into(),
        });
        out.join(" ")
    }

    /// Every map type × `always` × refcount {absent, 1, 2}, on entry and
    /// on exit, with the expected step written out. Nested regions keep
    /// their data until the outermost exit (Listing 1's fix); `delete`
    /// frees whatever the count; `release`/`delete` of absent data is
    /// reported and does nothing else.
    #[test]
    fn the_clause_transition_table() {
        use MapType::*;
        #[rustfmt::skip]
        let table: [(MapType, bool, Option<u32>, &str, &str); 36] = [
            // type, always, refcount before, enter, exit
            (To, false, None, "alloc to -> 1", "absent -> none"),
            (To, false, Some(1), "-> 2", "free -> none"),
            (To, false, Some(2), "-> 3", "-> 1"),
            (To, true, None, "alloc to -> 1", "absent -> none"),
            (To, true, Some(1), "to -> 2", "free -> none"),
            (To, true, Some(2), "to -> 3", "-> 1"),
            (From, false, None, "alloc -> 1", "absent -> none"),
            (From, false, Some(1), "-> 2", "from free -> none"),
            (From, false, Some(2), "-> 3", "-> 1"),
            (From, true, None, "alloc -> 1", "absent -> none"),
            (From, true, Some(1), "-> 2", "from free -> none"),
            (From, true, Some(2), "-> 3", "from -> 1"),
            (ToFrom, false, None, "alloc to -> 1", "absent -> none"),
            (ToFrom, false, Some(1), "-> 2", "from free -> none"),
            (ToFrom, false, Some(2), "-> 3", "-> 1"),
            (ToFrom, true, None, "alloc to -> 1", "absent -> none"),
            (ToFrom, true, Some(1), "to -> 2", "from free -> none"),
            (ToFrom, true, Some(2), "to -> 3", "from -> 1"),
            (Alloc, false, None, "alloc -> 1", "absent -> none"),
            (Alloc, false, Some(1), "-> 2", "free -> none"),
            (Alloc, false, Some(2), "-> 3", "-> 1"),
            (Alloc, true, None, "alloc -> 1", "absent -> none"),
            (Alloc, true, Some(1), "-> 2", "free -> none"),
            (Alloc, true, Some(2), "-> 3", "-> 1"),
            (Release, false, None, "absent -> none", "absent -> none"),
            (Release, false, Some(1), "-> 2", "free -> none"),
            (Release, false, Some(2), "-> 3", "-> 1"),
            (Release, true, None, "absent -> none", "absent -> none"),
            (Release, true, Some(1), "-> 2", "free -> none"),
            (Release, true, Some(2), "-> 3", "-> 1"),
            (Delete, false, None, "absent -> none", "absent -> none"),
            (Delete, false, Some(1), "-> 2", "free -> none"),
            (Delete, false, Some(2), "-> 3", "free -> none"),
            (Delete, true, None, "absent -> none", "absent -> none"),
            (Delete, true, Some(1), "-> 2", "free -> none"),
            (Delete, true, Some(2), "-> 3", "free -> none"),
        ];
        for (mt, always, before, enter, exit) in table {
            let row = format!("{mt} always={always} refcount={before:?}");
            assert_eq!(spell(mt.enter(before, always)), enter, "enter {row}");
            assert_eq!(spell(mt.exit(before, always)), exit, "exit {row}");
        }
    }

    #[test]
    fn keywords_match_spec() {
        assert_eq!(MapType::ToFrom.to_string(), "tofrom");
        assert_eq!(MapType::Alloc.to_string(), "alloc");
    }
}
