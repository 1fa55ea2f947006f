//! Kernel specifications and the device-side view kernels execute
//! against.
//!
//! Kernels serve two purposes in the reproduction. (1) Their submit
//! begin/end events are the `target_events` input of Algorithms 4/5.
//! (2) Their *bodies* run real compute against device buffers, so the
//! content of mapped data evolves the way it would on a GPU — a written
//! array's hash changes, an untouched array's does not — which is what
//! the duplicate/round-trip detectors key on.

use crate::memory::VarId;
use odp_model::SimDuration;

/// Infallible fixed-width copies for the typed accessors (`chunks_exact`
/// guarantees the width).
#[inline]
pub(crate) fn le4(c: &[u8]) -> [u8; 4] {
    let mut b = [0u8; 4];
    b.copy_from_slice(c);
    b
}

/// See [`le4`].
#[inline]
pub(crate) fn le8(c: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    b.copy_from_slice(c);
    b
}

/// Cost model for one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelCost {
    /// Fixed execution time, ns.
    pub fixed_ns: u64,
    /// Work items (threads × iterations) — scaled by `ns_per_item`.
    pub work_items: u64,
    /// Per-work-item cost in ns (fractional; GPUs retire many per ns).
    pub ns_per_item: f64,
}

impl KernelCost {
    /// A fixed-duration kernel.
    pub fn fixed(ns: u64) -> Self {
        KernelCost {
            fixed_ns: ns,
            work_items: 0,
            ns_per_item: 0.0,
        }
    }

    /// A kernel whose duration scales with its work-item count.
    ///
    /// `ns_per_item` defaults to 0.01 ns/item (≈ 10^11 lightweight items/s,
    /// an A100-like throughput for memory-light loops) via
    /// [`KernelCost::scaled`].
    pub(crate) fn items(work_items: u64, ns_per_item: f64) -> Self {
        KernelCost {
            fixed_ns: 0,
            work_items,
            ns_per_item,
        }
    }

    /// `items` with the default A100-like per-item cost.
    pub fn scaled(work_items: u64) -> Self {
        Self::items(work_items, 0.01)
    }

    /// Total execution duration (excluding launch overhead, which the
    /// runtime's timing model adds).
    pub(crate) fn duration(&self) -> SimDuration {
        SimDuration(self.fixed_ns + (self.work_items as f64 * self.ns_per_item).round() as u64)
    }
}

/// A device-side view over the buffers of the variables a kernel may
/// access. Handed to kernel bodies.
pub struct DeviceView<'a> {
    /// Each variable's buffer, and whether the body took it through
    /// [`DeviceView::bytes_mut`]: what it may have written.
    pub(crate) vars: Vec<(VarId, &'a mut Vec<u8>, bool)>,
}

impl<'a> DeviceView<'a> {
    /// Raw bytes of `var`'s device buffer.
    pub fn bytes(&self, var: VarId) -> &[u8] {
        self.vars
            .iter()
            .find(|(v, _, _)| *v == var)
            .map(|(_, b, _)| b.as_slice())
            .unwrap_or_else(|| panic!("kernel accessed unmapped var {var:?}"))
    }

    /// Mutable raw bytes of `var`'s device buffer.
    pub fn bytes_mut(&mut self, var: VarId) -> &mut Vec<u8> {
        self.vars
            .iter_mut()
            .find(|(v, _, _)| *v == var)
            .map(|(_, b, written)| {
                *written = true;
                &mut **b
            })
            .unwrap_or_else(|| panic!("kernel accessed unmapped var {var:?}"))
    }

    /// Read the buffer as `f64`s (copy).
    pub fn read_f64(&self, var: VarId) -> Vec<f64> {
        self.bytes(var)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(le8(c)))
            .collect()
    }

    /// Overwrite the buffer from `f64`s.
    pub fn write_f64(&mut self, var: VarId, values: &[f64]) {
        let buf = self.bytes_mut(var);
        assert_eq!(buf.len(), values.len() * 8, "size mismatch writing f64s");
        for (chunk, v) in buf.chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read the buffer as `f32`s (copy).
    pub fn read_f32(&self, var: VarId) -> Vec<f32> {
        self.bytes(var)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(le4(c)))
            .collect()
    }

    /// Overwrite the buffer from `f32`s.
    pub fn write_f32(&mut self, var: VarId, values: &[f32]) {
        let buf = self.bytes_mut(var);
        assert_eq!(buf.len(), values.len() * 4, "size mismatch writing f32s");
        for (chunk, v) in buf.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read the buffer as `u32`s (copy).
    pub fn read_u32(&self, var: VarId) -> Vec<u32> {
        self.bytes(var)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(le4(c)))
            .collect()
    }

    /// Overwrite the buffer from `u32`s.
    pub fn write_u32(&mut self, var: VarId, values: &[u32]) {
        let buf = self.bytes_mut(var);
        assert_eq!(buf.len(), values.len() * 4, "size mismatch writing u32s");
        for (chunk, v) in buf.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read a single little-endian `u32` scalar (index in u32 units).
    pub fn scalar_u32(&self, var: VarId, index: usize) -> u32 {
        let b = self.bytes(var);
        u32::from_le_bytes(le4(&b[index * 4..index * 4 + 4]))
    }

    /// Write a single `u32` scalar.
    pub fn set_scalar_u32(&mut self, var: VarId, index: usize, value: u32) {
        let b = self.bytes_mut(var);
        b[index * 4..index * 4 + 4].copy_from_slice(&value.to_le_bytes());
    }
}

/// The kernel body type: real compute against device buffers.
pub(crate) type KernelBody<'a> = &'a mut dyn FnMut(&mut DeviceView<'_>);

/// Specification of one kernel launch.
pub struct Kernel<'a> {
    /// Kernel name (reports, debug info).
    pub name: &'a str,
    /// Variables the kernel reads (used for implicit mapping and by the
    /// Arbalest baseline's instrumentation feed — never by OMPDataPerf's
    /// detectors, which are deliberately access-blind, §5).
    pub reads: Vec<VarId>,
    /// Variables the kernel writes.
    pub writes: Vec<VarId>,
    /// Variables the kernel writes through vector-masked stores (still
    /// writes, but instrumentation-based tools cannot prove no lane
    /// reads them — see `odp_ompt::KernelAccessInfo::masked_writes`).
    pub masked_writes: Vec<VarId>,
    /// Execution cost.
    pub cost: KernelCost,
    /// Optional real body. When absent the runtime applies a default
    /// deterministic mutation to every written buffer so content hashes
    /// still evolve.
    pub body: Option<KernelBody<'a>>,
    /// Requested number of teams (reported through OMPT).
    pub num_teams: u32,
}

impl<'a> Kernel<'a> {
    /// A kernel with the given name and cost.
    pub fn new(name: &'a str, cost: KernelCost) -> Self {
        Kernel {
            name,
            reads: Vec::new(),
            writes: Vec::new(),
            masked_writes: Vec::new(),
            cost,
            body: None,
            num_teams: 0,
        }
    }

    /// Declare read variables.
    pub fn reads(mut self, vars: &[VarId]) -> Self {
        self.reads.extend_from_slice(vars);
        self
    }

    /// Declare written variables.
    pub fn writes(mut self, vars: &[VarId]) -> Self {
        self.writes.extend_from_slice(vars);
        self
    }

    /// Declare variables written through vector-masked stores.
    pub fn masked_writes(mut self, vars: &[VarId]) -> Self {
        self.masked_writes.extend_from_slice(vars);
        self
    }

    /// Attach a real body.
    pub fn body(mut self, body: KernelBody<'a>) -> Self {
        self.body = Some(body);
        self
    }

    /// Set the requested team count.
    pub fn teams(mut self, n: u32) -> Self {
        self.num_teams = n;
        self
    }

    /// All variables the kernel references (reads ∪ writes ∪ masked
    /// writes, stable order, deduplicated).
    pub(crate) fn referenced_vars(&self) -> Vec<VarId> {
        let mut out =
            Vec::with_capacity(self.reads.len() + self.writes.len() + self.masked_writes.len());
        for &v in self
            .reads
            .iter()
            .chain(self.writes.iter())
            .chain(self.masked_writes.iter())
        {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models() {
        assert_eq!(KernelCost::fixed(500).duration(), SimDuration(500));
        assert_eq!(KernelCost::items(1000, 1.0).duration(), SimDuration(1000));
        assert_eq!(
            KernelCost::scaled(1_000_000).duration(),
            SimDuration(10_000)
        );
    }

    #[test]
    fn referenced_vars_dedup_preserves_order() {
        let k = Kernel::new("k", KernelCost::fixed(1))
            .reads(&[VarId(1), VarId(2)])
            .writes(&[VarId(2), VarId(3)]);
        assert_eq!(k.referenced_vars(), vec![VarId(1), VarId(2), VarId(3)]);
    }

    #[test]
    fn device_view_typed_access() {
        let mut buf = vec![0u8; 16];
        let mut view = DeviceView {
            vars: vec![(VarId(0), &mut buf, false)],
        };
        view.write_f64(VarId(0), &[1.5, -2.0]);
        assert_eq!(view.read_f64(VarId(0)), vec![1.5, -2.0]);
        view.set_scalar_u32(VarId(0), 0, 42);
        assert_eq!(view.scalar_u32(VarId(0), 0), 42);
        assert!(view.vars[0].2, "taken mutably");
    }

    #[test]
    #[should_panic(expected = "unmapped var")]
    fn device_view_panics_on_unmapped_access() {
        let view = DeviceView { vars: vec![] };
        let _ = view.bytes(VarId(9));
    }
}
