//! Host and device memory spaces holding real bytes.
//!
//! Host variables are `Vec<u8>` buffers with stable synthetic virtual
//! addresses; device allocations are `Vec<u8>` buffers at addresses handed
//! out by the per-device [`crate::alloc::FreeListAllocator`]. Transfers
//! `memcpy` between them, which is what makes content hashing — and hence
//! the duplicate/round-trip detectors — honest rather than modeled.

use crate::alloc::FreeListAllocator;
use std::collections::HashMap;
use std::num::NonZeroU64;

/// Handle to a host variable (a mapped array or scalar).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A named host buffer.
#[derive(Debug)]
pub(crate) struct HostVar {
    /// Variable name (for reports and debug info).
    pub name: String,
    /// Synthetic host virtual address.
    pub addr: u64,
    /// The actual bytes.
    pub data: Vec<u8>,
    /// The latest tracked write to the variable.
    written: HostCopy,
}

/// The host's copy of a variable, named by the latest write to it
/// (`MIN`: none yet): equal stamps mean no write in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HostCopy(NonZeroU64);

/// The host memory space.
#[derive(Debug, Default)]
pub(crate) struct HostMemory {
    vars: Vec<HostVar>,
    next_addr: u64,
    /// Writes counted so far; `None` while nothing needs to know.
    pub(crate) writes: Option<u64>,
}

/// Base of the synthetic host heap (stack/heap-looking addresses). Every
/// `HostMemory` starts here, so the arrays of a threaded run's runtimes
/// share host addresses in the merged trace.
const HOST_BASE: u64 = 0x7f40_0000_0000;

impl HostMemory {
    /// Empty host memory.
    pub(crate) fn new() -> Self {
        HostMemory {
            vars: Vec::new(),
            next_addr: HOST_BASE,
            writes: None,
        }
    }

    /// Allocate a zero-initialized host variable of `bytes`.
    pub(crate) fn alloc(&mut self, name: &str, bytes: usize) -> VarId {
        let addr = self.next_addr;
        // 64-byte-aligned, cache-line style.
        self.next_addr += ((bytes as u64).max(1) + 63) & !63;
        let id = VarId(self.vars.len() as u32);
        self.vars.push(HostVar {
            name: name.to_string(),
            addr,
            data: vec![0u8; bytes],
            written: HostCopy(NonZeroU64::MIN),
        });
        id
    }

    /// The variable's metadata.
    pub(crate) fn var(&self, id: VarId) -> &HostVar {
        &self.vars[id.0 as usize]
    }

    /// Mutable access to the variable's bytes, counted as a write.
    pub(crate) fn bytes_mut(&mut self, id: VarId) -> &mut [u8] {
        let var = &mut self.vars[id.0 as usize];
        if let Some(count) = &mut self.writes {
            *count += 1;
            var.written = HostCopy(NonZeroU64::MIN.saturating_add(*count));
        }
        &mut var.data
    }

    /// The variable's current host copy (`None`: writes go untracked).
    pub(crate) fn copy(&self, id: VarId) -> Option<HostCopy> {
        self.writes.map(|_| self.vars[id.0 as usize].written)
    }

    /// Shared access to the variable's bytes.
    pub(crate) fn bytes(&self, id: VarId) -> &[u8] {
        &self.vars[id.0 as usize].data
    }

    /// Host address of the variable.
    pub(crate) fn addr(&self, id: VarId) -> u64 {
        self.vars[id.0 as usize].addr
    }

    /// Size of the variable in bytes.
    pub(crate) fn size(&self, id: VarId) -> u64 {
        self.vars[id.0 as usize].data.len() as u64
    }

    /// Look a variable up by name (first match).
    pub(crate) fn by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }
}

/// One device's memory space.
#[derive(Debug)]
pub(crate) struct DeviceMemory {
    allocator: FreeListAllocator,
    buffers: HashMap<u64, Vec<u8>>,
}

/// Device address-space stride: device *n* owns `[DEV_BASE + n·2^40, …)`.
const DEV_BASE: u64 = 0xd000_0000_0000;
const DEV_STRIDE: u64 = 1 << 40;

impl DeviceMemory {
    /// Memory for target device `index` with `capacity` bytes (e.g. 40 GB
    /// for an A100-40GB).
    pub(crate) fn new(index: u32, capacity: u64) -> Self {
        DeviceMemory {
            allocator: FreeListAllocator::new(DEV_BASE + index as u64 * DEV_STRIDE, capacity),
            buffers: HashMap::new(),
        }
    }

    /// Allocate `bytes`, returning the device address.
    pub(crate) fn alloc(&mut self, bytes: u64) -> Option<u64> {
        let addr = self.allocator.alloc(bytes)?;
        self.buffers.insert(addr, vec![0u8; bytes as usize]);
        Some(addr)
    }

    /// Free the allocation at `addr`.
    pub(crate) fn free(&mut self, addr: u64) -> bool {
        if self.allocator.free(addr).is_some() {
            self.buffers.remove(&addr);
            true
        } else {
            false
        }
    }

    /// Mutable buffer at `addr`.
    pub(crate) fn bytes_mut(&mut self, addr: u64) -> Option<&mut Vec<u8>> {
        self.buffers.get_mut(&addr)
    }

    /// Move the buffer at `addr` out, leaving an unallocated `Vec` in its
    /// slot until [`DeviceMemory::restore`] puts it back: a kernel holds
    /// its buffers without a second allocation of their size.
    pub(crate) fn lend(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.buffers.get_mut(&addr).map(std::mem::take)
    }

    /// Put a lent buffer back at `addr`; dropped if `addr` holds no
    /// allocation.
    pub(crate) fn restore(&mut self, addr: u64, buf: Vec<u8>) {
        if let Some(slot) = self.buffers.get_mut(&addr) {
            *slot = buf;
        }
    }

    /// Peak bytes allocated on this device.
    #[cfg(test)]
    pub(crate) fn peak_in_use(&self) -> u64 {
        self.allocator.peak_in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_vars_have_distinct_stable_addresses() {
        let mut h = HostMemory::new();
        let a = h.alloc("a", 100);
        let b = h.alloc("b", 100);
        assert_ne!(h.addr(a), h.addr(b));
        assert_eq!(h.var(a).name, "a");
        assert_eq!(h.size(a), 100);
    }

    #[test]
    fn host_bytes_are_real() {
        let mut h = HostMemory::new();
        let a = h.alloc("a", 8);
        h.bytes_mut(a).copy_from_slice(&42u64.to_le_bytes());
        assert_eq!(u64::from_le_bytes(h.bytes(a).try_into().unwrap()), 42);
    }

    #[test]
    fn a_host_copy_changes_with_each_write_to_its_address() {
        let mut h = HostMemory::new();
        let (a, b) = (h.alloc("a", 8), h.alloc("b", 8));
        h.bytes_mut(a)[0] = 1;
        assert_eq!(h.copy(a), None, "untracked");
        h.writes = Some(0);
        let before = h.copy(a);
        assert!(before.is_some(), "tracked from here");
        h.bytes_mut(b)[0] = 1;
        assert_eq!(h.copy(a), before, "another variable's write");
        h.bytes_mut(a)[0] = 1;
        let written = h.copy(a);
        assert_ne!(written, before, "a write, even of the same bytes");
        h.bytes_mut(a)[0] = 1;
        assert_ne!(h.copy(a), written, "every write is a new copy");
        let c = h.alloc("c", 8);
        assert_eq!(h.copy(c), before, "a fresh variable is unwritten");
    }

    #[test]
    fn device_spaces_do_not_collide() {
        let mut d0 = DeviceMemory::new(0, 1 << 20);
        let mut d1 = DeviceMemory::new(1, 1 << 20);
        let p0 = d0.alloc(64).unwrap();
        let p1 = d1.alloc(64).unwrap();
        assert_ne!(p0, p1);
        assert!(p1 > p0);
    }

    #[test]
    fn device_buffer_lifecycle() {
        let mut d = DeviceMemory::new(0, 1 << 20);
        let p = d.alloc(16).unwrap();
        d.bytes_mut(p).unwrap()[0] = 7;
        assert_eq!(d.bytes_mut(p).unwrap()[0], 7);
        assert!(d.free(p));
        assert!(d.bytes_mut(p).is_none());
        assert!(!d.free(p), "double free rejected");
    }

    #[test]
    fn a_lent_buffer_returns_as_the_same_allocation() {
        let mut d = DeviceMemory::new(0, 1 << 20);
        let p = d.alloc(4096).unwrap();
        let mut buf = d.lend(p).unwrap();
        let slot = d.bytes_mut(p).unwrap();
        assert_eq!((slot.len(), slot.capacity()), (0, 0), "an unallocated slot");
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        assert!(cap >= 4096);
        buf[0] = 9;
        d.restore(p, buf);
        let slot = d.bytes_mut(p).unwrap();
        assert_eq!((slot.as_ptr(), slot.capacity()), (ptr, cap));
        assert_eq!(slot[0], 9);
        assert!(d.lend(p + 1).is_none(), "no allocation there");
        d.restore(p + 1, vec![1; 8]);
        assert!(d.bytes_mut(p + 1).is_none(), "restore creates no slot");
    }

    #[test]
    fn zero_sized_vars_work() {
        let mut h = HostMemory::new();
        let a = h.alloc("empty", 0);
        let b = h.alloc("next", 8);
        assert_ne!(h.addr(a), h.addr(b));
        assert_eq!(h.size(a), 0);
    }
}
