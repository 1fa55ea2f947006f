//! The virtual-time cost model.
//!
//! Calibrated to the paper's testbed shape: an NVIDIA A100-PCIE-40GB
//! behind PCIe gen4 ×16. What matters for the reproduction is the *curve
//! shape* the paper leans on in Figure 5 ("data transfers have higher
//! startup costs and require substantially larger data volumes to achieve
//! peak throughput") and in the prediction experiments (savings are sums
//! of event durations produced by this model).

use odp_model::SimDuration;
use serde::Serialize;

/// Host↔device transfer cost: `latency + bytes / bandwidth`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TransferModel {
    /// Fixed per-transfer startup latency, ns (driver + DMA setup).
    pub latency_ns: u64,
    /// Steady-state bandwidth in bytes per nanosecond (= GB/s decimal).
    pub bytes_per_ns: f64,
}

impl TransferModel {
    /// PCIe gen4 ×16 effective host→device (~21 GB/s, ~9 µs setup).
    pub fn pcie_gen4_h2d() -> Self {
        TransferModel {
            latency_ns: 9_000,
            bytes_per_ns: 21.0,
        }
    }

    /// PCIe gen4 ×16 effective device→host (~19 GB/s, ~10 µs setup).
    pub(crate) fn pcie_gen4_d2h() -> Self {
        TransferModel {
            latency_ns: 10_000,
            bytes_per_ns: 19.0,
        }
    }

    /// Duration of a transfer of `bytes`.
    pub(crate) fn duration(&self, bytes: u64) -> SimDuration {
        let flight = (bytes as f64 / self.bytes_per_ns).round() as u64;
        SimDuration(self.latency_ns + flight)
    }

    /// Effective throughput in GB/s for a transfer of `bytes` (used for
    /// Figure 5's "Data Transfer" series).
    pub fn effective_gb_per_s(&self, bytes: u64) -> f64 {
        let d = self.duration(bytes).as_nanos();
        if d == 0 {
            return 0.0;
        }
        bytes as f64 / d as f64
    }
}

/// Device allocation/deallocation cost.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct AllocModel {
    /// Fixed cost of an allocation, ns (cuMemAlloc-like).
    pub alloc_base_ns: u64,
    /// Additional cost per MiB allocated, ns.
    pub alloc_per_mib_ns: u64,
    /// Fixed cost of a free, ns.
    pub free_base_ns: u64,
}

impl AllocModel {
    /// CUDA-like defaults.
    pub(crate) fn cuda_like() -> Self {
        AllocModel {
            alloc_base_ns: 8_000,
            alloc_per_mib_ns: 350,
            free_base_ns: 4_000,
        }
    }

    /// Duration of an allocation of `bytes`.
    pub(crate) fn alloc_duration(&self, bytes: u64) -> SimDuration {
        SimDuration(self.alloc_base_ns + (bytes >> 20) * self.alloc_per_mib_ns)
    }

    /// Duration of a free.
    pub(crate) fn free_duration(&self) -> SimDuration {
        SimDuration(self.free_base_ns)
    }
}

/// The full per-device timing model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TimingModel {
    /// Host→device transfers.
    pub h2d: TransferModel,
    /// Device→host transfers.
    pub d2h: TransferModel,
    /// Allocation/free costs.
    pub alloc: AllocModel,
    /// Fixed kernel-launch overhead, ns.
    pub kernel_launch_ns: u64,
    /// Host-side time to reach and enter a directive's runtime call, ns.
    /// Nonzero so consecutive events never share exact timestamps (real
    /// traces never tie; Algorithms 4/5 compare interval endpoints).
    pub host_dispatch_ns: u64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            h2d: TransferModel::pcie_gen4_h2d(),
            d2h: TransferModel::pcie_gen4_d2h(),
            alloc: AllocModel::cuda_like(),
            kernel_launch_ns: 6_000,
            host_dispatch_ns: 300,
        }
    }
}

impl TimingModel {
    /// Transfer duration for the given direction.
    pub(crate) fn transfer_duration(&self, bytes: u64, to_device: bool) -> SimDuration {
        if to_device {
            self.h2d.duration(bytes)
        } else {
            self.d2h.duration(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_transfers() {
        let m = TransferModel::pcie_gen4_h2d();
        let tiny = m.duration(64);
        let big = m.duration(1 << 30);
        assert!(tiny.as_nanos() >= m.latency_ns);
        assert!(tiny.as_nanos() < m.latency_ns + 100);
        // 1 GiB at 21 B/ns ≈ 51 ms ≫ latency.
        assert!(big.as_nanos() > 50_000_000);
    }

    #[test]
    fn effective_throughput_rises_with_size() {
        // The Figure-5 shape: small transfers are latency-bound, large
        // ones approach the asymptotic bandwidth.
        let m = TransferModel::pcie_gen4_h2d();
        let small = m.effective_gb_per_s(64);
        let mid = m.effective_gb_per_s(1 << 20);
        let large = m.effective_gb_per_s(1 << 28);
        assert!(small < 0.01, "64 B is startup-dominated: {small}");
        assert!(mid > 1.0);
        assert!(large > 20.0 && large <= 21.0);
        assert!(small < mid && mid < large);
    }

    #[test]
    fn alloc_scales_with_size() {
        let a = AllocModel::cuda_like();
        assert!(a.alloc_duration(64) < a.alloc_duration(64 << 20));
        assert_eq!(a.free_duration(), SimDuration(4_000));
    }

    #[test]
    fn directionality() {
        let t = TimingModel::default();
        // H2D slightly faster than D2H on this link, as configured.
        assert!(t.transfer_duration(1 << 24, true) < t.transfer_duration(1 << 24, false));
    }
}
