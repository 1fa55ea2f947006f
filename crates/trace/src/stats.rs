//! Aggregate trace statistics used by reports and the space-overhead
//! experiment.

use odp_model::{DataOpKind, DeviceId, SimDuration};
use serde::Serialize;

/// Space accounting (Figure 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SpaceStats {
    /// Number of 72-byte data-op records.
    pub data_op_records: usize,
    /// Number of 24-byte target records.
    pub target_records: usize,
    /// Bytes occupied by records (72·data_ops + 24·targets).
    pub record_bytes: usize,
    /// Peak heap bytes allocated by the log (chunk capacity + intern
    /// table) — the number Figure 3 plots.
    pub peak_alloc_bytes: usize,
}

impl SpaceStats {
    /// Mean space-overhead accumulation rate in bytes/second of program
    /// time (§7.4 reports KB/s).
    pub fn rate_bytes_per_sec(&self, total_time: SimDuration) -> f64 {
        let secs = total_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.record_bytes as f64 / secs
    }
}

/// Aggregate event statistics for a trace.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct TraceStats {
    /// Number of transfer events.
    pub transfers: usize,
    /// ... of which host→device.
    pub h2d_transfers: usize,
    /// ... of which device→host.
    pub d2h_transfers: usize,
    /// Number of device allocations.
    pub allocs: usize,
    /// Number of device deallocations.
    pub deletes: usize,
    /// Number of kernel launches.
    pub kernels: usize,
    /// Total bytes moved by transfers.
    pub bytes_transferred: u64,
    /// Total bytes allocated on devices.
    pub bytes_allocated: u64,
    /// Cumulative transfer time.
    pub transfer_time: SimDuration,
    /// Cumulative allocation/deallocation time.
    pub alloc_time: SimDuration,
    /// Cumulative kernel execution time.
    pub kernel_time: SimDuration,
    /// Program total execution time.
    pub total_time: SimDuration,
}

impl TraceStats {
    /// Account one data operation.
    pub(crate) fn add_op(
        &mut self,
        kind: DataOpKind,
        src: DeviceId,
        dest: DeviceId,
        bytes: u64,
        duration: SimDuration,
    ) {
        match kind {
            DataOpKind::Transfer => {
                self.transfers += 1;
                self.bytes_transferred += bytes;
                self.transfer_time += duration;
                if src.is_host() && dest.is_target() {
                    self.h2d_transfers += 1;
                } else if src.is_target() && dest.is_host() {
                    self.d2h_transfers += 1;
                }
            }
            DataOpKind::Alloc => {
                self.allocs += 1;
                self.bytes_allocated += bytes;
                self.alloc_time += duration;
            }
            DataOpKind::Delete => {
                self.deletes += 1;
                self.alloc_time += duration;
            }
            _ => {}
        }
    }

    /// Account one kernel execution.
    pub(crate) fn add_kernel(&mut self, duration: SimDuration) {
        self.kernels += 1;
        self.kernel_time += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_computation() {
        let ss = SpaceStats {
            data_op_records: 1000,
            target_records: 0,
            record_bytes: 72_000,
            peak_alloc_bytes: 300_000,
        };
        let rate = ss.rate_bytes_per_sec(SimDuration::from_millis(500));
        assert!((rate - 144_000.0).abs() < 1e-6);
        assert_eq!(ss.rate_bytes_per_sec(SimDuration::ZERO), 0.0);
    }
}
