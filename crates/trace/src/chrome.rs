//! Chrome-trace-format export (`chrome://tracing` / Perfetto).
//!
//! §8: "OMPDataPerf does not currently provide visualizations of
//! detected issues." This module closes that gap for the reproduction:
//! the event log renders as a Trace Event Format JSON with one lane per
//! device plus a host lane, so data movement, kernels, and their overlap
//! (under `nowait`) can be inspected in any Chrome-trace viewer.
//!
//! Format reference: the "Trace Event Format" document (the `X`
//! complete-event records with `ts`/`dur` in microseconds).

use crate::log::TraceLog;
use odp_model::{DataOpKind, DeviceId, TargetKind};
use serde::Serialize;

/// One Trace Event Format record (complete event, `ph = "X"`).
#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    /// Microseconds.
    ts: f64,
    /// Microseconds.
    dur: f64,
    pid: u32,
    tid: u32,
    args: serde_json::Value,
}

/// Lane (tid) assignment: host = 0, device *n* = n+1.
fn lane(device: DeviceId) -> u32 {
    if device.is_host() {
        0
    } else {
        device.raw() as u32 + 1
    }
}

/// Export the log as Trace Event Format JSON.
pub fn to_chrome_trace(log: &TraceLog) -> String {
    let mut events: Vec<ChromeEvent> = Vec::new();

    for e in log.data_op_events_sorted() {
        let (name, cat) = match e.kind {
            DataOpKind::Transfer => {
                if e.is_host_to_device() {
                    ("H2D transfer".to_string(), "transfer")
                } else if e.is_device_to_host() {
                    ("D2H transfer".to_string(), "transfer")
                } else {
                    ("D2D transfer".to_string(), "transfer")
                }
            }
            DataOpKind::Alloc => ("device alloc".to_string(), "memory"),
            DataOpKind::Delete => ("device free".to_string(), "memory"),
            DataOpKind::Associate => ("associate".to_string(), "memory"),
            DataOpKind::Disassociate => ("disassociate".to_string(), "memory"),
        };
        // Transfers render on the receiving lane; alloc/free on the
        // owning device's lane — both are the destination device.
        let tid = lane(e.dest_device);
        events.push(ChromeEvent {
            name,
            cat,
            ph: "X",
            ts: e.span.start.as_nanos() as f64 / 1e3,
            dur: (e.duration().as_nanos().max(1)) as f64 / 1e3,
            pid: 1,
            tid,
            args: serde_json::json!({
                "bytes": e.bytes,
                "src_addr": format!("0x{:x}", e.src_addr),
                "dest_addr": format!("0x{:x}", e.dest_addr),
                "hash": e.hash.map(|h| h.to_string()),
                "codeptr": format!("0x{:x}", e.codeptr.0),
            }),
        });
    }

    for t in log.target_events_sorted() {
        let cat = match t.kind {
            TargetKind::Kernel => "kernel",
            _ => "construct",
        };
        events.push(ChromeEvent {
            name: t.kind.name().to_string(),
            cat,
            ph: "X",
            ts: t.span.start.as_nanos() as f64 / 1e3,
            dur: (t.span.duration().as_nanos().max(1)) as f64 / 1e3,
            pid: 1,
            tid: lane(t.device),
            args: serde_json::json!({
                "codeptr": format!("0x{:x}", t.codeptr.0),
            }),
        });
    }

    // `total_cmp` keeps the sort total even for non-finite timestamps
    // (`partial_cmp(..).unwrap()` would panic on NaN), and the explicit
    // `(ts, tid)` key pins tie ordering so exports are byte-stable.
    events.sort_by(|a, b| a.ts.total_cmp(&b.ts).then_with(|| a.tid.cmp(&b.tid)));

    #[derive(Serialize)]
    struct Root {
        #[serde(rename = "traceEvents")]
        trace_events: Vec<ChromeEvent>,
        #[serde(rename = "displayTimeUnit")]
        display_time_unit: &'static str,
    }
    // Invariant, not event data: `Root` is built from plain
    // serializable types; serialization cannot fail.
    #[allow(clippy::expect_used)]
    serde_json::to_string_pretty(&Root {
        trace_events: events,
        display_time_unit: "ns",
    })
    .expect("chrome trace serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{CodePtr, SimTime, TimeSpan};

    fn sample() -> TraceLog {
        let mut log = TraceLog::new();
        log.record_data_op(
            DataOpKind::Alloc,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1000,
            0xd000,
            64,
            None,
            TimeSpan::new(SimTime(0), SimTime(100)),
            CodePtr(0x1),
        );
        log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1000,
            0xd000,
            64,
            Some(42),
            TimeSpan::new(SimTime(100), SimTime(300)),
            CodePtr(0x2),
        );
        log.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            TimeSpan::new(SimTime(300), SimTime(900)),
            CodePtr(0x3),
        );
        log
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let json = to_chrome_trace(&sample());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 3);
        for e in evs {
            assert_eq!(e["ph"], "X");
            assert!(e["dur"].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn lanes_separate_host_and_devices() {
        let json = to_chrome_trace(&sample());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let tids: Vec<u64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        // Everything here lands on device 0's lane (tid 1).
        assert!(tids.iter().all(|&t| t == 1));
        assert_eq!(lane(DeviceId::HOST), 0);
        assert_eq!(lane(DeviceId::target(3)), 4);
    }

    #[test]
    fn events_are_time_sorted() {
        let json = to_chrome_trace(&sample());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let ts: Vec<f64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["ts"].as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn simultaneous_events_tie_break_by_lane() {
        // Two events at the same timestamp on different lanes: the
        // export must order them by tid, not by record order, so the
        // output is deterministic regardless of collection interleaving.
        let mut log = TraceLog::new();
        for dev in [2u32, 0, 1] {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(dev),
                0x1000,
                0xd000,
                64,
                Some(7),
                TimeSpan::new(SimTime(100), SimTime(200)),
                CodePtr(0x1),
            );
        }
        let json = to_chrome_trace(&log);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let tids: Vec<u64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids, vec![1, 2, 3], "ties ordered by lane");
    }

    #[test]
    fn repeated_exports_are_byte_identical() {
        let log = sample();
        assert_eq!(to_chrome_trace(&log), to_chrome_trace(&log));
    }

    #[test]
    fn kernel_category() {
        let json = to_chrome_trace(&sample());
        assert!(json.contains("\"cat\": \"kernel\""));
        assert!(json.contains("H2D transfer"));
    }
}
