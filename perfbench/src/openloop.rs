//! Open-loop cells: one scheme replaying the whole trace at its timestamps.

use std::time::Instant;

use ipu_core::flash::FlashDevice;
use ipu_core::ftl::OpBatch;
use ipu_core::host::ReliabilityStats;
use ipu_core::sim::engine::BusyBreakdown;
use ipu_core::sim::{replay, EventCore, ReplayConfig, SimReport};
use ipu_core::trace::IoRequest;

use crate::layers::{since, Layers};
use crate::Cell;

/// Replays `requests` through `ipu_sim::replay`, timing the call.
pub fn cell(cfg: &ReplayConfig, requests: &[IoRequest], trace: &str) -> Cell {
    let start = Instant::now();
    let report = replay(cfg, requests, trace);
    let host_ns = since(start);
    summarize(&report, requests.len() as u64, host_ns)
}

/// The same replay made call by call, each layer's calls timed into `lay`.
/// Mirrors `ipu_sim::replay_with_progress`; the report must come out
/// byte-identical to [`cell`]'s.
pub fn traced_cell(
    cfg: &ReplayConfig,
    requests: &[IoRequest],
    trace: &str,
    lay: &mut Layers,
) -> Cell {
    let start = Instant::now();
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    lay.ftl_build_ns += since(start);

    let t = Instant::now();
    let chips = cfg.device.geometry.total_chips();
    let mut core = EventCore::new(chips, cfg.timing);
    let mut reliability = ReliabilityStats::new();
    let mut batch = OpBatch::new();
    lay.report_ns += since(t);

    let mut latencies = Vec::with_capacity(requests.len());
    lay.reserve(requests.len());
    let mut start = Instant::now();
    for req in requests {
        let now = req.timestamp_ns;
        let (done, end) = lay.step(
            ftl.as_mut(),
            &mut dev,
            &mut core,
            &mut batch,
            &mut reliability,
            req,
            now,
            start,
        );
        latencies.push(done - now);
        start = end;
    }

    let t = Instant::now();
    core.finish();
    lay.finish_ns += since(t);

    let t = Instant::now();
    let mapping = ftl.mapping_memory(&dev);
    let report = SimReport {
        scheme: cfg.scheme,
        trace: trace.to_string(),
        read_latency: core.read_latency().clone(),
        write_latency: core.write_latency().clone(),
        overall_latency: core.overall_latency().clone(),
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: requests.len() as u64,
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    };
    lay.report_ns += since(t);

    lay.model.add_sim(&report, chips);
    // The exact tail must describe the population the report's mean is over.
    let sum: u128 = latencies.iter().map(|&l| l as u128).sum();
    let mut cell = summarize(&report, requests.len() as u64, 0);
    if sum != report.overall_latency.sum_ns() {
        cell.errors.push(format!(
            "{}: dispatch completions sum to {sum} ns, the report to {} ns",
            cfg.scheme.label(),
            report.overall_latency.sum_ns()
        ));
    }
    lay.tail(cfg.scheme).extend(latencies);
    // The host time of a traced cell is not a measurement; only its report is.
    cell
}

/// The cell's simulated output and the checks it must pass.
fn summarize(report: &SimReport, offered: u64, host_ns: u64) -> Cell {
    let completed = report.overall_latency.count();
    let mut errors = Vec::new();
    if report.requests != offered || completed != offered {
        errors.push(format!(
            "{}: {completed} of {offered} offered requests completed (report says {})",
            report.scheme.label(),
            report.requests
        ));
    }
    let d = &report.device;
    Cell {
        scheme: report.scheme,
        json: serde_json::to_string(report).expect("SimReport serializes"),
        offered,
        completed,
        failed: report.reliability.failed,
        lost: 0,
        flash_ops: d.programs + d.reads + d.erases,
        resp_mean_us: report.overall_latency.sum_ns() as f64 / completed.max(1) as f64 / 1e3,
        host_ns,
        errors,
    }
}
