//! Fleet cells: one scheme serving the tenants on every device, closed loop.

use std::time::Instant;

use ipu_core::flash::FlashDevice;
use ipu_core::ftl::{OpBatch, SchemeKind};
use ipu_core::host::{run_closed_loop, HostConfig, LatencyStats, ReliabilityStats, TenantSpec};
use ipu_core::sim::engine::BusyBreakdown;
use ipu_core::sim::{ClosedLoopReport, EventCore, ReplayConfig, SimReport};
use ipu_core::trace::{IoRequest, OpKind};
use ipu_core::{parallel_map, ExperimentConfig};
use ipu_fleet::{
    route_replicated, run_fleet_detailed, run_tolerance, synthesize_tenants, DeviceAssignment,
    DeviceProfile, FleetReport, FleetSpec, LogicalRequest, MergeContext, ReplicationPolicy,
};

use crate::layers::{ns, since, Layers};
use crate::Cell;

/// Runs the fleet through `ipu_fleet::run_fleet_detailed`, timing the call.
pub fn cell(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    trace: &str,
    base: &[IoRequest],
    spec: &FleetSpec,
) -> Cell {
    let start = Instant::now();
    let (report, per_device) = run_fleet_detailed(cfg, scheme, trace, base, spec);
    let host_ns = since(start);
    summarize(scheme, &report, &per_device, base.len() as u64, host_ns)
}

/// The same fleet run made call by call — route, per-device
/// `run_closed_loop` with a timed service closure over `parallel_map`,
/// `merge_with`, then the tolerance pass. Mirrors `run_fleet_detailed` and
/// `replay_closed_loop_detailed`; the reports must come out byte-identical
/// to [`cell`]'s.
pub fn traced_cell(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    trace: &str,
    base: &[IoRequest],
    spec: &FleetSpec,
    lay: &mut Layers,
) -> Cell {
    let t = Instant::now();
    let assignments = route_replicated(
        spec.policy,
        synthesize_tenants(base, spec.tenants),
        spec.devices,
        spec.replication,
    );
    let tolerance = spec.tolerance_active();
    let primary_streams: Vec<usize> = assignments.iter().map(|a| a.workloads.len()).collect();
    let primary_ops: Vec<Vec<Vec<OpKind>>> = if tolerance {
        assignments
            .iter()
            .map(|a| {
                a.workloads
                    .iter()
                    .map(|w| w.iter().map(|r| r.op).collect())
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let replay_cfg = cfg.replay_config(scheme);
    let indexed: Vec<(usize, DeviceAssignment)> = assignments.into_iter().enumerate().collect();
    lay.route_ns += since(t);

    let threads = cfg.effective_threads().clamp(1, indexed.len().max(1));
    let t = Instant::now();
    let mut per_device_detailed = parallel_map(indexed, threads, |(device, assignment)| {
        let start = Instant::now();
        let out = traced_device(&replay_cfg, spec, trace, device, assignment);
        out.map(|(report, outcomes, dev_lay)| (report, outcomes, dev_lay, since(start)))
    });
    let parallel_ns = since(t);

    let mut device_wall_sum = 0;
    let mut device_wall_max = 0;
    for (_, _, dev_lay, wall) in per_device_detailed.iter_mut().flatten() {
        lay.absorb_device(std::mem::take(dev_lay));
        device_wall_sum += *wall;
        device_wall_max = device_wall_max.max(*wall);
    }
    lay.device_replay_ns += device_wall_sum;
    lay.device_replay_max_ns += device_wall_max;
    lay.parallel_capacity_ns += threads as u64 * parallel_ns;
    lay.idle_ns += (threads as u64 * parallel_ns).saturating_sub(device_wall_sum);
    // Worker threads add their share of the parallel section to the run's
    // thread time; the main thread's share is already in its wall.
    lay.capacity_ns += (threads as u64 - 1) * parallel_ns;

    let t = Instant::now();
    let per_device: Vec<Option<ClosedLoopReport>> = per_device_detailed
        .iter()
        .map(|slot| slot.as_ref().map(|(r, ..)| r.clone()))
        .collect();
    let ctx = MergeContext {
        replication: spec.replication.label().to_string(),
        fault_plan: spec.fault_plan.label(),
        primary_streams: (spec.replication != ReplicationPolicy::None)
            .then(|| primary_streams.clone()),
    };
    let mut report = FleetReport::merge_with(
        scheme.label(),
        trace,
        spec.policy,
        spec.tenants,
        spec.queue_depth,
        &per_device,
        &ctx,
    );
    lay.merge_ns += since(t);

    if tolerance {
        let t = Instant::now();
        let mut requests: Vec<LogicalRequest> = Vec::with_capacity(base.len());
        let mut profiles = vec![DeviceProfile::default(); spec.devices];
        for (device, slot) in per_device_detailed.iter().enumerate() {
            let Some((rep, outcomes, ..)) = slot else {
                continue;
            };
            profiles[device].mean_service_ns = rep.host.overall_service_latency().mean_ns() as u64;
            let primary_n = primary_streams[device];
            for o in outcomes.iter().filter(|o| o.tenant < primary_n) {
                requests.push(LogicalRequest {
                    device,
                    arrival_ns: o.arrival_ns,
                    admit_ns: o.admit_ns,
                    dispatch_ns: o.dispatch_ns,
                    completion_ns: o.completion_ns,
                    is_read: primary_ops[device][o.tenant][o.seq] == OpKind::Read,
                });
            }
        }
        let mut outcome = run_tolerance(
            &spec.fault_plan,
            spec.replication,
            &spec.health,
            spec.devices,
            &mut requests,
            &profiles,
        );
        outcome.reliability.replica_write_ops =
            report.per_device.iter().map(|d| d.mirror_ops).sum();
        report.apply_tolerance(&outcome);
        lay.tolerance_ns += since(t);
    }

    let chips = replay_cfg.device.geometry.total_chips();
    for rep in per_device.iter().flatten() {
        lay.model.add_sim(&rep.sim, chips);
        let m = &mut lay.model;
        m.stall_sum_ns += rep.queue_latency.sum_ns();
        m.stall_n += rep.queue_latency.count();
        for t in &rep.host.tenants {
            m.full_ns += t.occupancy.levels().last().copied().unwrap_or(0);
            m.occupancy_ns += t.occupancy.total_ns();
        }
    }
    let m = &mut lay.model;
    if let Some(fr) = &report.fleet_reliability {
        m.retries += fr.retries;
        m.timeouts += fr.timeouts;
        m.failovers += fr.failovers;
        m.lost += fr.lost;
    }
    m.mirror_ops += report.per_device.iter().map(|d| d.mirror_ops).sum::<u64>();
    m.skew_sum += report.load.skew;
    m.skew_n += 1;
    // The host time of a traced cell is not a measurement; only its reports are.
    summarize(scheme, &report, &per_device, base.len() as u64, 0)
}

/// One device's closed-loop replay, call by call: the body of
/// `run_fleet_detailed`'s worker closure with `replay_closed_loop_detailed`
/// inlined. Returns the report, the outcome log and the device's spans.
fn traced_device(
    replay_cfg: &ReplayConfig,
    spec: &FleetSpec,
    trace: &str,
    device: usize,
    assignment: DeviceAssignment,
) -> Option<(
    ClosedLoopReport,
    Vec<ipu_core::host::RequestOutcome>,
    Layers,
)> {
    if assignment.tenant_ids.is_empty() && assignment.mirror_ids.is_empty() {
        return None;
    }
    let tenants: Vec<TenantSpec> = assignment
        .tenant_ids
        .iter()
        .map(|t| TenantSpec::new(format!("t{t}")))
        .chain(
            assignment
                .mirror_ids
                .iter()
                .map(|t| TenantSpec::new(format!("m{t}"))),
        )
        .collect();
    let host = HostConfig::new(spec.queue_depth, spec.arbitration, tenants);
    let mut cfg = replay_cfg.clone();
    cfg.device = spec.fault_plan.device_config(&replay_cfg.device, device);
    let workloads: Vec<Vec<IoRequest>> = assignment
        .workloads
        .into_iter()
        .chain(assignment.mirror_workloads)
        .collect();

    let mut lay = Layers::default();
    let t = Instant::now();
    let mut dev = FlashDevice::new(cfg.device.clone());
    let mut ftl = cfg.scheme.build(&mut dev, cfg.ftl.clone());
    lay.ftl_build_ns += since(t);

    let t = Instant::now();
    let mut core = EventCore::new(cfg.device.geometry.total_chips(), cfg.timing);
    let mut reliability = ReliabilityStats::new();
    let arrivals: Vec<Vec<u64>> = workloads
        .iter()
        .map(|w| w.iter().map(|r| r.timestamp_ns).collect())
        .collect();
    let mut batch = OpBatch::new();
    lay.report_ns += since(t);

    let requests: usize = workloads.iter().map(Vec::len).sum();
    let mut latencies = Vec::with_capacity(requests);
    lay.reserve(requests);
    let mut service_ns = 0;
    let t = Instant::now();
    // The service closure's time is its FTL, advance and dispatch spans;
    // recording the completion after the last span counts as host time.
    let (host_report, outcomes) = run_closed_loop(&host, &arrivals, |tenant, seq, dispatch| {
        let entered = Instant::now();
        let mut req = workloads[tenant][seq];
        req.timestamp_ns = dispatch;
        let (done, end) = lay.step(
            ftl.as_mut(),
            &mut dev,
            &mut core,
            &mut batch,
            &mut reliability,
            &req,
            dispatch,
            entered,
        );
        latencies.push(done - dispatch);
        service_ns += ns(entered, end);
        done
    });
    let closed_loop_ns = since(t);
    lay.host_ns += closed_loop_ns.saturating_sub(service_ns);
    lay.host_dispatches += latencies.len() as u64;

    let t = Instant::now();
    core.finish();
    lay.finish_ns += since(t);

    let t = Instant::now();
    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    let mut overall_latency = LatencyStats::new();
    let mut queue_latency = LatencyStats::new();
    for o in &outcomes {
        let latency = o.completion_ns - o.admit_ns;
        overall_latency.record(latency);
        queue_latency.record(o.admit_ns - o.arrival_ns);
        match workloads[o.tenant][o.seq].op {
            OpKind::Read => read_latency.record(latency),
            OpKind::Write => write_latency.record(latency),
        }
    }
    let mapping = ftl.mapping_memory(&dev);
    let sim = SimReport {
        scheme: cfg.scheme,
        trace: trace.to_string(),
        read_latency,
        write_latency,
        overall_latency,
        ftl: ftl.stats().clone(),
        device: dev.counters(),
        wear: dev.wear().totals(),
        mapping,
        simulated_horizon_ns: core.horizon(),
        requests: outcomes.len() as u64,
        busy: BusyBreakdown {
            host_write_ns: core.host_busy(),
            host_read_ns: core.read_busy(),
            background_ns: core.background_done(),
        },
        reliability,
    };
    let report = ClosedLoopReport {
        sim,
        host: host_report,
        queue_latency,
    };
    lay.report_ns += since(t);
    lay.tail(cfg.scheme).extend(latencies);
    Some((report, outcomes, lay))
}

/// The fleet's simulated output and the ledger checks it must pass.
fn summarize(
    scheme: SchemeKind,
    report: &FleetReport,
    per_device: &[Option<ClosedLoopReport>],
    offered: u64,
    host_ns: u64,
) -> Cell {
    let mut errors = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            errors.push(format!("{}: {what}", scheme.label()));
        }
    };
    let logical: u64 = report.per_device.iter().map(|d| d.ops - d.mirror_ops).sum();
    check(
        logical == report.total_ops,
        format!(
            "Σ(ops − mirror_ops) {logical} != total_ops {}",
            report.total_ops
        ),
    );
    check(
        report.total_ops == offered,
        format!(
            "{} of {offered} offered requests completed",
            report.total_ops
        ),
    );
    let lost = match &report.fleet_reliability {
        Some(fr) => {
            check(
                fr.logical_ops == offered && fr.logical_ops == fr.acked + fr.lost,
                format!(
                    "offered {offered}, logical {} != acked {} + lost {}",
                    fr.logical_ops, fr.acked, fr.lost
                ),
            );
            check(
                fr.acked == fr.clean + fr.recovered,
                format!(
                    "acked {} != clean {} + recovered {}",
                    fr.acked, fr.clean, fr.recovered
                ),
            );
            fr.lost
        }
        None => {
            check(false, "the tolerance pass did not run".to_string());
            0
        }
    };
    for (d, rep) in per_device.iter().enumerate() {
        if let Some(rep) = rep {
            check(
                rep.sim.requests == report.per_device[d].ops,
                format!(
                    "device {d} completed {} of {} routed requests",
                    rep.sim.requests, report.per_device[d].ops
                ),
            );
        }
    }

    let mut json = serde_json::to_string(report).expect("FleetReport serializes");
    let mut flash_ops = 0;
    for rep in per_device.iter().flatten() {
        json.push('\n');
        json.push_str(&serde_json::to_string(rep).expect("ClosedLoopReport serializes"));
        let d = &rep.sim.device;
        flash_ops += d.programs + d.reads + d.erases;
    }
    let e2e = &report.e2e_latency;
    Cell {
        scheme,
        json,
        offered,
        completed: report.total_ops,
        failed: report.reliability.failed + lost,
        lost,
        flash_ops,
        resp_mean_us: e2e.sum_ns() as f64 / e2e.count().max(1) as f64 / 1e3,
        host_ns,
        errors,
    }
}
