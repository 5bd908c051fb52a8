//! The repository's benchmark: runs one named workload for a fixed host time,
//! checks the simulated outputs, and reports end-to-end metrics (untraced)
//! or per-layer metrics (traced).
//!
//! *Host* numbers are the simulator's own wall time; *sim* numbers are the
//! modelled device's time. The traced mode makes the program's calls itself,
//! through public APIs only, with a timer around each call into a layer —
//! and proves it ran the same program by comparing every report byte for
//! byte with the untraced run's.

pub mod fleet;
pub mod layers;
pub mod openloop;
pub mod workload;

use std::time::Instant;

use ipu_core::ftl::SchemeKind;
use ipu_core::trace::IoRequest;
use ipu_core::ExperimentConfig;

use layers::{percentile, since, Layers};
use workload::{Shape, Workload, SCHEMES};

/// One scheme's run over the whole workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scheme: SchemeKind,
    /// The simulated output, byte for byte: the `SimReport` JSON, or the
    /// `FleetReport` JSON followed by every device's `ClosedLoopReport`.
    pub json: String,
    pub offered: u64,
    pub completed: u64,
    /// Requests that failed (`ReqStatus::Failed`) or were lost by the fleet.
    pub failed: u64,
    /// Of `failed`, requests the fleet lost.
    pub lost: u64,
    /// Simulated flash programs + reads + erases.
    pub flash_ops: u64,
    /// Simulated mean response time, exact (`sum / count`).
    pub resp_mean_us: f64,
    /// Host time of the untraced call; 0 for traced cells.
    pub host_ns: u64,
    /// Correctness checks this cell failed.
    pub errors: Vec<String>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Host seconds to spend on measured passes (at least one pass runs).
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Every failed correctness check.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Metric-name suffix of a scheme.
pub fn scheme_key(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Baseline => "baseline",
        SchemeKind::Mga => "mga",
        SchemeKind::Ipu => "ipu",
        SchemeKind::IpuPlus => "ipu_plus",
    }
}

/// FNV-1a 64 of every cell's simulated output, in scheme order.
pub fn digest(cells: &[Cell]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        for &b in cell.json.as_bytes().iter().chain(b"\n") {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Errors for every cell whose traced output differs from the untraced one.
pub fn compare(untraced: &[Cell], traced: &[Cell]) -> Vec<String> {
    if untraced.len() != traced.len() {
        return vec![format!(
            "traced run produced {} cells, untraced {}",
            traced.len(),
            untraced.len()
        )];
    }
    untraced
        .iter()
        .zip(traced)
        .filter(|(u, t)| u.json != t.json)
        .map(|(u, t)| {
            let at = u
                .json
                .bytes()
                .zip(t.json.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(u.json.len().min(t.json.len()));
            format!(
                "{}: traced report differs from the untraced one at byte {at}",
                u.scheme.label()
            )
        })
        .collect()
}

/// Every scheme of `w` over `requests`, untraced or (with `lay`) traced.
pub fn run_cells(
    w: &Workload,
    cfg: &ExperimentConfig,
    seed: u64,
    requests: &[IoRequest],
    mut lay: Option<&mut Layers>,
) -> Vec<Cell> {
    let trace = w.trace.name();
    let spec = (w.shape == Shape::Fleet).then(|| w.fleet_spec(seed));
    SCHEMES
        .iter()
        .map(|&scheme| match (&spec, lay.as_deref_mut()) {
            (None, None) => openloop::cell(&cfg.replay_config(scheme), requests, trace),
            (None, Some(l)) => {
                openloop::traced_cell(&cfg.replay_config(scheme), requests, trace, l)
            }
            (Some(s), None) => fleet::cell(cfg, scheme, trace, requests, s),
            (Some(s), Some(l)) => fleet::traced_cell(cfg, scheme, trace, requests, s, l),
        })
        .collect()
}

/// Median of `v` (lower middle for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Runs workload `w` as `opts` asks.
pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![
            format!(
                "workload {} seed {} seconds {} trace {}",
                w.name, opts.seed, opts.seconds, opts.trace as u8
            ),
            format!("why: {}", w.why),
        ],
        errors: Vec::new(),
    };
    out.notes
        .extend(w.notes.iter().map(|n| format!("note: {n}")));
    let cfg = w.config();
    let first = if opts.trace {
        run_traced(w, &cfg, opts, &mut out)
    } else {
        run_untraced(w, &cfg, opts, &mut out)
    };

    for c in &first {
        out.notes.push(format!(
            "cell {}: {} requests, {} failed ({} lost), resp_mean_us {:.3}, flash ops {}",
            c.scheme.label(),
            c.completed,
            c.failed,
            c.lost,
            c.resp_mean_us,
            c.flash_ops
        ));
    }
    out.notes.push(format!(
        "digest fnv1a64 {:016x} (simulated outputs of every cell; a speed-only change keeps it)",
        digest(&first)
    ));
    out.notes.push(format!(
        "failed_ops_frac {} ({} of {} offered)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out.correct = out.errors.is_empty();
    out
}

/// Replaces `requests` with a fresh synthesis of `w`'s trace; returns the
/// seconds the synthesis took. The old trace is freed first, so only one is
/// alive at a time.
fn synthesize(w: &Workload, seed: u64, requests: &mut Vec<IoRequest>) -> f64 {
    drop(std::mem::take(requests));
    let t = Instant::now();
    *requests = w.requests(seed);
    since(t) as f64 / 1e9
}

/// Untraced mode: measured passes until the time is up, each but the first
/// on a freshly synthesized (and timed) input.
fn run_untraced(
    w: &Workload,
    cfg: &ExperimentConfig,
    opts: &Options,
    out: &mut Outcome,
) -> Vec<Cell> {
    // Set-up is trace synthesis. The first synthesis is not timed: it runs
    // while the CPU is still ramping up after process start. Timing one
    // synthesis before each later pass spreads the set-up samples over the
    // whole run.
    let mut requests = Vec::new();
    synthesize(w, opts.seed, &mut requests);
    let mut setup = Vec::new();

    let mut first: Vec<Cell> = Vec::new();
    let mut first_digest = 0;
    let mut ops_per_s = Vec::new();
    let mut ns_per_op = Vec::new();
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        if !first.is_empty() {
            setup.push(synthesize(w, opts.seed, &mut requests));
        }
        let cells = run_cells(w, cfg, opts.seed, &requests, None);
        let round_s = round_start.elapsed().as_secs_f64();

        let host_ns: u64 = cells.iter().map(|c| c.host_ns).sum();
        let completed: u64 = cells.iter().map(|c| c.completed).sum();
        let flash_ops: u64 = cells.iter().map(|c| c.flash_ops).sum();
        ops_per_s.push(completed as f64 * 1e9 / host_ns.max(1) as f64);
        ns_per_op.push(host_ns as f64 / flash_ops.max(1) as f64);
        absorb(out, &cells);
        let d = digest(&cells);
        if first.is_empty() {
            first = cells;
            first_digest = d;
        } else if d != first_digest {
            out.errors.push(format!(
                "pass {} simulated outputs differ from pass 1 (digest {d:016x} vs {first_digest:016x})",
                ops_per_s.len()
            ));
        }
        if started.elapsed().as_secs_f64() + round_s > opts.seconds {
            break;
        }
    }
    while setup.len() < 5 {
        setup.push(synthesize(w, opts.seed, &mut requests));
    }

    out.notes.push(format!(
        "measured passes {}: sim_ops_per_s {:?}",
        ops_per_s.len(),
        ops_per_s.iter().map(|v| v.round()).collect::<Vec<_>>()
    ));
    out.metrics
        .push(metric("sim_ops_per_s", "1/s", median(&ops_per_s)));
    out.metrics
        .push(metric("host_ns_per_flash_op", "ns", median(&ns_per_op)));
    out.notes.push(format!(
        "set-up: {} trace syntheses, median {:.4} s",
        setup.len(),
        median(&setup)
    ));
    out.metrics.push(metric("setup_s", "s", median(&setup)));
    out.metrics
        .push(metric("peak_rss_mib", "MiB", peak_rss_mib()));
    for c in &first {
        out.metrics.push(metric(
            format!("resp_mean_us.{}", scheme_key(c.scheme)),
            "us",
            c.resp_mean_us,
        ));
    }
    first
}

/// Traced mode: pairs of (untraced, traced) passes, each including trace
/// synthesis, until the time is up; per-layer metrics come from the traced
/// pass of median wall time.
fn run_traced(
    w: &Workload,
    cfg: &ExperimentConfig,
    opts: &Options,
    out: &mut Outcome,
) -> Vec<Cell> {
    let mut first: Vec<Cell> = Vec::new();
    let mut passes: Vec<(u64, Vec<Metric>)> = Vec::new();
    let started = Instant::now();
    loop {
        let pair_start = Instant::now();
        let t = Instant::now();
        let requests = w.requests(opts.seed);
        let untraced = run_cells(w, cfg, opts.seed, &requests, None);
        let untraced_wall_ns = since(t);
        drop(requests);

        let mut lay = Layers {
            untraced_wall_ns,
            ..Layers::default()
        };
        let t = Instant::now();
        let requests = w.requests(opts.seed);
        lay.trace_gen_ns = since(t);
        lay.trace_requests = requests.len() as u64;
        let traced = run_cells(w, cfg, opts.seed, &requests, Some(&mut lay));
        lay.wall_ns = since(t);
        lay.capacity_ns += lay.wall_ns;
        drop(requests);

        out.errors.extend(compare(&untraced, &traced));
        absorb(out, &traced);
        passes.push((lay.wall_ns, layer_metrics(&mut lay)));
        if first.is_empty() {
            first = untraced;
        }
        if started.elapsed().as_secs_f64() + pair_start.elapsed().as_secs_f64() > opts.seconds {
            break;
        }
    }
    passes.sort_by_key(|p| p.0);
    let (_, metrics) = passes.swap_remove((passes.len() - 1) / 2);
    out.notes
        .push(format!("traced passes {}", passes.len() + 1));
    out.metrics = metrics;
    first
}

/// Adds a pass's offered/failed counts and check failures to the outcome.
fn absorb(out: &mut Outcome, cells: &[Cell]) {
    for c in cells {
        out.attempted += c.offered;
        out.failed += c.failed;
        out.errors.extend(c.errors.iter().cloned());
    }
}

/// Per-layer metrics of one traced pass.
pub fn layer_metrics(lay: &mut Layers) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = &lay.model;
    let f = &m.ftl;
    let mut v = vec![
        metric("trace.gen_s", "s", s(lay.trace_gen_ns)),
        metric("trace.requests", "count", lay.trace_requests as f64),
        metric("ftl.build_s", "s", s(lay.ftl_build_ns)),
    ];
    for (name, calls) in [("write", &mut lay.write), ("read", &mut lay.read)] {
        v.push(metric(
            format!("ftl.{name}.calls"),
            "count",
            calls.calls as f64,
        ));
        v.push(metric(format!("ftl.{name}.self_s"), "s", s(calls.ns)));
        v.push(metric(
            format!("ftl.{name}.p50_ns"),
            "ns",
            percentile(&mut calls.samples, 50.0) as f64,
        ));
        v.push(metric(
            format!("ftl.{name}.p99_ns"),
            "ns",
            percentile(&mut calls.samples, 99.0) as f64,
        ));
    }
    let host_subpages = (f.host_subpages_to_slc + f.host_subpages_to_mlc) as f64;
    v.extend([
        metric(
            "ftl.gc_rounds",
            "count",
            (f.gc_runs_slc + f.gc_runs_mlc) as f64,
        ),
        metric("ftl.gc_moved_subpages", "count", f.gc_moved_subpages as f64),
        metric(
            "ftl.gc_reclaim_ratio",
            "ratio",
            if f.gc_victim_total_subpages == 0 {
                0.0
            } else {
                1.0 - f.gc_moved_subpages as f64 / f.gc_victim_total_subpages as f64
            },
        ),
        metric(
            "ftl.ipu_hit_ratio",
            "ratio",
            ratio(f.intra_page_updates as f64, f.host_write_requests as f64),
        ),
        metric(
            "ftl.write_amp",
            "ratio",
            ratio(m.subpages_programmed as f64, host_subpages),
        ),
        metric("flash.programs", "count", m.programs as f64),
        metric("flash.partial_programs", "count", m.partial_programs as f64),
        metric("flash.reads", "count", m.reads as f64),
        metric("flash.erases", "count", m.erases as f64),
        metric("flash.disturb_events", "count", m.disturb_events as f64),
        metric(
            "flash.uncorrectable_reads",
            "count",
            m.uncorrectable_reads as f64,
        ),
        metric(
            "flash.read_rber_mean",
            "ratio",
            ratio(f.host_read_rber_sum, f.host_subpages_read as f64),
        ),
        metric("sim.advance.self_s", "s", s(lay.advance_ns)),
        metric("sim.dispatch.calls", "count", lay.dispatch_calls as f64),
        metric("sim.dispatch.self_s", "s", s(lay.dispatch_ns)),
        metric("sim.finish_s", "s", s(lay.finish_ns)),
        metric("sim.report_s", "s", s(lay.report_ns)),
        metric("sim.bg_rounds", "count", lay.bg_rounds as f64),
        metric("sim.flash_ops", "count", lay.flash_ops as f64),
        metric("sim.chip_util", "ratio", ratio(m.util_sum, m.util_n as f64)),
        metric(
            "sim.bg_busy_frac",
            "ratio",
            ratio(m.background_ns as f64, m.busy_ns as f64),
        ),
    ]);
    let samples = lay.tails.iter().map(|t| t.samples.len()).min().unwrap_or(0);
    v.push(metric("sim.resp_samples", "count", samples as f64));
    for &scheme in &SCHEMES {
        let tail = lay.tail(scheme);
        let p50 = percentile(tail, 50.0) as f64 / 1e3;
        let p999 = percentile(tail, 99.9) as f64 / 1e3;
        let key = scheme_key(scheme);
        v.push(metric(format!("sim.resp_p50_us.{key}"), "us", p50));
        v.push(metric(format!("sim.resp_p999_us.{key}"), "us", p999));
    }
    let m = &lay.model;
    let unattributed = lay.capacity_ns.saturating_sub(lay.attributed_ns());
    v.extend([
        metric("host.self_s", "s", s(lay.host_ns)),
        metric("host.dispatches", "count", lay.host_dispatches as f64),
        metric(
            "host.admit_stall_mean_us",
            "us",
            ratio(m.stall_sum_ns as f64, m.stall_n as f64) / 1e3,
        ),
        metric(
            "host.queue_full_frac",
            "ratio",
            ratio(m.full_ns as f64, m.occupancy_ns as f64),
        ),
        metric("fleet.route_s", "s", s(lay.route_ns)),
        metric("fleet.device_replay_s", "s", s(lay.device_replay_ns)),
        metric(
            "fleet.device_replay_max_s",
            "s",
            s(lay.device_replay_max_ns),
        ),
        metric("fleet.merge_s", "s", s(lay.merge_ns)),
        metric("fleet.tolerance_s", "s", s(lay.tolerance_ns)),
        metric("fleet.retries", "count", m.retries as f64),
        metric("fleet.timeouts", "count", m.timeouts as f64),
        metric("fleet.failovers", "count", m.failovers as f64),
        metric("fleet.lost", "count", m.lost as f64),
        metric("fleet.mirror_ops", "count", m.mirror_ops as f64),
        metric(
            "fleet.load_skew",
            "ratio",
            ratio(m.skew_sum, m.skew_n as f64),
        ),
        metric(
            "core.parallel_eff",
            "ratio",
            ratio(lay.device_replay_ns as f64, lay.parallel_capacity_ns as f64),
        ),
        metric("core.idle_s", "s", s(lay.idle_ns)),
        metric("unattributed_s", "s", s(unattributed)),
        metric(
            "trace_coverage_frac",
            "ratio",
            1.0 - ratio(unattributed as f64, lay.capacity_ns as f64),
        ),
        metric(
            "trace_overhead_frac",
            "ratio",
            ratio(lay.wall_ns as f64, lay.untraced_wall_ns as f64) - 1.0,
        ),
    ]);
    v
}
