//! Traced-run bookkeeping: host-time spans around every call the benchmark
//! makes into a layer, and the simulated counters each layer reports.
//!
//! Spans are plain accumulators kept in memory for the whole run (plus the
//! per-call durations needed for exact percentiles) and turned into metrics
//! once the run ends. A layer's self time is its span minus its child spans;
//! the calls the benchmark times have no timed children except the fleet's
//! parallel section, whose workers report their own spans.

use std::time::Instant;

use ipu_core::flash::{FlashDevice, Nanos};
use ipu_core::ftl::{FtlScheme, FtlStats, OpBatch, ReqStatus, SchemeKind};
use ipu_core::host::ReliabilityStats;
use ipu_core::sim::{EventCore, SimReport};
use ipu_core::trace::{IoRequest, OpKind};

/// Nanoseconds from `a` to `b`.
#[inline]
pub fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Nanoseconds since `a`.
#[inline]
pub fn since(a: Instant) -> u64 {
    ns(a, Instant::now())
}

/// Host time of one kind of FTL call: count, total, and every duration.
#[derive(Debug, Default)]
pub struct Calls {
    pub calls: u64,
    pub ns: u64,
    pub samples: Vec<u32>,
}

impl Calls {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.samples.push(ns.min(u32::MAX as u64) as u32);
    }

    fn absorb(&mut self, mut other: Calls) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.samples.append(&mut other.samples);
    }
}

/// Exact simulated response-time samples of one scheme (ns).
#[derive(Debug)]
pub struct Tail {
    pub scheme: SchemeKind,
    pub samples: Vec<u64>,
}

/// Simulated counters, summed over every cell (and fleet device) of a run.
#[derive(Debug, Default)]
pub struct Model {
    pub ftl: FtlStats,
    pub programs: u64,
    pub partial_programs: u64,
    pub subpages_programmed: u64,
    pub reads: u64,
    pub erases: u64,
    pub disturb_events: u64,
    pub uncorrectable_reads: u64,
    /// Σ per-replay chip utilization, and the number of replays.
    pub util_sum: f64,
    pub util_n: u64,
    pub background_ns: u64,
    pub busy_ns: u64,
    /// Closed-loop admission stalls (arrival → admit).
    pub stall_sum_ns: u128,
    pub stall_n: u64,
    /// Time-weighted queue occupancy: time at full depth, total time.
    pub full_ns: u128,
    pub occupancy_ns: u128,
    pub retries: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub lost: u64,
    pub mirror_ops: u64,
    pub skew_sum: f64,
    pub skew_n: u64,
}

impl Model {
    /// Adds one replay's device-side report on a device of `chips` chips.
    pub fn add_sim(&mut self, r: &SimReport, chips: u32) {
        self.ftl.merge(&r.ftl);
        let d = &r.device;
        self.programs += d.programs;
        self.partial_programs += d.partial_programs;
        self.subpages_programmed += d.subpages_programmed;
        self.reads += d.reads;
        self.erases += d.erases;
        self.disturb_events += d.in_page_disturb_events + d.neighbour_disturb_events;
        self.uncorrectable_reads += d.uncorrectable_reads;
        self.util_sum += r.busy.utilization(chips, r.simulated_horizon_ns);
        self.util_n += 1;
        self.background_ns += r.busy.background_ns;
        self.busy_ns += r.busy.host_write_ns + r.busy.host_read_ns + r.busy.background_ns;
    }
}

/// Everything a traced run measures.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced wall time on the main thread.
    pub wall_ns: u64,
    /// Thread-time available to the run: serial wall plus every worker's
    /// share of the parallel sections. Equal to `wall_ns` when single-threaded.
    pub capacity_ns: u64,
    /// Untraced wall time of the same work, for the tracing overhead.
    pub untraced_wall_ns: u64,
    pub trace_gen_ns: u64,
    pub trace_requests: u64,
    /// `FlashDevice::new` + `SchemeKind::build`.
    pub ftl_build_ns: u64,
    pub write: Calls,
    pub read: Calls,
    pub advance_ns: u64,
    pub dispatch_calls: u64,
    pub dispatch_ns: u64,
    pub finish_ns: u64,
    /// `EventCore::new`, closed-loop arrival lists and report assembly.
    pub report_ns: u64,
    pub bg_rounds: u64,
    pub flash_ops: u64,
    /// `run_closed_loop` wall minus the time inside its service closure.
    pub host_ns: u64,
    pub host_dispatches: u64,
    pub route_ns: u64,
    /// Σ per-device replay wall (thread time).
    pub device_replay_ns: u64,
    /// Σ over fleet runs of the slowest device's replay wall.
    pub device_replay_max_ns: u64,
    pub merge_ns: u64,
    pub tolerance_ns: u64,
    /// Worker thread time inside parallel sections spent on no device.
    pub idle_ns: u64,
    /// Σ threads × parallel-section wall.
    pub parallel_capacity_ns: u64,
    pub tails: Vec<Tail>,
    pub model: Model,
}

impl Layers {
    /// Host time charged to a named layer, all threads.
    pub fn attributed_ns(&self) -> u64 {
        self.trace_gen_ns
            + self.ftl_build_ns
            + self.write.ns
            + self.read.ns
            + self.advance_ns
            + self.dispatch_ns
            + self.finish_ns
            + self.report_ns
            + self.host_ns
            + self.route_ns
            + self.merge_ns
            + self.tolerance_ns
            + self.idle_ns
    }

    /// Folds a worker's spans (one fleet device) into this run's.
    pub fn absorb_device(&mut self, dev: Layers) {
        for mut tail in dev.tails {
            self.tail(tail.scheme).append(&mut tail.samples);
        }
        self.ftl_build_ns += dev.ftl_build_ns;
        self.write.absorb(dev.write);
        self.read.absorb(dev.read);
        self.advance_ns += dev.advance_ns;
        self.dispatch_calls += dev.dispatch_calls;
        self.dispatch_ns += dev.dispatch_ns;
        self.finish_ns += dev.finish_ns;
        self.report_ns += dev.report_ns;
        self.bg_rounds += dev.bg_rounds;
        self.flash_ops += dev.flash_ops;
        self.host_ns += dev.host_ns;
        self.host_dispatches += dev.host_dispatches;
    }

    /// The samples of `scheme`'s response-time tail, created on first use.
    pub fn tail(&mut self, scheme: SchemeKind) -> &mut Vec<u64> {
        if let Some(i) = self.tails.iter().position(|t| t.scheme == scheme) {
            return &mut self.tails[i].samples;
        }
        self.tails.push(Tail {
            scheme,
            samples: Vec::new(),
        });
        &mut self.tails.last_mut().expect("just pushed").samples
    }

    /// One host request through the FTL and the event core — the calls
    /// `ipu_sim::replay` and `replay_closed_loop_detailed` make per request,
    /// in their order — with each layer's call timed. `start` is the instant
    /// the request's FTL span opens; spans abut, so the benchmark's own
    /// per-request bookkeeping lands in the next request's FTL span instead
    /// of between spans. Returns the completion time `EventCore::dispatch`
    /// reports and the instant the dispatch span closed.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        ftl: &mut dyn FtlScheme,
        dev: &mut FlashDevice,
        core: &mut EventCore,
        batch: &mut OpBatch,
        reliability: &mut ReliabilityStats,
        req: &IoRequest,
        now: Nanos,
        start: Instant,
    ) -> (Nanos, Instant) {
        batch.clear();
        match req.op {
            OpKind::Write => ftl.on_write_into(req, now, dev, batch),
            OpKind::Read => ftl.on_read_into(req, now, dev, batch),
        }
        let ftl_done = Instant::now();
        match batch.status {
            ReqStatus::Success => reliability.record_success(),
            ReqStatus::Recovered => reliability.record_recovered(),
            ReqStatus::Failed => reliability.record_failed(),
        }
        core.advance_to(now);
        let advanced = Instant::now();
        let done = core.dispatch(now, batch, req.op);
        let end = Instant::now();
        match req.op {
            OpKind::Write => self.write.record(ns(start, ftl_done)),
            OpKind::Read => self.read.record(ns(start, ftl_done)),
        }
        self.advance_ns += ns(ftl_done, advanced);
        self.dispatch_calls += 1;
        self.dispatch_ns += ns(advanced, end);
        self.bg_rounds += batch.round_origins.len() as u64;
        self.flash_ops += batch.ops.len() as u64;
        (done, end)
    }

    /// Reserves room for `n` more per-call samples, so recording never
    /// reallocates inside a timed loop.
    pub fn reserve(&mut self, n: usize) {
        self.write.samples.reserve(n);
        self.read.samples.reserve(n);
    }
}

/// Nearest-rank percentile `p` (0–100] of `v`; 0 when empty. Reorders `v`.
pub fn percentile<T: Copy + Ord + Default>(v: &mut [T], p: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let k = rank.clamp(1, v.len()) - 1;
    *v.select_nth_unstable(k).1
}
