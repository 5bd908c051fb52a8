//! The benchmark's workloads: which calibrated trace, at which scale, through
//! which entry point, and why each one was chosen.

use ipu_core::ftl::SchemeKind;
use ipu_core::host::ArbitrationPolicy;
use ipu_core::trace::{IoRequest, PaperTrace, TraceGenerator};
use ipu_core::{scaled_spec, ExperimentConfig};
use ipu_fleet::{FleetFaultPlan, FleetSpec, ReplicationPolicy, ShardPolicy};

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Open loop: requests issue at their trace timestamps through
    /// `ipu_sim::replay`, one scheme cell after another on one thread.
    OpenLoop,
    /// Closed loop: full-rate tenants hash-routed onto a fleet through
    /// `ipu_fleet::run_fleet_detailed`.
    Fleet,
}

/// Devices in the fleet workload.
pub const FLEET_DEVICES: usize = 8;
/// Tenants synthesized from the fleet workload's trace.
pub const FLEET_TENANTS: usize = 64;
/// Per-tenant queue depth on each fleet device.
pub const FLEET_QUEUE_DEPTH: usize = 2;
/// Worker threads replaying fleet devices in parallel.
pub const FLEET_THREADS: usize = 2;
/// Fault plan of the fleet workload: one device turns 4× slower halfway
/// through. A slow primary is never lost, so no request fails on any seed;
/// the retry, failover and health paths of the tolerance pass still run.
pub const FLEET_FAULT_PLAN: &str = "failslow:1x4@0.5";

/// Every scheme, in report order. Each workload runs all four so that every
/// workload reports every `resp_mean_us.<scheme>` metric.
pub const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::Mga,
    SchemeKind::Ipu,
    SchemeKind::IpuPlus,
];

/// One named benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub trace: PaperTrace,
    /// Fraction of the trace's published request count; the device scales
    /// with it (`ExperimentConfig::scaled`).
    pub scale: f64,
    pub shape: Shape,
    /// A seed kept out of tuning: a later claim must also hold on it.
    pub heldout_seed: u64,
    /// Printed with every run.
    pub notes: &'static [&'static str],
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["ts0-gc", "lun2-read", "fleet-mirror"];

impl Workload {
    /// The workload called `name`, at its measured size.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            "ts0-gc" => Workload {
                name: "ts0-gc",
                why: "82% writes with 50% hot updates fill the SLC cache and run ~6k GC rounds \
                      inside FTL writes: placement, victim choice and relocation dominate",
                trace: PaperTrace::Ts0,
                scale: 0.1,
                shape: Shape::OpenLoop,
                heldout_seed: 20_211_001,
                notes: &[
                    "open loop, trace timestamps; SLC cache starts empty; replay cache off",
                    "the `ipu-sim profile` perf gate (ts0 at 2%) stays as it is; its per-request \
                     cost is lower than here because GC work per request grows with scale",
                ],
            },
            "lun2-read" => Workload {
                name: "lun2-read",
                why: "90.5% reads and no erases on the full-size device: map lookups, RBER/ECC \
                      and the event core dominate; a GC change should not move it",
                trace: PaperTrace::Lun2,
                scale: 1.0,
                shape: Shape::OpenLoop,
                heldout_seed: 20_211_002,
                notes: &[
                    "open loop, trace timestamps; SLC cache starts empty; replay cache off",
                    "bypass workload for GC changes; ~326 MiB of device state per cell",
                ],
            },
            "fleet-mirror" => Workload {
                name: "fleet-mirror",
                why: "64 closed-loop tenants on 8 mirrored devices, one slowing 4x halfway: the \
                      only path through host admission, routing, parallel replay, merge and tolerance",
                trace: PaperTrace::Ts0,
                scale: 0.2,
                shape: Shape::Fleet,
                heldout_seed: 20_211_003,
                notes: &[
                    "closed loop: 64 full-rate tenants, QD 2, round-robin, hash routing, \
                     mirror-pair replication, failslow:1x4@0.5, 2 worker threads",
                    "the seed drives both the trace and the fault plan; replay cache off",
                    "fleet capacity search is left out until ROADMAP item 1: its probe count \
                     and p99 rest on log2 bucket midpoints",
                ],
            },
            _ => return None,
        };
        Some(w)
    }

    /// This workload shrunk to `scale` (smoke tests); everything else kept.
    pub fn with_scale(mut self, scale: f64) -> Workload {
        self.scale = scale;
        self
    }

    /// The calibrated trace's own seed: the default `--seed`.
    pub fn default_seed(&self) -> u64 {
        ipu_core::trace::paper_trace(self.trace).seed
    }

    /// Experiment configuration: device and request count scale together,
    /// the FTL and timing model stay at their defaults.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::scaled(self.scale);
        cfg.traces = vec![self.trace];
        cfg.schemes = SCHEMES.to_vec();
        cfg.threads = match self.shape {
            Shape::OpenLoop => 1,
            Shape::Fleet => FLEET_THREADS,
        };
        cfg
    }

    /// The generated request stream for `seed`: the calibrated spec at this
    /// scale with its seed replaced.
    pub fn requests(&self, seed: u64) -> Vec<IoRequest> {
        let mut spec = scaled_spec(&self.config(), self.trace);
        spec.seed = seed;
        TraceGenerator::new(spec).generate()
    }

    /// The fleet's shape; the seed also picks the failing device.
    pub fn fleet_spec(&self, seed: u64) -> FleetSpec {
        let plan = FleetFaultPlan::parse(FLEET_FAULT_PLAN, FLEET_DEVICES, seed)
            .expect("the fleet fault plan is a valid spec");
        FleetSpec::new(FLEET_DEVICES, FLEET_TENANTS, ShardPolicy::Hash)
            .with_queue_depth(FLEET_QUEUE_DEPTH)
            .with_arbitration(ArbitrationPolicy::RoundRobin)
            .with_replication(ReplicationPolicy::MirrorPair)
            .with_fault_plan(plan)
    }
}
