//! Golden-output pins for every scheme and the ablation configurations.
//!
//! One small fixed workload — hot overwrites that drive intra-page updates
//! and level promotion, a cold tail that fills the SLC cache and forces GC,
//! and interleaved reads — is replayed under each cell below. Each cell pins
//! the FNV-1a 64 digest of its `SimReport` JSON, so any change to placement,
//! victim choice, relocation, timing or accounting shows up as a digest
//! mismatch. The cells are the configurations the `ablate` CLI and the
//! ablation benches run: the default config, a NOP budget of one, the
//! `light` fault profile with scrub enabled, ISR GC off, and one cache level.
//!
//! A deliberate behaviour change updates the table from the assertion
//! message, which prints every cell's actual digest.

use ipu_flash::FaultProfile;
use ipu_ftl::SchemeKind;
use ipu_sim::{replay, ReplayConfig};
use ipu_trace::{IoRequest, OpKind};

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed workload: 900 requests from a xorshift stream. Three in eight
/// are reads; writes go to a 4-slot hot set half the time and to a 40-slot
/// cold set otherwise, in 4–16 KB sizes at 64 KB slot spacing.
fn workload() -> Vec<IoRequest> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = 0u64;
    (0..900)
        .map(|_| {
            let r = next();
            t += 50_000 + r % 400_000;
            let op = if r >> 20 & 7 < 3 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let slot = if r >> 24 & 1 == 0 {
                r >> 28 & 3
            } else {
                4 + (r >> 32) % 40
            };
            let size = 4096 * (1 + (r >> 40 & 3) as u32);
            IoRequest::new(t, op, slot * 65536, size)
        })
        .collect()
}

/// Every pinned cell: a name and its replay configuration.
fn cells() -> Vec<(String, ReplayConfig)> {
    let mut cells = Vec::new();
    for scheme in SchemeKind::all_extended() {
        cells.push((
            format!("{scheme}/default"),
            ReplayConfig::small_for_tests(scheme),
        ));
    }
    for scheme in SchemeKind::all_extended() {
        let mut cfg = ReplayConfig::small_for_tests(scheme);
        cfg.device.max_partial_programs = 1;
        cells.push((format!("{scheme}/nop1"), cfg));
    }
    for scheme in SchemeKind::all_extended() {
        let mut cfg = ReplayConfig::small_for_tests(scheme);
        let (fault, retry) = FaultProfile::named("light").expect("light profile exists");
        cfg.device.fault = fault;
        cfg.device.retry = retry;
        cfg.ftl.scrub.enabled = true;
        cells.push((format!("{scheme}/light+scrub"), cfg));
    }
    let mut cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
    cfg.ftl.ipu_use_isr_gc = false;
    cells.push(("IPU/greedy-gc".into(), cfg));
    let mut cfg = ReplayConfig::small_for_tests(SchemeKind::Ipu);
    cfg.ftl.ipu_max_level = 1;
    cells.push(("IPU/max-level1".into(), cfg));
    cells
}

/// Expected digest per cell, in [`cells`] order. Baseline never partially
/// programs, so its NOP-budget cell matches its default cell.
const GOLDEN: &[(&str, u64)] = &[
    ("Baseline/default", 0xdcd552f45f3b30ee),
    ("MGA/default", 0xe7e45f1a03edac7e),
    ("IPU/default", 0x012505e30389eba5),
    ("IPU+/default", 0x45d2f30fc26cd4db),
    ("Baseline/nop1", 0xdcd552f45f3b30ee),
    ("MGA/nop1", 0x827d39d0fe3fdd20),
    ("IPU/nop1", 0x258da7c1e1da5f59),
    ("IPU+/nop1", 0x22b71d39285f2bfc),
    ("Baseline/light+scrub", 0x71b35d90e298685d),
    ("MGA/light+scrub", 0xbe942d978d639a4e),
    ("IPU/light+scrub", 0x8cafc3af358c7142),
    ("IPU+/light+scrub", 0x5e316b10880fdc21),
    ("IPU/greedy-gc", 0x1c203c4d4b02f1cb),
    ("IPU/max-level1", 0xd0eaefb7db66517f),
];

#[test]
fn reports_match_golden_digests() {
    let reqs = workload();
    let mut actual = Vec::new();
    for (name, cfg) in cells() {
        let report = replay(&cfg, &reqs, "golden");
        assert!(
            report.ftl.gc_runs_slc > 0,
            "{name}: the workload must put the SLC cache under GC pressure"
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        actual.push((name, fnv1a64(json.as_bytes())));
    }
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, expected, "actual digests:\n{table}");
}

/// `ipu_use_isr_gc` drives victim choice for every intra-page scheme: on a
/// workload where IPU's two settings give different reports, IPU+'s must
/// differ too.
#[test]
fn isr_flag_drives_every_intra_page_scheme() {
    let reqs = workload();
    let digest = |scheme: SchemeKind, use_isr: bool| {
        let mut cfg = ReplayConfig::small_for_tests(scheme);
        cfg.ftl.ipu_use_isr_gc = use_isr;
        let json = serde_json::to_string(&replay(&cfg, &reqs, "golden")).expect("serializes");
        fnv1a64(json.as_bytes())
    };
    assert_ne!(
        digest(SchemeKind::Ipu, true),
        digest(SchemeKind::Ipu, false),
        "the workload must separate IPU's ISR and greedy GC"
    );
    assert_ne!(
        digest(SchemeKind::IpuPlus, true),
        digest(SchemeKind::IpuPlus, false),
        "IPU+ ignored ipu_use_isr_gc"
    );
}
