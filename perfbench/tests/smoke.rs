//! Tiny-scale smoke runs of every workload: each named metric of
//! `BENCHMARK.json` is printed with its unit, and every correctness check
//! runs and passes — or fails when the outputs are corrupted.

use perfbench::layers::Layers;
use perfbench::workload::{Workload, NAMES};
use perfbench::{compare, digest, run, run_cells, Options, Outcome};
use serde_json::JsonValue;

/// Scale small enough that every workload runs in well under a second.
const TINY: f64 = 0.004;

fn tiny(name: &str) -> Workload {
    Workload::named(name)
        .expect("known workload")
        .with_scale(TINY)
}

fn run_tiny(name: &str, trace: bool) -> Outcome {
    let w = tiny(name);
    let opts = Options {
        seed: w.default_seed(),
        seconds: 0.0,
        trace,
    };
    run(&w, &opts)
}

/// The entries of the list `section` in BENCHMARK.json, each as the string
/// values of `keys`.
fn declared(section: &str, keys: [&str; 2]) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: JsonValue = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let JsonValue::Object(fields) = doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let Some((_, JsonValue::Array(entries))) = fields.iter().find(|(k, _)| k == section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    entries
        .iter()
        .map(|e| {
            let JsonValue::Object(e) = e else {
                panic!("`{section}` entry is not an object")
            };
            let get = |key: &str| match e.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Str(s))) => s.clone(),
                _ => panic!("`{section}` entry lacks `{key}`"),
            };
            (get(keys[0]), get(keys[1]))
        })
        .collect()
}

fn assert_prints(out: &Outcome, section: &str) {
    assert!(out.correct, "checks failed: {:?}", out.errors);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let printed: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        printed,
        declared(section, ["name", "unit"]),
        "printed metrics differ from BENCHMARK.json"
    );
    let last = out.json();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!last.contains('\n'));
}

#[test]
fn workload_list_matches_benchmark_json() {
    let listed: Vec<(String, String)> = NAMES
        .iter()
        .map(|&n| (n.to_string(), Workload::named(n).unwrap().why.to_string()))
        .collect();
    assert_eq!(listed, declared("workloads", ["name", "why"]));
    assert!(Workload::named("nope").is_none());
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for name in NAMES {
        let out = run_tiny(name, false);
        assert_prints(&out, "end_to_end");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{name}: {:?}",
            out.metrics
        );
        assert!(out.notes.iter().any(|n| n.starts_with("digest fnv1a64 ")));
    }
}

#[test]
fn every_workload_prints_every_layer_metric_and_traced_equals_untraced() {
    for name in NAMES {
        let out = run_tiny(name, true);
        assert_prints(&out, "per_layer");
        let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(value("trace.requests") > 0.0);
        assert!(value("sim.dispatch.calls") > 0.0);
        assert!(value("unattributed_s") >= 0.0);
    }
}

#[test]
fn notes_state_the_profile_gate_and_capacity_search_decisions() {
    let ts0 = Workload::named("ts0-gc").unwrap();
    assert!(ts0
        .notes
        .iter()
        .any(|n| n.contains("profile") && n.contains("grows with scale")));
    let fleet = Workload::named("fleet-mirror").unwrap();
    assert!(fleet
        .notes
        .iter()
        .any(|n| n.contains("capacity search") && n.contains("ROADMAP item 1")));
}

#[test]
fn corrupted_traced_report_fails_the_equality_check() {
    for name in NAMES {
        let w = tiny(name);
        let cfg = w.config();
        let seed = w.default_seed();
        let requests = w.requests(seed);
        let untraced = run_cells(&w, &cfg, seed, &requests, None);
        let mut lay = Layers::default();
        let mut traced = run_cells(&w, &cfg, seed, &requests, Some(&mut lay));
        assert!(compare(&untraced, &traced).is_empty(), "{name}");

        // Flip one digit of the last cell's report.
        let json = &mut traced.last_mut().unwrap().json;
        let at = json.find(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &json[at..=at] == "1" { "2" } else { "1" };
        json.replace_range(at..=at, flipped);
        let errors = compare(&untraced, &traced);
        assert_eq!(errors.len(), 1, "{name}: {errors:?}");
        assert!(
            errors[0].contains(&format!("at byte {at}")),
            "{}",
            errors[0]
        );
    }
}

#[test]
fn the_seed_alone_decides_the_simulated_outputs() {
    for name in NAMES {
        let w = tiny(name);
        let cfg = w.config();
        let cells = |seed| run_cells(&w, &cfg, seed, &w.requests(seed), None);
        let a = digest(&cells(w.default_seed()));
        assert_eq!(a, digest(&cells(w.default_seed())), "{name}");
        assert_ne!(a, digest(&cells(w.heldout_seed)), "{name}");
    }
}
