//! `BENCHMARK.json` at the repository root names exactly the metrics, with
//! the units, that the result lines carry.

use perfbench::layers::LayerInputs;
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn per_layer_names_and_units_match_the_program() {
    let json = benchmark_json();
    let printed = LayerInputs::default().metrics();
    let mut names = PER_LAYER.to_vec();
    names.retain(|n| !n.starts_with("run."));
    for name in names {
        let metric = printed
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not computed"));
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{}\"", metric.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"better\"").count(),
        PER_LAYER.len() + END_TO_END.len()
    );
}

#[test]
fn end_to_end_and_workload_names_are_declared() {
    let json = benchmark_json();
    for name in END_TO_END.iter().chain(WORKLOADS.iter()) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}
