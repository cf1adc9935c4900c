//! `BENCHMARK.json` at the repo root is generated from `spec.rs`
//! (`benchmark/run.sh --manifest > BENCHMARK.json`); this keeps the two
//! equal and inside the limits the benchmark contract sets.

use speedllm_benchmark::spec::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS, TAILS, WORKLOADS};

#[test]
fn the_committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest().pretty(),
        "regenerate it: benchmark/run.sh --manifest > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_registry_is_inside_the_contract_limits() {
    let declared = WORKLOADS.iter().filter(|w| w.declared).count();
    assert!((2..=8).contains(&declared));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    for w in WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in END_TO_END.iter().chain(TAILS).chain(PER_LAYER) {
        assert!(is_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{}: unit `{}`", m.name, m.unit);
        names.push(m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    // The driver makes 4 + 22 × (declared workloads) runs; with set-up,
    // checks and two builds they must all end within 3420 seconds. 10 s
    // is what a run spends outside its measured window when the host is
    // slow.
    let runs = 4 + 22 * declared as u64;
    assert!(runs * (RUN_SECONDS + 10) + 120 <= 3420);
}
