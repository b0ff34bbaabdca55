//! Self-tests of the benchmark: its oracle catches a wrong output, the
//! metric names it prints are the ones `BENCHMARK.json` declares, and its
//! inputs and counts are a function of the seed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.  Every run
//! here uses the tiny `smoke` problem sizes.

use nd_perfbench::problems::{Inputs, Problem};
use nd_perfbench::report::{END_TO_END, PER_LAYER};
use nd_perfbench::spans::Spans;
use nd_perfbench::workloads::{batch_specs, derive_seed, RunConfig, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool, plant_wrong_output: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        smoke: true,
        plant_wrong_output,
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn catalog(section: &[(&str, &str)]) -> Vec<(String, String)> {
    section
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Metric names in a printed result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each chunk but the last ends with the next metric's `"name": `.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind("\": ")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    assert_eq!(catalog(END_TO_END), declared("end_to_end"));
    assert_eq!(catalog(PER_LAYER), declared("per_layer"));
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    for workload in [Workload::Dense, Workload::Serve] {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut report = nd_perfbench::run(&smoke(workload, 1, trace, false));
            let line = report.result_line(trace);
            let want: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
            assert_eq!(printed_names(&line), want, "{workload:?} trace={trace}");
            assert_eq!(report.failed, 0, "{:?}", report.notes());
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn a_planted_wrong_output_raises_the_error_rate() {
    for workload in Workload::ALL {
        let clean = nd_perfbench::run(&smoke(workload, 3, false, false));
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0, "{workload:?}: {:?}", clean.notes());

        let mut planted = nd_perfbench::run(&smoke(workload, 3, false, true));
        assert!(
            planted.failed > 0,
            "{workload:?}: a wrong output went unnoticed"
        );
        assert!(planted
            .result_line(false)
            .starts_with("{\"correct\": false"));
    }
}

#[test]
fn counts_follow_the_seed_and_inputs_change_with_it() {
    // `anchored` runs `dense`'s problems.
    let specs = batch_specs(Workload::Dense, true);
    let counts = |seed: u64| -> Vec<(usize, usize, (f64, f64))> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let inputs = Inputs::generate(s, derive_seed(seed, i as u64 + 1));
                let p = Problem::setup(*s, inputs, None, seed, &mut Spans::new(false));
                (
                    p.compiled.task_count(),
                    p.compiled.edge_count(),
                    p.op_counts(),
                )
            })
            .collect()
    };
    assert_eq!(counts(5), counts(5));
    let digests = |seed: u64| -> Vec<u64> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| Inputs::generate(s, derive_seed(seed, i as u64 + 1)).digest())
            .collect()
    };
    assert_eq!(digests(5), digests(5));
    let (a, b) = (digests(5), digests(6));
    assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{a:?} vs {b:?}");
}
