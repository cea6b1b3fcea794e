//! Small-scale self-test: every workload runs briefly, untraced and traced,
//! with its output checks, so a broken workload fails here before a long
//! benchmark run. Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::time::Duration;

use seed_e2ebench::{per_layer_metrics, run, RunConfig, Workload, BENCHMARKED, END_TO_END};

fn quick(workload: Workload, seed: u64, trace: bool, scale: f64) -> seed_e2ebench::Report {
    let mut config = RunConfig::new(workload, seed, Duration::from_millis(300), trace);
    config.scale = scale;
    run(&config)
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for workload in Workload::ALL {
        // eval_s10 keeps a larger corpus than eval_s1, at a fraction of its
        // benchmark size; the other workloads run at their own scale.
        let scale = match workload {
            Workload::EvalS10 => 2.0,
            _ => workload.scale(),
        };
        for trace in [false, true] {
            let report = quick(workload, 3, trace, scale);
            assert!(report.correct(), "{} trace={trace}: {:?}", workload.name(), report.problems);
            assert_eq!(report.failed, 0, "{} trace={trace}", workload.name());
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<String> = if trace {
                per_layer_metrics().into_iter().map(|(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            assert_eq!(names, declared, "{} trace={trace}", workload.name());
            if !trace {
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{:?}", report.metrics);
            }
        }
    }
}

#[test]
fn default_seed_at_scale_one_reproduces_table4() {
    let report = quick(Workload::EvalS1, 0, false, 1.0);
    assert!(report.correct(), "{:?}", report.problems);
    assert!(report.record.iter().any(|(k, v)| k == "table4_golden_checked" && v == "true"));
}

#[test]
fn a_second_seed_reports_the_same_metric_set() {
    let a = quick(Workload::ServeRw, 1, false, 1.0);
    let b = quick(Workload::ServeRw, 2, false, 1.0);
    let names = |r: &seed_e2ebench::Report| -> Vec<String> {
        r.metrics.iter().map(|m| format!("{} {}", m.name, m.unit)).collect()
    };
    assert_eq!(names(&a), names(&b));
}

#[test]
fn benchmark_json_declares_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str, unit: &str| {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for workload in Workload::ALL {
        let listed = json.contains(&format!("\"name\": \"{}\"", workload.name()));
        assert_eq!(listed, BENCHMARKED.contains(&workload), "{}", workload.name());
    }
    for (name, unit) in END_TO_END {
        assert!(declared(name, unit), "{name} is not declared end to end");
    }
    for (name, unit) in per_layer_metrics() {
        assert!(declared(&name, unit), "{name} is not declared per layer");
    }
}
