//! Reduced-size runs of every workload: the deterministic outputs (MRRs,
//! loss rate, virtual p99, recall, quality and every check result) must
//! be bit-identical across two runs, at one and two threads, and with
//! tracing on and off.

use std::sync::Mutex;

use cem_tensor::par::ThreadsGuard;
use perfbench::{layers, untraced, Scale, Workload, WorkloadRun};

/// The thread budget and the obs switch are process-global, so the
/// workloads run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;
const SECONDS: f64 = 0.05;

fn run(workload: Workload, threads: usize) -> WorkloadRun {
    let _threads = ThreadsGuard::new(threads);
    let (result, run) = untraced(workload, SEED, SECONDS, Scale::Reduced);
    assert!(
        result.correct,
        "{} failed a check: {:?}",
        workload.name(),
        run.checks
    );
    assert_eq!(result.failed, 0, "{} lost operations", workload.name());
    run
}

fn check_workload(workload: Workload) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = run(workload, 1);
    assert!(!first.deterministic.is_empty());
    assert_eq!(
        first.fingerprint(),
        run(workload, 1).fingerprint(),
        "run to run"
    );
    assert_eq!(
        first.fingerprint(),
        run(workload, 2).fingerprint(),
        "1 vs 2 threads"
    );

    let _threads = ThreadsGuard::new(1);
    let (result, traced) = layers::traced(workload, SEED, SECONDS, Scale::Reduced);
    assert!(!cem_obs::enabled(), "the traced run leaves obs off");
    assert!(result.correct, "traced {} failed a check", workload.name());
    assert_eq!(
        first.fingerprint(),
        traced.fingerprint(),
        "traced vs untraced"
    );
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        declared("per_layer"),
        "traced {} metrics",
        workload.name()
    );
    let threads = result
        .metrics
        .iter()
        .find(|m| m.name == "par.threads_spawned");
    assert_eq!(
        threads.map(|m| m.value),
        Some(0.0),
        "one thread spawns none"
    );
}

#[test]
fn tune_cub_is_deterministic() {
    check_workload(Workload::TuneCub);
}

#[test]
fn serve_dense_is_deterministic() {
    check_workload(Workload::ServeDense);
}

#[test]
fn serve_ivf_is_deterministic() {
    check_workload(Workload::ServeIvf);
}

/// Metric names `BENCHMARK.json` declares in `section`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn untraced_runs_report_the_declared_end_to_end_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _threads = ThreadsGuard::new(1);
    for workload in Workload::ALL {
        let (result, _) = untraced(workload, SEED, SECONDS, Scale::Reduced);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, declared("end_to_end"), "{}", workload.name());
        assert!(
            result.metrics.iter().all(|m| m.value > 0.0),
            "{}: a zero metric",
            workload.name()
        );
    }
}
