//! The CrossEM workspace benchmark: three single-thread workloads with
//! end-to-end metrics, and a traced run that breaks them down by layer.
//! See `perfbench/README.md` for why each workload exists and what each
//! metric should move.

pub mod layers;
mod serve;
pub mod stats;
mod tune;

use stats::{metric, Metric, RunResult};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TuneCub,
    ServeDense,
    ServeIvf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TuneCub, Workload::ServeDense, Workload::ServeIvf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneCub => "tune_cub",
            Workload::ServeDense => "serve_dense",
            Workload::ServeIvf => "serve_ivf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups in each round of an untimed run; `setup_s` is the median
    /// over all rounds. Dense set-up takes milliseconds, so it is repeated
    /// most.
    pub fn setups_per_round(self) -> usize {
        match self {
            Workload::TuneCub | Workload::ServeIvf => 1,
            Workload::ServeDense => 4,
        }
    }
}

/// Input size: the benchmark's own, or a reduced one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reduced,
}

/// Everything one timed phase of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// Wall seconds inside timed calls.
    pub busy_s: f64,
    /// Wall milliseconds of each timed call.
    pub calls_ms: Vec<f64>,
    /// Work items completed: training batches, or resolved arrivals.
    pub items: u64,
    /// Repetitions of the workload's fixed unit of work.
    pub reps: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks, each the conjunction of every time it
    /// was checked.
    pub checks: Vec<(&'static str, bool)>,
    /// Deterministic outputs: bit-identical at any thread count, with
    /// tracing on or off, and from one run to the next.
    pub deterministic: Vec<(&'static str, f64)>,
}

impl WorkloadRun {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    pub fn record(&mut self, name: &'static str, value: f64) {
        self.deterministic.push((name, value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// The deterministic outputs as bits, check results included, for
    /// exact comparison between runs.
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .deterministic
            .iter()
            .map(|&(n, v)| (n, v.to_bits()))
            .collect();
        out.extend(self.checks.iter().map(|&(n, ok)| (n, u64::from(ok))));
        out
    }

    pub fn value(&self, name: &str) -> f64 {
        self.deterministic
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    pub fn rate_per_s(&self) -> f64 {
        self.items as f64 / self.busy_s
    }

    /// Add a later round of the same workload: times and counts add up,
    /// and each check must hold in every round.
    fn absorb(&mut self, round: WorkloadRun) {
        self.busy_s += round.busy_s;
        self.calls_ms.extend(round.calls_ms);
        self.items += round.items;
        self.reps += round.reps;
        self.attempted += round.attempted;
        self.failed += round.failed;
        for (name, ok) in round.checks {
            self.check(name, ok);
        }
    }
}

/// A workload after set-up. A run holds one, so the variants' sizes do
/// not matter.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Prepared {
    Tune(tune::Tune),
    Serve(serve::Serve),
}

impl Prepared {
    fn setup(workload: Workload, seed: u64, scale: Scale, setups: usize) -> Prepared {
        match workload {
            Workload::TuneCub => Prepared::Tune(tune::Tune::setup(seed, scale, setups)),
            Workload::ServeDense => {
                Prepared::Serve(serve::Serve::setup(serve::Spec::dense(scale), seed, setups))
            }
            Workload::ServeIvf => {
                Prepared::Serve(serve::Serve::setup(serve::Spec::ivf(scale), seed, setups))
            }
        }
    }

    fn setup_s(&self) -> &[f64] {
        match self {
            Prepared::Tune(t) => &t.setup_s,
            Prepared::Serve(s) => &s.setup_s,
        }
    }

    fn run(&self, seconds: f64) -> WorkloadRun {
        match self {
            Prepared::Tune(t) => t.run(seconds),
            Prepared::Serve(s) => s.run(seconds),
        }
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
/// The calls' median is not among them: this machine's speed bursts move
/// it between runs far more than the rate or the tail (README.md).
fn end_to_end(setup_s: &[f64], run: &WorkloadRun) -> Vec<Metric> {
    vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        metric("rate_per_s", run.rate_per_s(), "1/s"),
        metric("call_ms_tail", stats::tail(&run.calls_ms).value, "ms"),
    ]
}

/// Rounds of an untimed run. Each round sets the workload up afresh and
/// measures it for an equal share of `--seconds`, so the set-ups are
/// spread over the run and `setup_s` samples the same stretch of machine
/// time as the timed calls. Set up all at once, before the timed phase,
/// `setup_s` spread twice as much between runs as the rate did.
pub const ROUNDS: usize = 5;

/// One untraced run: set up and measure in `ROUNDS` rounds, check. Every
/// round must give the first round's deterministic outputs bit for bit.
pub fn untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> (RunResult, WorkloadRun) {
    assert!(
        !cem_obs::enabled(),
        "timed runs keep obs off: unset CEM_OBS"
    );
    let mut setup_s = Vec::new();
    let mut run: Option<WorkloadRun> = None;
    let mut rounds_repeat = true;
    for _ in 0..ROUNDS {
        let prepared = Prepared::setup(workload, seed, scale, workload.setups_per_round());
        setup_s.extend_from_slice(prepared.setup_s());
        let round = prepared.run(seconds / ROUNDS as f64);
        match &mut run {
            None => run = Some(round),
            Some(run) => {
                rounds_repeat &= run.fingerprint() == round.fingerprint();
                run.absorb(round);
            }
        }
    }
    let run = run.expect("at least one round ran");
    if !rounds_repeat {
        eprintln!(
            "[{}] check failed: rounds give different deterministic outputs",
            workload.name()
        );
    }
    let tail = stats::tail(&run.calls_ms);
    eprintln!("[{}] set-ups (s): {setup_s:?}", workload.name());
    eprintln!(
        "[{}] {} repetitions, {} calls, median call {:.3} ms; call tail is p{:.1} of {} samples",
        workload.name(),
        run.reps,
        run.calls_ms.len(),
        stats::median(&run.calls_ms),
        tail.percentile,
        tail.samples
    );
    let result = RunResult {
        correct: run.correct() && rounds_repeat,
        attempted: run.attempted,
        failed: run.failed,
        metrics: end_to_end(&setup_s, &run),
    };
    (result, run)
}
