//! The traced run: per-layer numbers for one workload.
//!
//! The run sets the workload up once and measures it twice, for half of
//! `--seconds` each: first with obs off, then with obs on. The second
//! pass's counters and spans, read through `Snapshot::delta_since`, give
//! the workload's per-layer counts; the ratio of the two passes' rates is
//! the tracing overhead. Then a fixed set of layer probes times calls into
//! each layer's public functions at the shapes the workloads use. The
//! probes run in every workload's traced run, on the workload's own
//! fixtures where it has them and on freshly built ones otherwise, so
//! every layer metric has a value in every run.

use std::hint::black_box;
use std::time::Instant;

use cem_clip::pretrain::pretrain;
use cem_clip::{Clip, ClipConfig, Image, Tokenizer};
use cem_data::{generate, generate_corpus};
use cem_nn::Module;
use cem_obs::Snapshot;
use cem_serve::{GenerationStore, ShardedIndex};
use cem_tensor::optim::{AdamW, Optimizer};
use cem_tensor::{init, kernels, pack};
use crossem::matcher::rank_row;
use crossem::prompt::SoftPromptGenerator;
use crossem::PromptKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::serve::{Kind, Serve, Spec, TOP_K};
use crate::stats::{median, metric, Metric, RunResult};
use crate::tune::Tune;
use crate::{Prepared, Scale, Workload, WorkloadRun};

/// Repetitions of each short probe; a probe reports their median.
const REPS: usize = 7;

/// Median wall milliseconds of `reps` calls to `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Mean of one span over a snapshot window, in milliseconds (0 when the
/// span never ran).
fn span_mean_ms(delta: &Snapshot, name: &str) -> f64 {
    delta.span(name).map_or(0.0, |s| s.mean_nanos() / 1e6)
}

/// Total of every span whose name starts with `prefix`, in seconds.
fn span_total_s(delta: &Snapshot, prefix: &str) -> f64 {
    delta
        .spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.total_nanos as f64 / 1e9)
        .sum()
}

fn counter(delta: &Snapshot, name: &str) -> f64 {
    delta.counter(name).unwrap_or(0) as f64
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spans that partition a workload's timed calls without overlapping:
/// the trainers' step phases, partition preparation and trainer set-up
/// (evaluation runs outside the timed window), the service's tier
/// attempts, and the hot-swap generations' index builds, which the
/// benchmark wraps in a span of its own.
const LEAF_SPANS: [&str; 9] = [
    "phase.encode",
    "phase.mine",
    "phase.loss",
    "phase.step",
    "phase.snapshot",
    "prep.",
    "setup.",
    "serve.match.",
    "bench.",
];

/// One traced run. Returns the per-layer metrics and the traced pass.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> (RunResult, WorkloadRun) {
    assert!(
        !cem_obs::enabled(),
        "the untraced pass needs obs off: unset CEM_OBS"
    );
    let prepared = Prepared::setup(workload, seed, scale, 1);
    let plain = prepared.run(seconds / 2.0);

    let _obs = cem_obs::force_enable();
    let before = cem_obs::global().snapshot();
    let run = prepared.run(seconds / 2.0);
    let body = cem_obs::global().snapshot().delta_since(&before);

    let mut probes = Probes::default();
    let tune_fixture;
    let tune = match &prepared {
        Prepared::Tune(t) => t,
        Prepared::Serve(_) => {
            tune_fixture = Tune::setup(seed, scale, 1);
            &tune_fixture
        }
    };
    probes.train(tune);
    let dense_fixture;
    let dense = match &prepared {
        Prepared::Serve(s) if matches!(s.spec.kind, Kind::Dense) => s,
        _ => {
            dense_fixture = Serve::setup(Spec::dense(scale), seed, 1);
            &dense_fixture
        }
    };
    probes.dense(dense);
    let ivf_fixture;
    let ivf = match &prepared {
        Prepared::Serve(s) if matches!(s.spec.kind, Kind::Ivf(_)) => s,
        _ => {
            ivf_fixture = Serve::setup(Spec::ivf(scale), seed, 1);
            &ivf_fixture
        }
    };
    probes.ivf(ivf);
    let total = cem_obs::global().snapshot().delta_since(&before);

    let mut checks = run.checks.clone();
    checks.extend(plain.checks.iter().copied());
    checks.extend(probes.checks.iter().copied());
    checks.push((
        "trace.deterministic_outputs_unchanged",
        plain.fingerprint() == run.fingerprint(),
    ));
    checks.push((
        "trace.no_threads_spawned",
        counter(&total, "par.threads_spawned") == 0.0,
    ));
    for (name, ok) in &checks {
        if !ok {
            eprintln!("[{}] check failed: {name}", workload.name());
        }
    }

    let attributed: f64 = LEAF_SPANS.iter().map(|p| span_total_s(&body, p)).sum();
    let blocked = counter(&body, "gemm.tier.blocked");
    let packed = counter(&body, "gemm.tier.packed");
    let prepacked = counter(&body, "gemm.tier.prepacked");
    let serial = counter(&body, "gemm.dispatch.serial_fallback");
    let parallel = counter(&body, "gemm.dispatch.blocked_parallel");
    let candidates = counter(&body, "serve.probe.candidates");
    let probed = counter(&body, "serve.probe.requests");
    let batched = counter(&body, "serve.probe.batched_gemm");
    let single = counter(&body, "serve.probe.single_gemm");

    let mut metrics = probes.metrics;
    metrics.extend([
        metric("tensor.gemm_calls", blocked + packed + prepacked, "count"),
        metric(
            "tensor.gemm_packed_share",
            share(packed, blocked + packed),
            "ratio",
        ),
        metric(
            "tensor.gemm_serial_share",
            share(serial, serial + parallel),
            "ratio",
        ),
        metric(
            "par.threads_spawned",
            counter(&total, "par.threads_spawned"),
            "count",
        ),
        metric("core.step_ms", span_mean_ms(&total, "phase.step"), "ms"),
        metric("core.encode_ms", span_mean_ms(&total, "phase.encode"), "ms"),
        metric("core.loss_ms", span_mean_ms(&total, "phase.loss"), "ms"),
        metric("core.nan_batches", run.value("nan_batches"), "count"),
        metric("core.rollbacks", run.value("rollbacks"), "count"),
        metric("core.mrr", run.value("mrr"), "ratio"),
        metric("core.mrr_hard", run.value("mrr_hard"), "ratio"),
        metric(
            "serve.match_full_us",
            span_mean_ms(&total, "serve.match.full") * 1e3,
            "us",
        ),
        metric(
            "serve.requests_per_wave",
            run.value("requests_per_wave"),
            "count",
        ),
        metric("serve.brownout_share", run.value("brownout_share"), "ratio"),
        metric("serve.shed", run.value("shed"), "count"),
        metric("serve.expired", run.value("expired"), "count"),
        metric(
            "serve.deadline_exceeded",
            run.value("deadline_exceeded"),
            "count",
        ),
        metric("serve.loss_rate", run.value("loss_rate"), "ratio"),
        metric(
            "serve.latency_units_p99",
            run.value("latency_units_p99"),
            "units",
        ),
        metric("serve.quality", run.value("quality"), "ratio"),
        metric("serve.trace_lines", run.value("trace_lines"), "count"),
        metric("serve.scrub_sections", run.value("scrub_sections"), "count"),
        metric("serve.fallbacks", run.value("fallbacks"), "count"),
        metric(
            "serve.shard.probed_fraction",
            share(candidates, probed * ivf.spec.images as f64),
            "ratio",
        ),
        metric(
            "serve.shard.batched_gemm_share",
            share(batched, batched + single),
            "ratio",
        ),
        metric(
            "serve.shard.recall_at_10",
            run.value("recall_at_10"),
            "ratio",
        ),
        metric(
            "obs.trace_overhead",
            plain.rate_per_s() / run.rate_per_s(),
            "ratio",
        ),
        metric(
            "obs.unattributed_share",
            1.0 - attributed / run.busy_s,
            "ratio",
        ),
    ]);
    eprintln!(
        "[{}] traced pass: {:.1}% of {:.2} s unattributed to layer spans",
        workload.name(),
        100.0 * (1.0 - attributed / run.busy_s),
        run.busy_s
    );
    let result = RunResult {
        correct: checks.iter().all(|&(_, ok)| ok),
        attempted: run.attempted + plain.attempted,
        failed: run.failed + plain.failed,
        metrics,
    };
    (result, run)
}

/// Layer probes and their own correctness checks.
#[derive(Default)]
struct Probes {
    metrics: Vec<Metric>,
    checks: Vec<(&'static str, bool)>,
}

impl Probes {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// `data`, `clip`, `nn`, `tensor` and `core` probes on the tuning
    /// bundle.
    fn train(&mut self, tune: &Tune) {
        let p = &tune.prepared;
        let b = &p.bundle;
        let config = b.config;

        // The stages of `DatasetBundle::prepare`, called one by one.
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (mut world, dataset) = generate(config.kind, config.scale, &mut rng);
        let corpus = generate_corpus(&mut world, &dataset.pool, config.pretrain_pairs, &mut rng);
        self.push("data.generate_s", started.elapsed().as_secs_f64(), "s");
        let mut texts: Vec<String> = vec!["a photo of with and in has".to_string()];
        texts.extend(corpus.iter().map(|pair| pair.caption.clone()));
        texts.extend(
            dataset
                .graph
                .vertices()
                .map(|v| dataset.graph.vertex_label(v).to_string()),
        );
        texts.extend(
            (0..dataset.graph.edge_count())
                .map(|e| dataset.graph.edge_label(cem_graph::EdgeId(e)).to_string()),
        );
        let tokenizer = Tokenizer::build(texts.iter().map(String::as_str));
        let clip_config = ClipConfig::small(tokenizer.vocab_size(), world.config().patch_dim);
        let clip = Clip::new(clip_config, &mut rng);
        let pairs: Vec<(Vec<usize>, Image)> = corpus
            .into_iter()
            .map(|pair| {
                (
                    tokenizer.encode(&pair.caption, clip_config.max_len).0,
                    pair.image,
                )
            })
            .collect();
        let before = cem_obs::global().snapshot();
        let started = Instant::now();
        pretrain(&clip, &pairs, &config.pretrain, &mut rng);
        self.push("clip.pretrain_s", started.elapsed().as_secs_f64(), "s");
        let delta = cem_obs::global().snapshot().delta_since(&before);
        self.push(
            "clip.pretrain_batch_ms",
            span_mean_ms(&delta, "pretrain.batch"),
            "ms",
        );
        p.reset_clip();
        self.checks.push((
            "trace.staged_pretrain_matches_prepare",
            clip.state_dict().to_bytes() == b.clip.state_dict().to_bytes(),
        ));

        // One pre-training batch through the staged copy, which the
        // optimiser may now change freely.
        let batch = &pairs[..config.pretrain.batch_size.min(pairs.len())];
        let batch_texts: Vec<Vec<usize>> = batch.iter().map(|(t, _)| t.clone()).collect();
        let batch_images: Vec<&Image> = batch.iter().map(|(_, i)| i).collect();
        self.push(
            "nn.text_forward_ms",
            time_ms(REPS, || clip.encode_texts(&batch_texts)),
            "ms",
        );
        self.push(
            "nn.image_forward_ms",
            time_ms(REPS, || clip.encode_images(&batch_images)),
            "ms",
        );
        let mut opt = AdamW::new(clip.params(), config.pretrain.lr);
        let mut backward = Vec::with_capacity(REPS);
        let mut step = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            opt.zero_grad();
            let loss = clip.contrastive_loss(
                &clip.encode_texts(&batch_texts),
                &clip.encode_images(&batch_images),
            );
            let started = Instant::now();
            loss.backward();
            backward.push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            opt.step();
            step.push(started.elapsed().as_secs_f64() * 1e3);
        }
        self.push("tensor.backward_ms", median(&backward), "ms");
        self.push("tensor.adamw_step_ms", median(&step), "ms");

        // The text tower's feed-forward up-projection over one 32-token
        // sequence, forward and backward.
        let (m, k, n) = (32, clip_config.d_model, clip_config.ffn_hidden);
        let a = init::randn(&[m, k], 1.0, &mut rng).requires_grad();
        let w = init::randn(&[k, n], 1.0, &mut rng).requires_grad();
        let seed_grad = vec![1.0f32; m * n];
        let gemm_ms = time_ms(REPS * 16, || {
            let y = a.matmul(&w);
            y.backward_with(&seed_grad);
            y
        });
        self.push("tensor.gemm_train_us", gemm_ms * 1e3, "us");

        // One CrossEM⁺ job and one hard-prompt job.
        let before = cem_obs::global().snapshot();
        let soft = tune.soft_job();
        let delta = cem_obs::global().snapshot().delta_since(&before);
        let prep_s = soft.new_seconds + span_total_s(&delta, "prep.");
        self.push("core.plus_prep_s", prep_s, "s");
        let epochs: Vec<f64> = soft.report.epochs.iter().map(|e| e.seconds).collect();
        self.push("core.epoch_s", median(&epochs), "s");
        self.push("core.tune_soft_s", soft.seconds, "s");
        let peak = soft.report.peak_bytes() as f64 / (1024.0 * 1024.0);
        self.push("tensor.peak_live_mb", peak, "MB");
        self.push("core.evaluate_ms", soft.evaluate_seconds * 1e3, "ms");
        self.push("core.tune_hard_s", tune.hard_job().seconds, "s");

        // Eq. 6/7 soft prompts for one vertex batch.
        let train_config = p.train_config(PromptKind::Soft, tune.soft_epochs);
        let generator = SoftPromptGenerator::new(
            &b.dataset.graph,
            &b.clip.text,
            &b.tokenizer,
            train_config.soft_backend,
            train_config.alpha,
            &mut b.stage_rng(31),
        );
        let vertices: Vec<usize> = b
            .dataset
            .entities
            .iter()
            .take(train_config.batch_vertices)
            .map(|v| v.0)
            .collect();
        self.push(
            "core.soft_prompt_ms",
            time_ms(REPS, || generator.prompts_for(&vertices)),
            "ms",
        );
    }

    /// `core.rank_row`, `serve` and `hotswap` probes on the dense
    /// workload's gallery.
    fn dense(&mut self, dense: &Serve) {
        let generation = dense.generation(1);
        let row = generation.index.row(cem_serve::Tier::Full, 0);
        let rank_ms = time_ms(REPS * 32, || rank_row(row, TOP_K));
        self.push("core.rank_row_us", rank_ms * 1e3, "us");

        // Full-tier attempts for workloads that serve none themselves.
        let mut service = dense.service();
        black_box(dense.call(&mut service, 0, None));
        let mut stage = Vec::with_capacity(REPS);
        let mut staged_all = true;
        for id in 2..2 + REPS as u64 {
            let incoming = dense.generation(id);
            let started = Instant::now();
            let staged = service.stage(incoming);
            stage.push(started.elapsed().as_secs_f64() * 1e3);
            staged_all &= staged.is_ok();
        }
        self.checks
            .push(("trace.stage_accepts_newer_generations", staged_all));
        self.push("serve.stage_ms", median(&stage), "ms");

        let dir = std::env::temp_dir().join(format!("perfbench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir).expect("open a generation store in the temp dir");
        let mut publish = Vec::with_capacity(REPS);
        let mut load = Vec::with_capacity(REPS);
        let mut round_trips = true;
        for id in 1..=REPS as u64 {
            let generation = dense.generation(id);
            let started = Instant::now();
            let published = store.publish(&generation);
            publish.push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            let loaded = store.load();
            load.push(started.elapsed().as_secs_f64() * 1e3);
            round_trips &= published.is_ok() && loaded.is_ok_and(|g| g.id == id);
        }
        self.checks.push(("trace.store_round_trips", round_trips));
        let _ = std::fs::remove_dir_all(&dir);
        self.push("hotswap.publish_ms", median(&publish), "ms");
        self.push("hotswap.load_ms", median(&load), "ms");
    }

    /// `serve.shard` and panel-GEMM probes on the IVF workload's index.
    fn ivf(&mut self, ivf: &Serve) {
        let Kind::Ivf(shape) = ivf.spec.kind else {
            unreachable!("the IVF probes run on an IVF workload")
        };
        let shards: &ShardedIndex = &ivf.ivf.as_ref().expect("IVF set-up built shards").shards;
        let entities = ivf.spec.entities;
        let probe_ms = time_ms(REPS * 32, || shards.probe(0, shape.nprobe));
        self.push("serve.shard.probe_us", probe_ms * 1e3, "us");
        // Waves of the full tier's width, as the service forms them.
        let config = ivf.config;
        let width = (config.wave_budget_units() / config.tier_cost[0]).min(config.wave as u64);
        let slots: Vec<usize> = (0..width as usize).map(|i| i % entities).collect();
        let wave_ms = time_ms(REPS, || {
            shards
                .score_wave(&slots, shape.nprobe, config.min_batch, TOP_K, 1)
                .is_ok()
        });
        self.push("serve.shard.score_wave_ms", wave_ms, "ms");
        let dense_ms = time_ms(REPS, || shards.dense_rank(0, TOP_K, 1));
        self.push("serve.shard.dense_rank_us", dense_ms * 1e3, "us");

        // One wave of queries against one shard-sized packed panel.
        let mut rng = StdRng::seed_from_u64(ivf.seed);
        let n = ivf.spec.images / shape.nclusters;
        let panel = init::randn(&[n, shape.dim], 1.0, &mut rng).to_vec();
        let packed = pack::pack_b_t(&panel, n, shape.dim);
        let queries = init::randn(&[width as usize, shape.dim], 1.0, &mut rng).to_vec();
        let mut out = vec![0.0f32; width as usize * n];
        let gemm_ms = time_ms(REPS * 32, || {
            kernels::gemm_prepacked_with_threads(&queries, &packed, &mut out, width as usize, 1);
            out[0]
        });
        self.push("tensor.gemm_panel_us", gemm_ms * 1e3, "us");
    }
}
