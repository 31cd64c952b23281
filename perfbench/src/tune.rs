//! `tune_cub`: offline prompt tuning on the synthetic CUB bundle.
//!
//! Set-up is `DatasetBundle::prepare` (data generation, tokenizer, CLIP
//! pre-training). One timed repetition tunes CrossEM⁺ with soft prompts
//! and then, from the restored pre-trained weights, CrossEM with hard
//! prompts. Both are evaluated after their timed window. A call is one
//! CrossEM⁺ epoch: the hard epochs cost about twice as much, so pooled
//! calls would form two modes.

use std::time::Instant;

use cem_bench::{default_plus, HarnessConfig, PreparedBundle};
use cem_data::{DatasetKind, DatasetScale};
use crossem::plus::CrossEmPlus;
use crossem::{CrossEm, PromptKind, TrainReport};

use crate::{Scale, WorkloadRun};

/// Harness scale: between `HarnessConfig::quick` and `::standard`, sized
/// so one set-up takes a few seconds on one thread.
fn harness(seed: u64, scale: Scale) -> HarnessConfig {
    match scale {
        Scale::Full => HarnessConfig {
            scale: DatasetScale {
                classes: 16,
                images_per_class: 4,
            },
            pretrain_pairs: 300,
            pretrain_epochs: 3,
            em_epochs: 6,
            fusion_epochs: 1,
            seed,
        },
        Scale::Reduced => HarnessConfig {
            scale: DatasetScale {
                classes: 6,
                images_per_class: 2,
            },
            pretrain_pairs: 60,
            pretrain_epochs: 2,
            em_epochs: 1,
            fusion_epochs: 1,
            seed,
        },
    }
}

/// The prepared bundle plus how long each preparation took.
pub struct Tune {
    pub prepared: PreparedBundle,
    /// CrossEM⁺ epochs per repetition.
    pub soft_epochs: usize,
    /// CrossEM (hard prompt) epochs per repetition.
    pub hard_epochs: usize,
    pub setup_s: Vec<f64>,
}

impl Tune {
    /// Prepare the bundle `setups` times (each from scratch) and keep the
    /// last one.
    pub fn setup(seed: u64, scale: Scale, setups: usize) -> Tune {
        let config = harness(seed, scale);
        let mut setup_s = Vec::with_capacity(setups);
        let mut prepared = None;
        for _ in 0..setups.max(1) {
            drop(prepared.take());
            let started = Instant::now();
            prepared = Some(cem_bench::prepare(DatasetKind::Cub, &config));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let prepared = prepared.expect("at least one set-up ran");
        Tune {
            prepared,
            soft_epochs: config.em_epochs,
            hard_epochs: config.em_epochs.div_ceil(2),
            setup_s,
        }
    }

    /// Tune repeatedly until `seconds` of tuning wall time have passed
    /// (at least one repetition).
    pub fn run(&self, seconds: f64) -> WorkloadRun {
        let mut run = WorkloadRun::default();
        let mut first: Option<[f32; 4]> = None;
        while run.busy_s < seconds || first.is_none() {
            let soft = self.soft_job();
            let hard = self.hard_job();
            run.calls_ms
                .extend(soft.report.epochs.iter().map(|e| e.seconds * 1e3));
            for job in [&soft, &hard] {
                run.busy_s += job.seconds;
                run.items += job
                    .report
                    .epochs
                    .iter()
                    .map(|e| e.batches as u64)
                    .sum::<u64>();
                run.attempted += 1;
                run.failed += u64::from(!job.healthy());
            }
            let outputs = [
                soft.mrr,
                hard.mrr,
                (soft.report.nan_batches() + hard.report.nan_batches()) as f32,
                (soft.report.rollbacks() + hard.report.rollbacks()) as f32,
            ];
            let repeat = *first.get_or_insert(outputs);
            run.check("tune.soft_healthy", soft.healthy());
            run.check("tune.hard_healthy", hard.healthy());
            run.check(
                "tune.repeatable",
                repeat.map(f32::to_bits) == outputs.map(f32::to_bits),
            );
            run.reps += 1;
        }
        let [mrr, mrr_hard, nan_batches, rollbacks] = first.expect("one repetition ran");
        run.record("mrr", f64::from(mrr));
        run.record("mrr_hard", f64::from(mrr_hard));
        run.record("nan_batches", f64::from(nan_batches));
        run.record("rollbacks", f64::from(rollbacks));
        run
    }

    /// CrossEM⁺ with soft prompts, timed from trainer construction to the
    /// last epoch, then evaluated.
    pub fn soft_job(&self) -> Job {
        let p = &self.prepared;
        let b = &p.bundle;
        p.reset_clip();
        let started = Instant::now();
        let mut rng = b.stage_rng(31);
        let config = p.train_config(PromptKind::Soft, self.soft_epochs);
        let trainer = CrossEmPlus::new(
            &b.clip,
            &b.tokenizer,
            &b.dataset,
            config,
            default_plus(),
            &mut rng,
        );
        let new_seconds = started.elapsed().as_secs_f64();
        let report = trainer.train(&mut rng).train;
        let seconds = started.elapsed().as_secs_f64();
        let evaluated = Instant::now();
        let mrr = trainer.evaluate().mrr;
        Job {
            seconds,
            new_seconds,
            evaluate_seconds: evaluated.elapsed().as_secs_f64(),
            report,
            mrr,
        }
    }

    /// CrossEM with hard prompts from the restored pre-trained weights.
    pub fn hard_job(&self) -> Job {
        let p = &self.prepared;
        let b = &p.bundle;
        p.reset_clip();
        let started = Instant::now();
        let mut rng = b.stage_rng(11 + PromptKind::Hard as u64);
        let config = p.train_config(PromptKind::Hard, self.hard_epochs);
        let trainer = CrossEm::new(&b.clip, &b.tokenizer, &b.dataset, config, &mut rng);
        let new_seconds = started.elapsed().as_secs_f64();
        let report = trainer.train(&mut rng);
        let seconds = started.elapsed().as_secs_f64();
        let evaluated = Instant::now();
        let mrr = trainer.evaluate().mrr;
        Job {
            seconds,
            new_seconds,
            evaluate_seconds: evaluated.elapsed().as_secs_f64(),
            report,
            mrr,
        }
    }
}

/// One tuning job: the trainer's report, the MRR, and wall times.
pub struct Job {
    /// From trainer construction to the last epoch.
    pub seconds: f64,
    /// Trainer construction alone.
    pub new_seconds: f64,
    /// Evaluation, after the timed window.
    pub evaluate_seconds: f64,
    pub report: TrainReport,
    pub mrr: f32,
}

impl Job {
    /// No NaN batches, no rollbacks, no divergence and a finite final loss.
    pub fn healthy(&self) -> bool {
        let r = &self.report;
        r.nan_batches() == 0
            && r.rollbacks() == 0
            && !r.diverged
            && r.final_loss().is_some_and(f32::is_finite)
    }
}
