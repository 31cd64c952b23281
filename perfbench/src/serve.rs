//! `serve_dense` and `serve_ivf`: one caller feeding consecutive slices of
//! a seeded arrival schedule to `MatchService::run_open_loop`.
//!
//! Each pass serves the whole schedule with a fresh service, so every pass
//! answers identically and the deterministic outputs do not depend on how
//! many passes fit into the run. Inside a slice, arrivals are open-loop on
//! the service's virtual clock; between slices the loop is closed, since
//! the caller waits for one slice to finish before sending the next.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use cem_bench::load::{bursty, poisson, with_hot_keys, BurstSpec};
use cem_serve::{
    splitmix64, Arrival, Generation, MatchService, NoFaults, Outcome, Response, ServeConfig,
    ServeIndex, ShardedIndex, Tier,
};
use crossem::matcher::rank_row;

use crate::{Scale, WorkloadRun};

/// Ranking depth of every served response and of the recall oracle.
pub const TOP_K: usize = 10;

/// Offered load of both serving workloads, as a share of full-tier
/// saturation.
const LOAD: f64 = 0.5;

/// Rate multiplier of `serve_dense`'s burst window: 4× a half-saturation
/// base load is twice full-tier saturation, so brownout engages.
const BURST_MULTIPLIER: f64 = 4.0;

/// `serve_dense` schedules a fresh generation for hot-swap every this many
/// slices.
const SWAP_EVERY: usize = 8;

/// Lloyd iterations of `serve_ivf`'s k-means.
const KMEANS_ITERS: usize = 4;

/// Shape of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub entities: usize,
    pub images: usize,
    /// Arrivals in one pass through the schedule.
    pub arrivals: usize,
    /// Arrivals per `run_open_loop` call.
    pub slice: usize,
    pub kind: Kind,
}

/// The two serving workloads.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Four synthetic tiers, a burst with hot keys, scrubbing and
    /// hot-swaps.
    Dense,
    /// A cluster-pruned shard index over blob-mixture embeddings.
    Ivf(IvfSpec),
}

/// The cluster-pruned index of `serve_ivf`.
#[derive(Debug, Clone, Copy)]
pub struct IvfSpec {
    pub dim: usize,
    pub nclusters: usize,
    pub nprobe: usize,
}

impl Spec {
    pub fn dense(scale: Scale) -> Spec {
        let (entities, images, arrivals, slice) = match scale {
            Scale::Full => (64, 4096, 24_576, 512),
            Scale::Reduced => (16, 256, 2_048, 256),
        };
        Spec {
            entities,
            images,
            arrivals,
            slice,
            kind: Kind::Dense,
        }
    }

    pub fn ivf(scale: Scale) -> Spec {
        let (entities, images, arrivals, slice, dim, nclusters, nprobe) = match scale {
            Scale::Full => (64, 100_000, 1_024, 32, 32, 128, 16),
            Scale::Reduced => (16, 6_000, 256, 32, 16, 32, 4),
        };
        Spec {
            entities,
            images,
            arrivals,
            slice,
            kind: Kind::Ivf(IvfSpec {
                dim,
                nclusters,
                nprobe,
            }),
        }
    }

    /// The service configuration: `ServeConfig::default()` with a top-10
    /// ranking, plus scrubbing (dense) or the shard knobs (IVF).
    pub fn config(&self) -> ServeConfig {
        let mut config = ServeConfig {
            top_k: TOP_K,
            ..ServeConfig::default()
        };
        match self.kind {
            Kind::Dense => config.scrub_sections_per_wave = 2,
            Kind::Ivf(ivf) => {
                config.nclusters = ivf.nclusters;
                config.nprobe = ivf.nprobe;
            }
        }
        config
    }
}

/// Arrivals per virtual unit one wave can execute on the full tier.
fn saturation(config: &ServeConfig) -> f64 {
    let per_wave =
        (config.wave_budget_units() / config.tier_cost[Tier::Full.index()]).min(config.wave as u64);
    per_wave as f64 / config.wave_units as f64
}

/// The seeded schedule, cut into slices whose clocks start at zero. Dense
/// adds a burst window of a tenth of the nominal span and hot keys.
fn slices(spec: &Spec, config: &ServeConfig, seed: u64) -> Vec<Vec<Arrival>> {
    let rate = saturation(config) * LOAD;
    let schedule = match spec.kind {
        Kind::Dense => {
            let span = spec.arrivals as u64 * 100;
            let burst = BurstSpec {
                start: span / 10 * 2,
                end: span / 10 * 3,
                multiplier: BURST_MULTIPLIER,
            };
            let mut schedule = bursty(spec.arrivals, rate, burst, spec.entities, seed);
            with_hot_keys(
                &mut schedule,
                spec.entities,
                spec.entities / 8,
                0.5,
                seed ^ 0x407,
            );
            schedule
        }
        Kind::Ivf(_) => poisson(spec.arrivals, rate, spec.entities, seed),
    };
    schedule
        .chunks(spec.slice)
        .map(|chunk| {
            let base = chunk[0].at;
            chunk
                .iter()
                .map(|a| Arrival {
                    at: a.at - base,
                    request: a.request,
                })
                .collect()
        })
        .collect()
}

/// A uniform score in `[0, 1)` from a splitmix64 stream.
fn unit(seed: u64, i: u64) -> f32 {
    (splitmix64(seed, i) >> 40) as f32 / (1u64 << 24) as f32
}

/// Four tiers of `len` seeded scores, one stream per tier, as `load_drill`
/// builds its index. Different seeds rank differently, so a response
/// scored against the wrong generation is caught.
fn tier_matrices(len: usize, seed: u64) -> [Vec<f32>; Tier::COUNT] {
    std::array::from_fn(|tier| tier_scores(len, seed, tier as u64))
}

/// The seeded scores of one tier.
fn tier_scores(len: usize, seed: u64, tier: u64) -> Vec<f32> {
    (0..len)
        .map(|i| unit(seed ^ (0x7134 + tier), i as u64))
        .collect()
}

/// A mixture of `nblobs` unit-sphere blobs, as in `scale_drill`: row `i`
/// sits near blob `i % nblobs` with small noise, re-normalised.
fn blobs(n: usize, dim: usize, nblobs: usize, noise: f32, seed: u64) -> Vec<f32> {
    let normalise = |row: &mut [f32]| {
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        row.iter_mut().for_each(|v| *v /= norm);
    };
    let mut centers: Vec<f32> = (0..nblobs * dim)
        .map(|i| unit(seed ^ 0xC0, i as u64) - 0.5)
        .collect();
    centers.chunks_mut(dim).for_each(normalise);
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let center = &centers[(i % nblobs) * dim..(i % nblobs + 1) * dim];
        let start = out.len();
        out.extend(
            center
                .iter()
                .enumerate()
                .map(|(d, &c)| c + noise * (unit(seed, (i * dim + d) as u64) - 0.5)),
        );
        normalise(&mut out[start..]);
    }
    out
}

/// The shard index of `serve_ivf` plus the dense tiers kept as its
/// fallback (full tier = exact scores).
pub struct Ivf {
    pub index: ServeIndex,
    pub shards: ShardedIndex,
}

/// The generated inputs of `serve_ivf`'s set-up.
struct IvfInputs {
    queries: Vec<f32>,
    gallery: Vec<f32>,
}

impl IvfInputs {
    fn new(spec: &Spec, ivf: IvfSpec, seed: u64) -> IvfInputs {
        let nblobs = ivf.nclusters / 4;
        IvfInputs {
            queries: blobs(spec.entities, ivf.dim, nblobs, 0.25, seed ^ 0xB0B),
            gallery: blobs(spec.images, ivf.dim, nblobs, 0.25, seed ^ 0xA11CE),
        }
    }

    /// Build the index, timing only the program's work: the lower tiers'
    /// seeded scores and the query copy are made before the clock starts.
    /// Returns the index and the timed seconds.
    fn build(&self, spec: &Spec, ivf: IvfSpec, seed: u64) -> (Ivf, f64) {
        let queries = self.queries.clone();
        let [cached, hard, zero] =
            [1, 2, 3].map(|tier| tier_scores(spec.entities * spec.images, seed, tier));
        let started = Instant::now();
        let shards = ShardedIndex::build(
            queries,
            spec.entities,
            &self.gallery,
            spec.images,
            ivf.dim,
            ivf.nclusters,
            KMEANS_ITERS,
            seed,
        );
        let full = shards.dense_scores(1);
        let index = ServeIndex::new(spec.entities, spec.images, [full, cached, hard, zero]);
        (Ivf { index, shards }, started.elapsed().as_secs_f64())
    }
}

/// Tier matrices of dense generation `id`, from the workload seed.
fn generation_matrices(spec: &Spec, seed: u64, id: u64) -> [Vec<f32>; Tier::COUNT] {
    tier_matrices(spec.entities * spec.images, splitmix64(seed, 0x6E4 + id))
}

/// A hot-swap a call schedules: the generation id and its tier matrices,
/// made before the call's clock starts.
pub type SwapInput = (u64, [Vec<f32>; Tier::COUNT]);

/// What the first pass's responses add up to, scored slice by slice so no
/// response outlives its slice.
#[derive(Default)]
struct PassScore {
    responses: usize,
    wrong: u64,
    overlap: usize,
    full_overlap: usize,
    full_served: usize,
    latencies: Vec<u64>,
}

/// A 64-bit digest of one slice's responses, to check that later passes
/// answer exactly as the first.
fn digest(responses: &[Response]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in responses {
        (
            r.id,
            r.entity,
            r.cost_units,
            r.queue_units,
            r.retries,
            r.generation,
        )
            .hash(&mut h);
        match &r.outcome {
            Outcome::Served { tier, ranking } => (0u8, tier.index(), ranking).hash(&mut h),
            Outcome::Shed => 1u8.hash(&mut h),
            Outcome::Expired => 2u8.hash(&mut h),
            Outcome::DeadlineExceeded => 3u8.hash(&mut h),
            Outcome::InternalError => 4u8.hash(&mut h),
        }
    }
    h.finish()
}

/// A serving workload after set-up.
pub struct Serve {
    pub spec: Spec,
    pub config: ServeConfig,
    pub seed: u64,
    pub slices: Vec<Vec<Arrival>>,
    /// The shard index and its dense tiers (IVF only).
    pub ivf: Option<Ivf>,
    pub setup_s: Vec<f64>,
    /// `expected[g - 1][tier][entity]`: the ranking a response scored
    /// against generation `g` on `tier` must carry (dense only).
    expected: Vec<[Vec<Vec<usize>>; Tier::COUNT]>,
    /// Dense top-k per entity over the full tier (IVF only).
    oracle: Vec<Vec<usize>>,
}

impl Serve {
    /// Generate the inputs, then set the service up `setups` times, timing
    /// only the program's work. Dense builds generation 1's index and a
    /// service owning it, from tier matrices made before the clock starts;
    /// a pass builds its own service later, since the service owns its
    /// generation. IVF builds the shard index and its dense tiers and keeps
    /// the last build.
    pub fn setup(spec: Spec, seed: u64, setups: usize) -> Serve {
        let config = spec.config();
        let slices = slices(&spec, &config, seed);
        let mut setup_s = Vec::with_capacity(setups);
        let mut ivf = None;
        match spec.kind {
            Kind::Dense => {
                for _ in 0..setups.max(1) {
                    let matrices = generation_matrices(&spec, seed, 1);
                    let started = Instant::now();
                    let index = ServeIndex::new(spec.entities, spec.images, matrices);
                    let service = MatchService::with_generation(config, Generation::new(1, index));
                    setup_s.push(started.elapsed().as_secs_f64());
                    drop(service);
                }
            }
            Kind::Ivf(shape) => {
                let inputs = IvfInputs::new(&spec, shape, seed);
                for _ in 0..setups.max(1) {
                    drop(ivf.take());
                    let (built, seconds) = inputs.build(&spec, shape, seed);
                    ivf = Some(built);
                    setup_s.push(seconds);
                }
            }
        }
        let mut serve = Serve {
            spec,
            config,
            seed,
            slices,
            ivf,
            setup_s,
            expected: Vec::new(),
            oracle: Vec::new(),
        };
        serve.build_oracles();
        serve
    }

    /// Dense generation `id` of this workload.
    pub fn generation(&self, id: u64) -> Generation {
        let matrices = generation_matrices(&self.spec, self.seed, id);
        Generation::new(
            id,
            ServeIndex::new(self.spec.entities, self.spec.images, matrices),
        )
    }

    /// Generations one pass publishes: 1, plus one per scheduled swap.
    pub fn generations(&self) -> u64 {
        match self.spec.kind {
            Kind::Dense => 1 + (self.slices.len() / SWAP_EVERY) as u64,
            Kind::Ivf(_) => 1,
        }
    }

    fn build_oracles(&mut self) {
        match &self.ivf {
            None => {
                self.expected = (1..=self.generations())
                    .map(|id| {
                        let index = &self.generation(id).index;
                        Tier::ALL.map(|tier| {
                            (0..self.spec.entities)
                                .map(|e| rank_row(index.row(tier, e), TOP_K))
                                .collect()
                        })
                    })
                    .collect();
            }
            Some(ivf) => {
                self.oracle = (0..self.spec.entities)
                    .map(|e| ivf.shards.dense_rank(e, TOP_K, 1))
                    .collect();
            }
        }
    }

    /// A fresh service over the model.
    pub fn service(&self) -> MatchService<'_> {
        match &self.ivf {
            None => MatchService::with_generation(self.config, self.generation(1)),
            Some(ivf) => MatchService::with_shards(self.config, &ivf.index, &ivf.shards),
        }
    }

    /// The hot-swap call `slice_no` schedules, if one is due (dense only).
    /// Made before the call's clock starts, so the timed call builds the
    /// index but does not synthesise its scores.
    pub fn swap_input(&self, slice_no: usize) -> Option<SwapInput> {
        match self.spec.kind {
            Kind::Dense if slice_no % SWAP_EVERY == SWAP_EVERY - 1 => {
                let id = (slice_no / SWAP_EVERY) as u64 + 2;
                Some((id, generation_matrices(&self.spec, self.seed, id)))
            }
            _ => None,
        }
    }

    /// One call: build and schedule the generation `swap` carries, if any,
    /// then serve slice `slice_no`.
    pub fn call(
        &self,
        service: &mut MatchService<'_>,
        slice_no: usize,
        swap: Option<SwapInput>,
    ) -> Vec<Response> {
        let slice = &self.slices[slice_no];
        if let Some((id, matrices)) = swap {
            let at_wave = slice.last().map_or(0, |a| a.at) / self.config.wave_units / 2;
            let generation = {
                cem_obs::span!("bench.generation_build");
                Generation::new(
                    id,
                    ServeIndex::new(self.spec.entities, self.spec.images, matrices),
                )
            };
            service.schedule_swap(at_wave, Ok(generation));
        }
        service.run_open_loop(slice, &NoFaults)
    }

    /// Serve passes until `seconds` of call wall time have passed, always
    /// finishing the first pass. The first pass is scored slice by slice;
    /// later passes stop at a slice boundary and must answer exactly as
    /// the first.
    pub fn run(&self, seconds: f64) -> WorkloadRun {
        let mut run = WorkloadRun::default();
        // Registered up front, so the check list does not depend on how
        // many passes fit into the run.
        run.check("serve.repeatable", true);
        let mut first: Vec<u64> = Vec::with_capacity(self.slices.len());
        'passes: loop {
            let mut service = self.service();
            let mut score = PassScore::default();
            for slice_no in 0..self.slices.len() {
                if run.reps > 0 && run.busy_s >= seconds {
                    break 'passes;
                }
                let swap = self.swap_input(slice_no);
                let started = Instant::now();
                let responses = self.call(&mut service, slice_no, swap);
                let elapsed = started.elapsed().as_secs_f64();
                run.busy_s += elapsed;
                run.calls_ms.push(elapsed * 1e3);
                run.items += responses.len() as u64;
                let digest = digest(&responses);
                if run.reps == 0 {
                    self.score_slice(&responses, &mut score);
                    first.push(digest);
                } else {
                    run.check("serve.repeatable", digest == first[slice_no]);
                }
            }
            if run.reps == 0 {
                self.score_pass(&service, score, &mut run);
            }
            run.reps += 1;
        }
        run
    }

    /// Fold one slice of the first pass into its score.
    fn score_slice(&self, responses: &[Response], score: &mut PassScore) {
        score.responses += responses.len();
        for r in responses {
            let Outcome::Served { tier, ranking } = &r.outcome else {
                continue;
            };
            score.latencies.push(r.latency_units());
            // Every dense ranking must be its own generation's; an IVF
            // full-tier ranking is pruned, so recall judges it instead.
            let (as_expected, oracle) = match &self.ivf {
                None => {
                    let Some(by_tier) = self.expected.get((r.generation as usize).wrapping_sub(1))
                    else {
                        score.wrong += 1;
                        continue;
                    };
                    (
                        by_tier[tier.index()][r.entity] == *ranking,
                        &by_tier[0][r.entity],
                    )
                }
                Some(ivf) => (
                    *tier == Tier::Full
                        || rank_row(ivf.index.row(*tier, r.entity), TOP_K) == *ranking,
                    &self.oracle[r.entity],
                ),
            };
            score.wrong += u64::from(!as_expected);
            let hits = ranking.iter().filter(|id| oracle.contains(id)).count();
            score.overlap += hits;
            if *tier == Tier::Full {
                score.full_overlap += hits;
                score.full_served += 1;
            }
        }
    }

    /// Deterministic outputs and correctness checks of the first pass.
    /// Requests the service sheds or expires under the burst are its
    /// designed response to load: they count towards `loss_rate`, not as
    /// failed operations. A wrong ranking or an internal error is a
    /// failure.
    fn score_pass(&self, service: &MatchService<'_>, mut score: PassScore, run: &mut WorkloadRun) {
        let arrivals: usize = self.slices.iter().map(Vec::len).sum();
        let stats = service.stats();
        let lost = stats.shed + stats.expired + stats.deadline_exceeded + stats.internal_errors;
        run.check(
            "serve.one_response_per_arrival",
            score.responses == arrivals,
        );
        run.check(
            "serve.outcomes_add_up",
            stats.served_total() + lost == arrivals as u64,
        );
        run.check("serve.rankings_match_their_generation", score.wrong == 0);
        run.check("serve.no_internal_errors", stats.internal_errors == 0);

        score.latencies.sort_unstable();
        let p99 = score
            .latencies
            .get((score.latencies.len().max(1) - 1) * 99 / 100)
            .copied()
            .unwrap_or(0);
        let recall = score.full_overlap as f64 / (TOP_K * score.full_served.max(1)) as f64;
        run.attempted += arrivals as u64;
        run.failed += score.wrong + stats.internal_errors;
        run.record("quality", score.overlap as f64 / (TOP_K * arrivals) as f64);
        run.record("loss_rate", lost as f64 / arrivals as f64);
        run.record("latency_units_p99", p99 as f64);
        run.record("recall_at_10", recall);
        let waves = stats.waves.max(1) as f64;
        let executed = stats.served_total() + stats.deadline_exceeded + stats.internal_errors;
        run.record("requests_per_wave", executed as f64 / waves);
        run.record(
            "brownout_share",
            stats.brownout_waves[1..].iter().sum::<u64>() as f64 / waves,
        );
        run.record("shed", stats.shed as f64);
        run.record("expired", stats.expired as f64);
        run.record("deadline_exceeded", stats.deadline_exceeded as f64);
        run.record(
            "fallbacks",
            (stats.cluster_fallbacks + stats.wave_fallbacks) as f64,
        );
        run.record("scrub_sections", service.scrub_stats().sections as f64);
        run.record("trace_lines", service.trace().len() as f64);
        match self.spec.kind {
            Kind::Dense => run.check(
                "serve.every_swap_promoted",
                stats.hotswap_promotes == self.generations() - 1 && stats.hotswap_rejects == 0,
            ),
            Kind::Ivf(_) => {
                run.check("serve.recall_at_10", recall >= 0.95);
                run.check(
                    "serve.ann_covers_full_tier",
                    stats.ann_requests == stats.served[0],
                );
                run.check(
                    "serve.no_shard_fallbacks",
                    stats.cluster_fallbacks == 0 && stats.wave_fallbacks == 0,
                );
            }
        }
    }
}
