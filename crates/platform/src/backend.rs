//! Evaluation backends: E3-CPU, E3-GPU, and E3-INAX.
//!
//! A backend owns the paper's "evaluate" phase: run every genome of a
//! generation through its environment episode and report fitness plus
//! modeled time. All backends are **functionally identical** — same
//! fitness for the same seed — and differ only in how the inference is
//! executed and therefore how long it takes (paper §VI-A's three
//! settings).
//!
//! Each backend has one kernel per execution style — software scalar,
//! software batched, INAX wave loop — over a [`ScenarioSpec`]; the
//! fixed-env entry point [`EvalBackend::try_evaluate_population`] is
//! its K = 1 case. Evaluation is fallible: a genome that cannot be
//! lowered to a feed-forward network surfaces as
//! [`EvalError::NotFeedForward`] instead of a panic, so callers (the
//! platform loop, sweeps, long benchmark campaigns) can decide how to
//! react. Backends are constructed either directly or through the
//! unified [`BackendBuilder`] (mirroring `InaxConfig::builder()`),
//! which yields the type-erased [`AnyBackend`].

use crate::scenario::{aggregate_fitness, FitnessAggregation, ScenarioSpec};
use crate::timing::{GpuCostModel, SwCostModel};
use e3_envs::{decode_action, Action, EnvId, Environment, ScenarioParams, StepBatch};
use e3_exec::{
    AnyExecutor, ExecError, ExecStats, ExecStatsState, Executor, JitConfig, SharedExecutor,
};
use e3_inax::{EpisodeRunReport, InaxAccelerator, InaxConfig, IrregularNet, UtilizationBreakdown};
use e3_neat::{DecodeError, ForwardPass, Genome, NetPlan, Network, PlanBatch};
use e3_telemetry::Tracer;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which backend executes "evaluate".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Software-only baseline (paper: E3-CPU).
    Cpu,
    /// GPU offload model (paper: E3-GPU).
    Gpu,
    /// INAX accelerator simulator (paper: E3-INAX).
    Inax,
}

impl BackendKind {
    /// All backends in the paper's comparison order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Cpu, BackendKind::Gpu, BackendKind::Inax];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cpu => "E3-CPU",
            BackendKind::Gpu => "E3-GPU",
            BackendKind::Inax => "E3-INAX",
        }
    }

    /// Starts a [`BackendBuilder`] for this kind with default cost
    /// models.
    pub fn builder(self) -> BackendBuilder {
        BackendBuilder::new(self)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing a [`BackendKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    input: String,
}

impl fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected one of: cpu, gpu, inax)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendKindError {}

impl FromStr for BackendKind {
    type Err = ParseBackendKindError;

    /// Accepts the paper names (`"E3-CPU"`) and the bare kinds
    /// (`"cpu"`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" | "e3-cpu" => Ok(BackendKind::Cpu),
            "gpu" | "e3-gpu" => Ok(BackendKind::Gpu),
            "inax" | "e3-inax" => Ok(BackendKind::Inax),
            _ => Err(ParseBackendKindError {
                input: s.to_string(),
            }),
        }
    }
}

/// Error produced when a population cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A genome could not be lowered to a feed-forward network (the
    /// only phenotype every backend can execute).
    NotFeedForward {
        /// Index of the offending genome in the evaluated slice.
        genome_index: usize,
        /// Why decoding failed.
        reason: DecodeError,
    },
    /// The parallel executor failed (a shard task panicked or a worker
    /// thread was lost).
    ExecFailed(ExecError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotFeedForward {
                genome_index,
                reason,
            } => write!(f, "genome {genome_index} is not feed-forward: {reason}"),
            EvalError::ExecFailed(err) => write!(f, "parallel evaluation failed: {err}"),
        }
    }
}

impl From<ExecError> for EvalError {
    fn from(err: ExecError) -> Self {
        EvalError::ExecFailed(err)
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::NotFeedForward { reason, .. } => Some(reason),
            EvalError::ExecFailed(err) => Some(err),
        }
    }
}

/// Result of evaluating one generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Fitness per genome, in population order.
    pub fitnesses: Vec<f64>,
    /// Episode length per genome.
    pub steps_per_genome: Vec<u64>,
    /// Modeled seconds spent on NN inference (the backend's share).
    pub eval_seconds: f64,
    /// Modeled seconds of CPU-side environment stepping.
    pub env_seconds: f64,
    /// Total environment steps across the generation.
    pub total_steps: u64,
    /// Accelerator accounting (INAX backend only).
    pub hw_report: Option<EpisodeRunReport>,
    /// Cycle-level per-PU/per-PE utilization accounting (INAX backend
    /// only).
    pub hw_utilization: Option<UtilizationBreakdown>,
}

/// The "evaluate" phase executor.
///
/// Evaluation is always over a [`ScenarioSpec`]: every genome runs one
/// episode per sampled world and its per-world fitnesses aggregate into
/// one. A backend implements the scalar kernel (and optionally a
/// batched one) once; the fixed-env entry points
/// [`EvalBackend::try_evaluate_population`] and
/// [`EvalBackend::try_evaluate_population_batched`] are the K = 1 case
/// ([`ScenarioSpec::fixed_env`]).
pub trait EvalBackend {
    /// Backend identity.
    fn kind(&self) -> BackendKind;

    /// Evaluates every genome over the spec's K scenarios with the
    /// scalar per-genome path, returning aggregated fitnesses and
    /// modeled timing, or an [`EvalError`] if any genome cannot be
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no scenario or its episode-seed matrix is
    /// not `genomes.len() × K`.
    fn try_evaluate_population_scenarios(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError>;

    /// Evaluates every genome over the spec's K scenarios through the
    /// population-major batched pipeline where the backend supports
    /// it.
    ///
    /// The contract is strict: the returned [`EvalOutcome`] must be
    /// **bit-identical** to
    /// [`EvalBackend::try_evaluate_population_scenarios`] on the same
    /// arguments (with the `fast-math` cargo feature off). The default
    /// implementation simply delegates to the scalar path, so backends
    /// without a batched kernel are automatically conformant; the
    /// software backends (CPU, GPU) override it with the
    /// [`e3_neat::PlanBatch`] + [`e3_envs::BatchEnv`] lockstep kernel,
    /// which shards the population per-worker instead of
    /// per-individual.
    ///
    /// # Errors
    ///
    /// Same as [`EvalBackend::try_evaluate_population_scenarios`].
    fn try_evaluate_population_scenarios_batched(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        self.try_evaluate_population_scenarios(genomes, env, spec)
    }

    /// Evaluates every genome on one default-physics episode of `env`
    /// started from `episode_seed`: the scalar kernel on the K = 1
    /// [`ScenarioSpec::fixed_env`] spec.
    ///
    /// # Errors
    ///
    /// Same as [`EvalBackend::try_evaluate_population_scenarios`].
    fn try_evaluate_population(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        episode_seed: u64,
    ) -> Result<EvalOutcome, EvalError> {
        let spec = ScenarioSpec::fixed_env(episode_seed, genomes.len());
        self.try_evaluate_population_scenarios(genomes, env, &spec)
    }

    /// Batched twin of [`EvalBackend::try_evaluate_population`]:
    /// [`EvalBackend::try_evaluate_population_scenarios_batched`] on
    /// the K = 1 [`ScenarioSpec::fixed_env`] spec, bit-identical to the
    /// scalar entry point.
    ///
    /// # Errors
    ///
    /// Same as [`EvalBackend::try_evaluate_population_scenarios`].
    fn try_evaluate_population_batched(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        episode_seed: u64,
    ) -> Result<EvalOutcome, EvalError> {
        let spec = ScenarioSpec::fixed_env(episode_seed, genomes.len());
        self.try_evaluate_population_scenarios_batched(genomes, env, &spec)
    }

    /// Takes (consumes) the executor statistics of the most recent
    /// successful evaluation.
    ///
    /// The default returns [`ExecStatsState::Unavailable`]: the backend
    /// runs no executor and can never produce stats. Backends that *do*
    /// run one return [`ExecStatsState::Idle`] when no evaluation has
    /// completed since the last take, and [`ExecStatsState::Ready`]
    /// otherwise — so callers can tell "this backend has no stats to
    /// offer" from "nothing has run yet" instead of both collapsing to
    /// a silently dropped `None`.
    ///
    /// Stats are observability only: they describe the nondeterministic
    /// execution schedule (wall times, steals, cache hits), never the
    /// results, which are bit-identical across thread counts.
    fn take_exec_stats(&mut self) -> ExecStatsState {
        ExecStatsState::Unavailable
    }

    /// Installs a tracer; subsequent evaluations record `shard` /
    /// `individual` / `episode` spans into it. The default ignores the
    /// tracer (backends without instrumentation stay valid). Tracing is
    /// write-only: results are bit-identical with any tracer installed.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Installs the tiered-execution (JIT) policy on the backend's
    /// executor, affecting scalar evaluations from the next call on.
    /// The default ignores the policy — backends without a software
    /// scalar path (e.g. INAX) stay valid — and because the native
    /// tier is bit-identical to the interpreter, installing a policy
    /// can never change results, only speed and telemetry.
    fn set_jit(&mut self, _config: JitConfig) {}
}

/// Runs one network's episode in software, returning
/// `(fitness, steps)`. Generic over the [`ForwardPass`] seam so the
/// same kernel drives the interpreted [`Network`] and the JIT tier's
/// `CompiledPlan` — which are bit-identical by contract, so the episode
/// trajectory cannot depend on the tier.
pub(crate) fn run_software_episode(
    net: &mut dyn ForwardPass,
    env: &mut dyn Environment,
    episode_seed: u64,
) -> (f64, u64) {
    let space = env.action_space();
    let mut obs = env.reset(episode_seed);
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        let outputs = net.activate_into(&obs);
        let action = decode_action(outputs, &space);
        let step = env.step(&action);
        fitness += step.reward;
        steps += 1;
        obs = step.observation;
        if step.terminated || step.truncated {
            return (fitness, steps);
        }
    }
}

/// A shard's result for one work item (a genome row or an INAX wave),
/// or the lowest-indexed decode failure the item hit.
type ShardRow<T> = Result<T, (usize, DecodeError)>;

/// Per-genome `(fitness, steps, inference_seconds)` row of a software
/// evaluation, or the decode failure for that genome.
type SoftwareRow = ShardRow<(f64, u64, f64)>;

/// Population-order `(fitness, steps, inference_seconds)` rows plus the
/// executor's observability counters for the run.
type SoftwareRun = (Vec<(f64, u64, f64)>, ExecStats);

/// Unwraps shard results in item order. Shards are contiguous index
/// ranges and each item reports its lowest-indexed decode failure, so
/// the first error in order is the lowest-indexed one — the serial
/// loop's first-failure semantics.
fn collect_rows<T>(results: Vec<ShardRow<T>>) -> Result<Vec<T>, EvalError> {
    results
        .into_iter()
        .map(|row| {
            row.map_err(|(genome_index, reason)| EvalError::NotFeedForward {
                genome_index,
                reason,
            })
        })
        .collect()
}

/// Shard size for software evaluation: ~4 shards per worker so work
/// stealing can absorb episode-length imbalance without flooding the
/// queues. Depends only on the population size and worker count, never
/// on timing, so every run produces the same shard plan.
fn software_shard_size(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1) * 4).max(1)
}

/// Shard size for **batched** software evaluation: one coarse shard per
/// worker. Unlike the scalar path (which over-shards 4× for stealing),
/// the batched kernel amortizes per-step overhead across its whole
/// lane set, so bigger batches are strictly better and imbalance is
/// absorbed by lane parking instead of work stealing. Depends only on
/// the population size and worker count, never on timing.
fn batch_shard_size(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1)).max(1)
}

/// The per-shard closure state of a scenario evaluation: the sampled
/// worlds, the genome-major episode-seed matrix, and the aggregation,
/// shared immutably across workers.
struct SharedSpec {
    params: Arc<[ScenarioParams]>,
    episode_seeds: Arc<[u64]>,
    aggregation: FitnessAggregation,
}

impl SharedSpec {
    fn new(spec: &ScenarioSpec) -> Self {
        SharedSpec {
            params: spec.params.clone().into(),
            episode_seeds: spec.episode_seeds.clone().into(),
            aggregation: spec.aggregation,
        }
    }

    fn scenarios(&self) -> usize {
        self.params.len()
    }
}

/// Asserts the spec's seed matrix covers the population.
fn check_spec(genomes: &[Genome], spec: &ScenarioSpec) {
    assert!(
        !spec.params.is_empty(),
        "scenario evaluation needs at least one scenario"
    );
    assert_eq!(
        spec.episode_seeds.len(),
        genomes.len() * spec.params.len(),
        "episode-seed matrix must be population × scenarios, genome-major"
    );
}

/// Scalar software evaluation on the given executor: per genome, decode
/// (through the per-worker cache, which may hand out the JIT tier's
/// native twin) then run one episode per sampled world, collapsing the
/// per-scenario fitnesses with the spec's aggregation and pricing each
/// inference with `cost`. The reference the batched kernel is checked
/// against.
///
/// Bit-identical to a serial loop: shard tasks depend only on genome
/// index, and rows are reduced lowest-index-first (see `e3-exec`'s
/// determinism contract).
fn run_software_population_scenarios<C>(
    exec: &mut AnyExecutor,
    genomes: &[Genome],
    env_id: EnvId,
    spec: &ScenarioSpec,
    tracer: Tracer,
    cost: C,
) -> Result<SoftwareRun, EvalError>
where
    C: Fn(&Network) -> f64 + Send + Sync + 'static,
{
    check_spec(genomes, spec);
    let pop: Arc<[Genome]> = genomes.into();
    let shared = SharedSpec::new(spec);
    let shard_size = software_shard_size(genomes.len(), exec.workers());
    let run = exec.run_shards(genomes.len(), shard_size, move |scratch, range| {
        let mut shard_span = tracer.span("shard", "exec");
        shard_span.arg("start", range.start as f64);
        shard_span.arg("items", range.len() as f64);
        let k = shared.scenarios();
        // One env per scenario, reused by every genome of the shard:
        // `reset` restores the full episode state, so reuse cannot leak
        // state between genomes.
        let mut envs: Vec<Box<dyn Environment>> = shared
            .params
            .iter()
            .map(|params| env_id.make_scenario(params))
            .collect();
        let mut fits = Vec::with_capacity(k);
        range
            .map(|i| -> SoftwareRow {
                let mut individual_span = tracer.span("individual", "eval");
                individual_span.arg("genome_index", i as f64);
                // Tier selection: the interpreted network, or (for hot
                // entries under an enabled JIT policy) its natively
                // compiled twin — bit-identical either way.
                let mut tier = scratch
                    .cache()
                    .get_or_tiered(&pop[i])
                    .map_err(|reason| (i, reason))?;
                let per_inference = cost(tier.net());
                fits.clear();
                let mut genome_steps = 0u64;
                for (s, env) in envs.iter_mut().enumerate() {
                    let mut episode_span = tracer.start("episode", "env");
                    episode_span.arg("scenario", s as f64);
                    let (fitness, steps) = run_software_episode(
                        tier.forward(),
                        env.as_mut(),
                        shared.episode_seeds[i * k + s],
                    );
                    episode_span.arg("steps", steps as f64);
                    episode_span.finish();
                    fits.push(fitness);
                    genome_steps += steps;
                }
                Ok((
                    aggregate_fitness(&fits, shared.aggregation),
                    genome_steps,
                    per_inference * genome_steps as f64,
                ))
            })
            .collect()
    })?;
    Ok((collect_rows(run.results)?, run.stats))
}

/// Batched software evaluation: each shard packs `genomes × K` lanes
/// (genome-major, each genome's [`NetPlan`] replicated K times) into
/// one [`PlanBatch`], drives all lanes through a heterogeneous-scenario
/// [`e3_envs::BatchEnv`] in lockstep, parks lanes whose episodes finish
/// early, then aggregates per genome.
///
/// Bit-identical to [`run_software_population_scenarios`] with
/// `fast-math` off: every lane's FP order matches its scalar twin,
/// parked lanes contribute nothing, plans are priced identically to
/// their decoded networks, and per-genome reduction (aggregation, step
/// sums, pricing) uses the same expressions in population order.
fn run_software_population_scenarios_batched<C>(
    exec: &mut AnyExecutor,
    genomes: &[Genome],
    env_id: EnvId,
    spec: &ScenarioSpec,
    tracer: Tracer,
    cost: C,
) -> Result<SoftwareRun, EvalError>
where
    C: Fn(&NetPlan) -> f64 + Send + Sync + 'static,
{
    check_spec(genomes, spec);
    let pop: Arc<[Genome]> = genomes.into();
    let shared = SharedSpec::new(spec);
    let shard_size = batch_shard_size(genomes.len(), exec.workers());
    let run = exec.run_shards(genomes.len(), shard_size, move |scratch, range| {
        let mut shard_span = tracer.span("shard", "exec");
        shard_span.arg("start", range.start as f64);
        shard_span.arg("items", range.len() as f64);
        let base = range.start;
        let k = shared.scenarios();
        // Decode every resident up front through the worker's plan
        // cache. The cache hands out borrows tied to `&mut self`, so
        // plans are cloned out before batching. On the first decode
        // failure the shard still returns one row per item (the
        // executor asserts that): an `Err` at the failing index and
        // inert rows elsewhere — the index-ordered reduce then surfaces
        // the lowest-indexed failure, exactly like the scalar path.
        let mut plans = Vec::with_capacity(range.len());
        for i in range.clone() {
            match scratch.cache().get_or_plan(&pop[i]) {
                Ok(plan) => plans.push(plan.clone()),
                Err(reason) => {
                    return range
                        .map(|j| -> SoftwareRow {
                            if j == i {
                                Err((i, reason.clone()))
                            } else {
                                Ok((0.0, 0, 0.0))
                            }
                        })
                        .collect();
                }
            }
        }
        let shard_genomes = plans.len();
        let lanes = shard_genomes * k;
        let per_inference: Vec<f64> = plans.iter().map(&cost).collect();
        // Genome-major lane layout: lane = local_genome * K + scenario.
        let plan_refs: Vec<&NetPlan> = plans
            .iter()
            .flat_map(|plan| std::iter::repeat_n(plan, k))
            .collect();
        let batch = PlanBatch::build(&plan_refs);
        let lane_params: Vec<ScenarioParams> =
            (0..lanes).map(|lane| shared.params[lane % k]).collect();
        let lane_seeds: Vec<u64> = range
            .clone()
            .flat_map(|i| {
                let seeds = &shared.episode_seeds;
                (0..k).map(move |s| seeds[i * k + s])
            })
            .collect();
        let mut env = env_id.make_batch_scenarios(&lane_params);
        let space = env.action_space();
        let mut sb = StepBatch::new(lanes, env.observation_size());
        env.reset_batch(&lane_seeds, &mut sb);
        let mut values = vec![0.0; batch.value_buffer_slots()];
        let outputs_per_lane = batch.num_outputs();
        let mut outputs = vec![0.0; lanes * outputs_per_lane];
        let mut actions: Vec<Action> = vec![Action::Discrete(0); lanes];
        let mut was_active = vec![false; lanes];
        let mut fitness = vec![0.0f64; lanes];
        let mut steps = vec![0u64; lanes];
        // Lockstep episodes interleave, so their spans cannot nest
        // lexically: one explicit timer per lane, finished when its
        // episode parks (same convention as the INAX wave loop).
        let mut episode_timers: Vec<Option<e3_telemetry::SpanTimer>> = (0..lanes)
            .map(|lane| {
                let mut timer = tracer.start("episode", "env");
                timer.arg("genome_index", (base + lane / k) as f64);
                timer.arg("scenario", (lane % k) as f64);
                Some(timer)
            })
            .collect();
        while !sb.all_parked() {
            batch.activate_batch_into(&sb.observations, &sb.active, &mut values, &mut outputs);
            for b in 0..lanes {
                if sb.active[b] {
                    actions[b] = decode_action(
                        &outputs[b * outputs_per_lane..(b + 1) * outputs_per_lane],
                        &space,
                    );
                    steps[b] += 1;
                }
            }
            was_active.copy_from_slice(&sb.active);
            env.step_batch(&actions, &mut sb);
            for b in 0..lanes {
                // Accumulate only lanes that actually stepped, so the
                // sum is the exact FP sequence of the solo episode.
                if was_active[b] {
                    fitness[b] += sb.rewards[b];
                    if !sb.active[b] {
                        if let Some(mut timer) = episode_timers[b].take() {
                            timer.arg("steps", steps[b] as f64);
                            timer.finish();
                        }
                    }
                }
            }
        }
        (0..shard_genomes)
            .map(|g| {
                let fits = &fitness[g * k..(g + 1) * k];
                let genome_steps: u64 = steps[g * k..(g + 1) * k].iter().sum();
                Ok((
                    aggregate_fitness(fits, shared.aggregation),
                    genome_steps,
                    per_inference[g] * genome_steps as f64,
                ))
            })
            .collect()
    })?;
    Ok((collect_rows(run.results)?, run.stats))
}

/// Reduces software rows into an [`EvalOutcome`], accumulating modeled
/// seconds in population order (the serial summation order).
fn reduce_software_rows(rows: Vec<(f64, u64, f64)>, sec_per_env_step: f64) -> EvalOutcome {
    let mut fitnesses = Vec::with_capacity(rows.len());
    let mut steps_per_genome = Vec::with_capacity(rows.len());
    let mut eval_seconds = 0.0;
    let mut total_steps = 0u64;
    for (fitness, steps, seconds) in rows {
        fitnesses.push(fitness);
        steps_per_genome.push(steps);
        eval_seconds += seconds;
        total_steps += steps;
    }
    EvalOutcome {
        fitnesses,
        steps_per_genome,
        eval_seconds,
        env_seconds: total_steps as f64 * sec_per_env_step,
        total_steps,
        hw_report: None,
        hw_utilization: None,
    }
}

/// E3-CPU: software evaluation with the interpreted-runtime cost
/// model. Optionally evaluates genomes on multiple host threads —
/// NE's embarrassing parallelism is one of the properties the paper
/// cites ([35], [43]) — without changing the *modeled* single-CPU
/// time, so timing comparisons stay faithful to the baseline platform.
#[derive(Debug)]
pub struct CpuBackend {
    model: SwCostModel,
    exec: AnyExecutor,
    last_exec: Option<ExecStats>,
    tracer: Tracer,
}

impl CpuBackend {
    /// Creates the backend with the given cost model (single-threaded
    /// host execution).
    pub fn new(model: SwCostModel) -> Self {
        CpuBackend::with_threads(model, 1)
    }

    /// Creates the backend with host-side parallel evaluation across
    /// `threads` virtual PUs. Fitness values are bit-identical to the
    /// serial backend (see `e3-exec`); only the harness's wall-clock
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(model: SwCostModel, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        CpuBackend::with_executor(model, AnyExecutor::new(threads))
    }

    /// Creates the backend on a caller-supplied executor — typically an
    /// [`AnyExecutor::Shared`] handle so many concurrent runs (islands)
    /// time-slice one worker pool. Results are bit-identical to an
    /// exclusive executor of the same width.
    pub fn with_executor(model: SwCostModel, exec: AnyExecutor) -> Self {
        CpuBackend {
            model,
            exec,
            last_exec: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Number of host worker threads.
    pub fn threads(&self) -> usize {
        self.exec.workers()
    }
}

impl Clone for CpuBackend {
    /// Clones the configuration and shares the installed tracer. An
    /// exclusive executor is re-created at the same width (private
    /// pools are never shared implicitly); a shared-pool handle stays
    /// attached to the same pool.
    fn clone(&self) -> Self {
        let mut clone = CpuBackend::with_executor(self.model, self.exec.fork());
        clone.tracer = self.tracer.clone();
        clone
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new(SwCostModel::default())
    }
}

impl EvalBackend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn try_evaluate_population_scenarios(
        &mut self,
        genomes: &[Genome],
        env_id: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let model = self.model;
        let (rows, stats) = run_software_population_scenarios(
            &mut self.exec,
            genomes,
            env_id,
            spec,
            self.tracer.clone(),
            move |net| model.inference_seconds(net),
        )?;
        self.last_exec = Some(stats);
        Ok(reduce_software_rows(rows, self.model.sec_per_env_step))
    }

    fn try_evaluate_population_scenarios_batched(
        &mut self,
        genomes: &[Genome],
        env_id: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let model = self.model;
        let (rows, stats) = run_software_population_scenarios_batched(
            &mut self.exec,
            genomes,
            env_id,
            spec,
            self.tracer.clone(),
            move |plan| model.inference_seconds_plan(plan),
        )?;
        self.last_exec = Some(stats);
        Ok(reduce_software_rows(rows, self.model.sec_per_env_step))
    }

    fn take_exec_stats(&mut self) -> ExecStatsState {
        match self.last_exec.take() {
            Some(stats) => ExecStatsState::Ready(stats),
            None => ExecStatsState::Idle,
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_jit(&mut self, config: JitConfig) {
        self.exec.set_jit(config);
    }
}

/// E3-GPU: functionally identical to software evaluation, but timed
/// with the launch-bound GPU cost model.
#[derive(Debug)]
pub struct GpuBackend {
    sw: SwCostModel,
    gpu: GpuCostModel,
    exec: AnyExecutor,
    last_exec: Option<ExecStats>,
    tracer: Tracer,
}

impl GpuBackend {
    /// Creates the backend with the given cost models (`sw` prices the
    /// CPU-side env stepping).
    pub fn new(sw: SwCostModel, gpu: GpuCostModel) -> Self {
        GpuBackend::with_threads(sw, gpu, 1)
    }

    /// Creates the backend with host-side parallel evaluation across
    /// `threads` virtual PUs; results are bit-identical to serial.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(sw: SwCostModel, gpu: GpuCostModel, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        GpuBackend::with_executor(sw, gpu, AnyExecutor::new(threads))
    }

    /// Creates the backend on a caller-supplied executor (see
    /// [`CpuBackend::with_executor`]).
    pub fn with_executor(sw: SwCostModel, gpu: GpuCostModel, exec: AnyExecutor) -> Self {
        GpuBackend {
            sw,
            gpu,
            exec,
            last_exec: None,
            tracer: Tracer::disabled(),
        }
    }
}

impl Clone for GpuBackend {
    /// Clones the configuration and shares the installed tracer. An
    /// exclusive executor is re-created at the same width (private
    /// pools are never shared implicitly); a shared-pool handle stays
    /// attached to the same pool.
    fn clone(&self) -> Self {
        let mut clone = GpuBackend::with_executor(self.sw, self.gpu, self.exec.fork());
        clone.tracer = self.tracer.clone();
        clone
    }
}

impl Default for GpuBackend {
    fn default() -> Self {
        GpuBackend::new(SwCostModel::default(), GpuCostModel::default())
    }
}

impl EvalBackend for GpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Gpu
    }

    fn try_evaluate_population_scenarios(
        &mut self,
        genomes: &[Genome],
        env_id: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let gpu = self.gpu;
        let (rows, stats) = run_software_population_scenarios(
            &mut self.exec,
            genomes,
            env_id,
            spec,
            self.tracer.clone(),
            move |net| gpu.inference_seconds(net),
        )?;
        self.last_exec = Some(stats);
        Ok(reduce_software_rows(rows, self.sw.sec_per_env_step))
    }

    fn try_evaluate_population_scenarios_batched(
        &mut self,
        genomes: &[Genome],
        env_id: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let gpu = self.gpu;
        let (rows, stats) = run_software_population_scenarios_batched(
            &mut self.exec,
            genomes,
            env_id,
            spec,
            self.tracer.clone(),
            move |plan| gpu.inference_seconds_plan(plan),
        )?;
        self.last_exec = Some(stats);
        Ok(reduce_software_rows(rows, self.sw.sec_per_env_step))
    }

    fn take_exec_stats(&mut self) -> ExecStatsState {
        match self.last_exec.take() {
            Some(stats) => ExecStatsState::Ready(stats),
            None => ExecStatsState::Idle,
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_jit(&mut self, config: JitConfig) {
        self.exec.set_jit(config);
    }
}

/// E3-INAX: batches the population onto the INAX simulator, one
/// individual per PU, and drives the closed CPU↔FPGA loop of paper
/// Fig. 5.
///
/// Under a parallel executor, each **wave** (one batch of `num_pu`
/// individuals) runs on its own simulated accelerator instance and the
/// per-wave [`EpisodeRunReport`]s are merged in wave order — every
/// counter is additive, so the accounting is bit-identical to one
/// accelerator executing all waves serially.
#[derive(Debug)]
pub struct InaxBackend {
    config: InaxConfig,
    sw: SwCostModel,
    exec: AnyExecutor,
    last_exec: Option<ExecStats>,
    tracer: Tracer,
}

/// Everything one INAX wave produces: per-resident fitness and episode
/// lengths, the wave's cycle accounting and utilization breakdown, and
/// its env-step count.
struct WaveResult {
    fitnesses: Vec<f64>,
    steps: Vec<u64>,
    report: EpisodeRunReport,
    util: UtilizationBreakdown,
    total_steps: u64,
}

impl InaxBackend {
    /// Creates the backend. `sw` prices the CPU-side env stepping (the
    /// env stays a CPU program in all settings).
    pub fn new(config: InaxConfig, sw: SwCostModel) -> Self {
        InaxBackend::with_threads(config, sw, 1)
    }

    /// Creates the backend with waves simulated across `threads`
    /// host workers; results and accounting are bit-identical to
    /// serial.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(config: InaxConfig, sw: SwCostModel, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        InaxBackend::with_executor(config, sw, AnyExecutor::new(threads))
    }

    /// Creates the backend on a caller-supplied executor (see
    /// [`CpuBackend::with_executor`]).
    pub fn with_executor(config: InaxConfig, sw: SwCostModel, exec: AnyExecutor) -> Self {
        InaxBackend {
            config,
            sw,
            exec,
            last_exec: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &InaxConfig {
        &self.config
    }
}

impl EvalBackend for InaxBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Inax
    }

    /// Runs the INAX wave loop: each wave loads its residents once,
    /// then runs the lock-step episode loop once per scenario against
    /// fresh scenario-parameterized environments — weights stream onto
    /// the PUs a single time however many worlds the wave faces.
    /// Per-resident fitnesses aggregate exactly like the software
    /// backends, so all backends agree on fitness. INAX already batches
    /// onto the accelerator's PUs, so the batched entry point takes
    /// this loop too (the trait default).
    fn try_evaluate_population_scenarios(
        &mut self,
        genomes: &[Genome],
        env_id: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        check_spec(genomes, spec);
        let num_pu = self.config.num_pu;
        let num_waves = genomes.len().div_ceil(num_pu.max(1));
        let pop: Arc<[Genome]> = genomes.into();
        let shared = SharedSpec::new(spec);
        let config = self.config.clone();
        let tracer = self.tracer.clone();

        // One work item per wave: each runs its batch on a private
        // accelerator instance (a "virtual PU cluster"). Residents are
        // lowered inside the wave through the worker's plan cache —
        // genome→NetPlan compiles once per fingerprint and the
        // hardware view is a direct copy of the plan — so unchanged
        // elites skip CreateNet here exactly like on the software
        // backends.
        let run = self.exec.run_shards(num_waves, 1, move |scratch, range| {
            let k = shared.scenarios();
            range
                .map(|wave| -> ShardRow<WaveResult> {
                    let base = wave * num_pu;
                    let end = (base + num_pu).min(pop.len());
                    let mut batch = Vec::with_capacity(end - base);
                    for i in base..end {
                        let plan = scratch
                            .cache()
                            .get_or_plan(&pop[i])
                            .map_err(|reason| (i, reason))?;
                        batch.push(IrregularNet::from_plan(plan));
                    }
                    let residents = batch.len();
                    let mut wave_span = tracer.span("shard", "exec");
                    wave_span.arg("wave", wave as f64);
                    wave_span.arg("items", residents as f64);
                    wave_span.arg("scenarios", k as f64);
                    let mut accelerator = InaxAccelerator::new(config.clone());
                    accelerator.load_batch(batch);
                    let mut per_scenario = vec![vec![0.0f64; k]; residents];
                    let mut steps_per_genome = vec![0u64; residents];
                    let mut total_steps = 0u64;
                    // `s` indexes three parallel per-scenario arrays,
                    // so a range loop reads better than zipping them.
                    #[allow(clippy::needless_range_loop)]
                    for s in 0..k {
                        // One environment instance per resident.
                        let mut envs: Vec<Box<dyn Environment>> = (0..residents)
                            .map(|_| env_id.make_scenario(&shared.params[s]))
                            .collect();
                        let space = envs
                            .first()
                            .expect("waves are non-empty by construction")
                            .action_space();
                        let mut observations: Vec<Option<Vec<f64>>> = envs
                            .iter_mut()
                            .enumerate()
                            .map(|(i, e)| Some(e.reset(shared.episode_seeds[(base + i) * k + s])))
                            .collect();
                        // Episodes in a wave interleave in lock-step, so
                        // their spans cannot nest lexically: one explicit
                        // timer per resident, finished when its episode
                        // terminates. Inert (no clock) when disabled.
                        let mut episode_timers: Vec<Option<e3_telemetry::SpanTimer>> = (0
                            ..residents)
                            .map(|i| {
                                let mut timer = tracer.start("episode", "env");
                                timer.arg("genome_index", (base + i) as f64);
                                timer.arg("scenario", s as f64);
                                Some(timer)
                            })
                            .collect();
                        let mut episode_steps = vec![0u64; residents];
                        while observations.iter().any(Option::is_some) {
                            let outputs = accelerator.step(&observations);
                            for (i, output) in outputs.into_iter().enumerate() {
                                let Some(out) = output else { continue };
                                let action = decode_action(&out, &space);
                                let step = envs[i].step(&action);
                                per_scenario[i][s] += step.reward;
                                episode_steps[i] += 1;
                                steps_per_genome[i] += 1;
                                total_steps += 1;
                                observations[i] = if step.terminated || step.truncated {
                                    if let Some(mut timer) = episode_timers[i].take() {
                                        timer.arg("steps", episode_steps[i] as f64);
                                        timer.finish();
                                    }
                                    None
                                } else {
                                    Some(step.observation)
                                };
                            }
                        }
                    }
                    accelerator.unload_batch();
                    let fitnesses = per_scenario
                        .iter()
                        .map(|fits| aggregate_fitness(fits, shared.aggregation))
                        .collect();
                    Ok(WaveResult {
                        fitnesses,
                        steps: steps_per_genome,
                        report: accelerator.report(),
                        util: accelerator.utilization().clone(),
                        total_steps,
                    })
                })
                .collect()
        })?;

        // Wave-ordered reduction: counters are additive, so this is
        // the accounting a single accelerator would have produced.
        // Waves are contiguous index ranges and each wave lowers its
        // residents in index order, so the lowest-indexed
        // non-feed-forward genome is the one reported.
        let mut fitnesses = Vec::with_capacity(genomes.len());
        let mut steps_per_genome = Vec::with_capacity(genomes.len());
        let mut total_steps = 0u64;
        let mut report = EpisodeRunReport::default();
        let mut util = UtilizationBreakdown::default();
        for wave in collect_rows(run.results)? {
            fitnesses.extend(wave.fitnesses);
            steps_per_genome.extend(wave.steps);
            total_steps += wave.total_steps;
            report.merge(&wave.report);
            util.merge(&wave.util);
        }
        self.last_exec = Some(run.stats);
        Ok(EvalOutcome {
            fitnesses,
            steps_per_genome,
            eval_seconds: self.config.cycles_to_seconds(report.total_cycles),
            env_seconds: total_steps as f64 * self.sw.sec_per_env_step,
            total_steps,
            hw_report: Some(report),
            hw_utilization: Some(util),
        })
    }

    fn take_exec_stats(&mut self) -> ExecStatsState {
        match self.last_exec.take() {
            Some(stats) => ExecStatsState::Ready(stats),
            None => ExecStatsState::Idle,
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

/// A backend of any kind behind one concrete type.
///
/// This is what [`BackendBuilder::build`] produces and what
/// `E3Platform` runs on: enum dispatch instead of `Box<dyn>` keeps the
/// platform `Debug` and cheap to construct in sweeps.
#[derive(Debug)]
pub enum AnyBackend {
    /// Software baseline.
    Cpu(CpuBackend),
    /// GPU offload model.
    Gpu(GpuBackend),
    /// INAX accelerator simulator.
    Inax(InaxBackend),
}

impl EvalBackend for AnyBackend {
    fn kind(&self) -> BackendKind {
        match self {
            AnyBackend::Cpu(_) => BackendKind::Cpu,
            AnyBackend::Gpu(_) => BackendKind::Gpu,
            AnyBackend::Inax(_) => BackendKind::Inax,
        }
    }

    fn try_evaluate_population_scenarios(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        match self {
            AnyBackend::Cpu(b) => b.try_evaluate_population_scenarios(genomes, env, spec),
            AnyBackend::Gpu(b) => b.try_evaluate_population_scenarios(genomes, env, spec),
            AnyBackend::Inax(b) => b.try_evaluate_population_scenarios(genomes, env, spec),
        }
    }

    fn try_evaluate_population_scenarios_batched(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        match self {
            AnyBackend::Cpu(b) => b.try_evaluate_population_scenarios_batched(genomes, env, spec),
            AnyBackend::Gpu(b) => b.try_evaluate_population_scenarios_batched(genomes, env, spec),
            AnyBackend::Inax(b) => b.try_evaluate_population_scenarios_batched(genomes, env, spec),
        }
    }

    fn take_exec_stats(&mut self) -> ExecStatsState {
        match self {
            AnyBackend::Cpu(b) => b.take_exec_stats(),
            AnyBackend::Gpu(b) => b.take_exec_stats(),
            AnyBackend::Inax(b) => b.take_exec_stats(),
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            AnyBackend::Cpu(b) => b.set_tracer(tracer),
            AnyBackend::Gpu(b) => b.set_tracer(tracer),
            AnyBackend::Inax(b) => b.set_tracer(tracer),
        }
    }

    fn set_jit(&mut self, config: JitConfig) {
        match self {
            AnyBackend::Cpu(b) => b.set_jit(config),
            AnyBackend::Gpu(b) => b.set_jit(config),
            // INAX lowers plans to hardware; it has no software scalar
            // path to tier (the trait default ignores the policy).
            AnyBackend::Inax(_) => {}
        }
    }
}

/// Unified builder for any evaluation backend, mirroring
/// `InaxConfig::builder()`.
///
/// # Example
///
/// ```
/// use e3_platform::{BackendBuilder, BackendKind, EvalBackend};
/// use e3_inax::InaxConfig;
///
/// let mut backend = BackendBuilder::new(BackendKind::Inax)
///     .inax(InaxConfig::builder().num_pu(8).num_pe(2).build())
///     .build();
/// assert_eq!(backend.kind(), BackendKind::Inax);
/// ```
#[derive(Debug, Clone)]
pub struct BackendBuilder {
    kind: BackendKind,
    sw: SwCostModel,
    gpu: GpuCostModel,
    inax: InaxConfig,
    threads: usize,
    executor: Option<SharedExecutor>,
    tracer: Tracer,
}

impl BackendBuilder {
    /// Starts a builder for `kind` with default cost models and
    /// single-threaded host execution.
    pub fn new(kind: BackendKind) -> Self {
        BackendBuilder {
            kind,
            sw: SwCostModel::default(),
            gpu: GpuCostModel::default(),
            inax: InaxConfig::default(),
            threads: 1,
            executor: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the software cost model (used by every backend for the
    /// CPU-side env stepping).
    pub fn sw(mut self, model: SwCostModel) -> Self {
        self.sw = model;
        self
    }

    /// Sets the GPU cost model (E3-GPU only).
    pub fn gpu(mut self, model: GpuCostModel) -> Self {
        self.gpu = model;
        self
    }

    /// Sets the INAX hardware configuration (E3-INAX only).
    pub fn inax(mut self, config: InaxConfig) -> Self {
        self.inax = config;
        self
    }

    /// Sets the number of host worker threads ("virtual PUs") the
    /// backend evaluates on. Applies to every backend kind; results
    /// are bit-identical to `threads = 1`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates on a caller-supplied shared pool instead of a private
    /// executor — many concurrent runs (islands) time-slice one pool
    /// at population-evaluation granularity. Overrides
    /// [`BackendBuilder::threads`]. Results are bit-identical to a
    /// private executor of the same width.
    pub fn executor(mut self, shared: SharedExecutor) -> Self {
        self.executor = Some(shared);
        self
    }

    /// Installs a span tracer on the built backend (defaults to the
    /// zero-cost disabled tracer). Tracing is write-only: results are
    /// bit-identical with any tracer.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builds the backend.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn build(self) -> AnyBackend {
        assert!(self.threads > 0, "need at least one worker thread");
        let make_exec = || match &self.executor {
            Some(shared) => AnyExecutor::Shared(shared.clone()),
            None => AnyExecutor::new(self.threads),
        };
        let mut backend = match self.kind {
            BackendKind::Cpu => AnyBackend::Cpu(CpuBackend::with_executor(self.sw, make_exec())),
            BackendKind::Gpu => {
                AnyBackend::Gpu(GpuBackend::with_executor(self.sw, self.gpu, make_exec()))
            }
            BackendKind::Inax => {
                AnyBackend::Inax(InaxBackend::with_executor(self.inax, self.sw, make_exec()))
            }
        };
        backend.set_tracer(self.tracer);
        backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{NeatConfig, Population};

    fn genomes(env: EnvId, n: usize) -> Vec<Genome> {
        let config = NeatConfig::builder(env.observation_size(), env.policy_outputs())
            .population_size(n)
            .build();
        Population::new(config, 3).genomes().to_vec()
    }

    fn eval(backend: &mut dyn EvalBackend, pop: &[Genome], env: EnvId, seed: u64) -> EvalOutcome {
        backend
            .try_evaluate_population(pop, env, seed)
            .expect("population is feed-forward")
    }

    /// A non-vanilla spec: K worlds from the moderate distribution
    /// with genome-major episode seeds, exactly as the platform
    /// resolves one generation.
    fn spec(k: usize, population: usize) -> ScenarioSpec {
        use crate::scenario::ScenarioConfig;
        use e3_envs::ScenarioDistribution;
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(k);
        ScenarioSpec::for_generation(&config, 42, 3, population, 0)
    }

    /// The two spec shapes every kernel-parity test runs: the
    /// fixed-env K = 1 shared-seed spec and K = 3 sampled worlds with
    /// per-genome seeds.
    fn specs(population: usize) -> [ScenarioSpec; 2] {
        [ScenarioSpec::fixed_env(7, population), spec(3, population)]
    }

    #[test]
    fn all_backends_agree_on_fitness() {
        for (n, num_pu) in [(12, 5), (9, 4)] {
            let pop = genomes(EnvId::CartPole, n);
            for sp in specs(n) {
                let run = |backend: &mut dyn EvalBackend| {
                    backend
                        .try_evaluate_population_scenarios(&pop, EnvId::CartPole, &sp)
                        .expect("population is feed-forward")
                };
                let a = run(&mut CpuBackend::default());
                let b = run(&mut GpuBackend::default());
                let c = run(&mut InaxBackend::new(
                    InaxConfig::builder().num_pu(num_pu).num_pe(2).build(),
                    SwCostModel::default(),
                ));
                assert_eq!(a.fitnesses, b.fitnesses);
                assert_eq!(a.fitnesses, c.fitnesses);
                assert_eq!(a.steps_per_genome, c.steps_per_genome);
                assert_eq!(a.total_steps, c.total_steps);
            }
        }
    }

    #[test]
    fn gpu_eval_is_slower_and_inax_faster_than_cpu() {
        let pop = genomes(EnvId::CartPole, 12);
        let mut cpu = CpuBackend::default();
        let mut gpu = GpuBackend::default();
        let mut inax = InaxBackend::new(
            InaxConfig::builder().num_pu(12).num_pe(2).build(),
            SwCostModel::default(),
        );
        let a = eval(&mut cpu, &pop, EnvId::CartPole, 7);
        let b = eval(&mut gpu, &pop, EnvId::CartPole, 7);
        let c = eval(&mut inax, &pop, EnvId::CartPole, 7);
        assert!(b.eval_seconds > a.eval_seconds, "GPU must lose (Fig. 9(b))");
        assert!(c.eval_seconds < a.eval_seconds, "INAX must win (Fig. 9(b))");
    }

    #[test]
    fn inax_reports_hw_accounting() {
        let pop = genomes(EnvId::MountainCar, 6);
        let mut inax = InaxBackend::new(
            InaxConfig::builder().num_pu(3).num_pe(3).build(),
            SwCostModel::default(),
        );
        let out = eval(&mut inax, &pop, EnvId::MountainCar, 1);
        let report = out.hw_report.expect("INAX reports HW accounting");
        assert!(report.total_cycles > 0);
        assert!(report.steps > 0);
        assert!(report.pu_utilization.rate() <= 1.0);
        assert_eq!(out.total_steps, out.steps_per_genome.iter().sum::<u64>());
    }

    #[test]
    fn continuous_action_envs_work_on_all_backends() {
        let pop = genomes(EnvId::Pendulum, 4);
        let mut cpu = CpuBackend::default();
        let mut inax = InaxBackend::new(
            InaxConfig::builder().num_pu(4).num_pe(1).build(),
            SwCostModel::default(),
        );
        let a = eval(&mut cpu, &pop, EnvId::Pendulum, 2);
        let c = eval(&mut inax, &pop, EnvId::Pendulum, 2);
        assert_eq!(a.fitnesses, c.fitnesses);
        assert!(
            a.fitnesses.iter().all(|f| *f < 0.0),
            "pendulum rewards are negative"
        );
    }

    #[test]
    fn exec_stats_state_distinguishes_idle_from_ready() {
        let mut cpu = CpuBackend::default();
        assert_eq!(
            cpu.take_exec_stats(),
            ExecStatsState::Idle,
            "executor exists but nothing ran yet"
        );
        let pop = genomes(EnvId::CartPole, 4);
        let _ = eval(&mut cpu, &pop, EnvId::CartPole, 7);
        assert!(matches!(cpu.take_exec_stats(), ExecStatsState::Ready(_)));
        assert_eq!(
            cpu.take_exec_stats(),
            ExecStatsState::Idle,
            "take consumes the stats"
        );
    }

    /// A backend with no executor at all: the trait default must say
    /// so explicitly instead of masquerading as "nothing ran".
    struct StatlessBackend;

    impl EvalBackend for StatlessBackend {
        fn kind(&self) -> BackendKind {
            BackendKind::Cpu
        }

        fn try_evaluate_population_scenarios(
            &mut self,
            genomes: &[Genome],
            _env: EnvId,
            _spec: &ScenarioSpec,
        ) -> Result<EvalOutcome, EvalError> {
            Ok(reduce_software_rows(
                vec![(0.0, 0, 0.0); genomes.len()],
                0.0,
            ))
        }
    }

    #[test]
    fn backend_without_executor_reports_unavailable() {
        let mut backend = StatlessBackend;
        let pop = genomes(EnvId::CartPole, 2);
        let _ = eval(&mut backend, &pop, EnvId::CartPole, 1);
        let state = backend.take_exec_stats();
        assert!(state.is_unavailable());
        assert_eq!(state.into_option(), None);
    }

    #[test]
    fn tracing_records_spans_without_changing_results() {
        let pop = genomes(EnvId::CartPole, 12);
        let config = InaxConfig::builder().num_pu(5).num_pe(2).build();
        let mut plain = InaxBackend::new(config.clone(), SwCostModel::default());
        let mut traced = InaxBackend::new(config, SwCostModel::default());
        let tracer = Tracer::enabled();
        traced.set_tracer(tracer.clone());
        let a = eval(&mut plain, &pop, EnvId::CartPole, 7);
        let b = eval(&mut traced, &pop, EnvId::CartPole, 7);
        assert_eq!(a, b, "tracing is write-only");
        let spans = tracer.spans();
        assert!(!spans.is_empty());
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"shard"), "wave spans recorded");
        assert!(names.contains(&"episode"), "episode spans recorded");
        assert_eq!(
            names.iter().filter(|n| **n == "episode").count(),
            pop.len(),
            "one episode span per genome"
        );
    }

    #[test]
    fn software_backends_trace_individual_spans() {
        let pop = genomes(EnvId::CartPole, 6);
        let mut cpu = CpuBackend::default();
        let tracer = Tracer::enabled();
        cpu.set_tracer(tracer.clone());
        let _ = eval(&mut cpu, &pop, EnvId::CartPole, 3);
        let names: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
        for expected in ["shard", "individual", "episode"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn inax_utilization_reconciles_at_backend_level() {
        // 12 genomes on 5 PUs ⇒ 3 waves merged: the invariant must
        // survive the wave-ordered reduction.
        let pop = genomes(EnvId::CartPole, 12);
        let mut inax = InaxBackend::new(
            InaxConfig::builder().num_pu(5).num_pe(2).build(),
            SwCostModel::default(),
        );
        let out = eval(&mut inax, &pop, EnvId::CartPole, 7);
        let report = out.hw_report.expect("INAX reports HW accounting");
        let util = out.hw_utilization.expect("INAX reports utilization");
        assert_eq!(util.per_pu.len(), 5);
        assert_eq!(util.per_pe.len(), 2);
        for (pu, cycles) in util.per_pu.iter().enumerate() {
            assert_eq!(
                cycles.total(),
                report.total_cycles,
                "PU {pu} cycle states must partition the wall cycles"
            );
        }
        let lane_busy: u64 = util.per_pe.iter().map(|l| l.busy).sum();
        assert_eq!(lane_busy, report.breakdown.pe_active);
        assert!(util.dma_bytes > 0);
        assert!(util.weight_buffer_hwm_bytes > 0);
    }

    #[test]
    fn parallel_inax_utilization_matches_serial() {
        let pop = genomes(EnvId::CartPole, 13);
        let config = InaxConfig::builder().num_pu(3).num_pe(2).build();
        let mut serial = InaxBackend::new(config.clone(), SwCostModel::default());
        let mut parallel = InaxBackend::with_threads(config, SwCostModel::default(), 4);
        let a = eval(&mut serial, &pop, EnvId::CartPole, 9);
        let b = eval(&mut parallel, &pop, EnvId::CartPole, 9);
        assert_eq!(
            a.hw_utilization, b.hw_utilization,
            "accounting is deterministic"
        );
        assert_eq!(a.hw_report, b.hw_report);
    }

    #[test]
    fn parallel_cpu_evaluation_matches_sequential() {
        let pop = genomes(EnvId::CartPole, 17); // odd size exercises chunk remainders
        let mut sequential = CpuBackend::default();
        let mut parallel = CpuBackend::with_threads(SwCostModel::default(), 4);
        let a = eval(&mut sequential, &pop, EnvId::CartPole, 9);
        let b = eval(&mut parallel, &pop, EnvId::CartPole, 9);
        assert_eq!(a.fitnesses, b.fitnesses, "order and values preserved");
        assert_eq!(a.steps_per_genome, b.steps_per_genome);
        assert!(
            (a.eval_seconds - b.eval_seconds).abs() < 1e-12,
            "modeled time unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = CpuBackend::with_threads(SwCostModel::default(), 0);
    }

    #[test]
    fn backend_names_match_paper() {
        assert_eq!(BackendKind::Cpu.name(), "E3-CPU");
        assert_eq!(BackendKind::Gpu.name(), "E3-GPU");
        assert_eq!(BackendKind::Inax.name(), "E3-INAX");
        assert_eq!(BackendKind::Inax.to_string(), "E3-INAX");
    }

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("cpu".parse::<BackendKind>().unwrap(), BackendKind::Cpu);
        assert_eq!("INAX".parse::<BackendKind>().unwrap(), BackendKind::Inax);
        let err = "tpu".parse::<BackendKind>().unwrap_err();
        assert!(err.to_string().contains("tpu"));
    }

    #[test]
    fn builder_constructs_each_kind() {
        for kind in BackendKind::ALL {
            let backend = kind.builder().build();
            assert_eq!(backend.kind(), kind);
        }
    }

    #[test]
    fn builder_backends_match_direct_construction() {
        let pop = genomes(EnvId::CartPole, 8);
        let mut direct = CpuBackend::default();
        let mut built = BackendKind::Cpu.builder().threads(2).build();
        let a = eval(&mut direct, &pop, EnvId::CartPole, 5);
        let b = eval(&mut built, &pop, EnvId::CartPole, 5);
        assert_eq!(a.fitnesses, b.fitnesses);
    }

    #[cfg(not(feature = "fast-math"))]
    #[test]
    fn batched_eval_is_bit_identical_to_scalar() {
        // Odd population sizes exercise shard remainders; 1/4/8
        // threads exercise single-batch and multi-batch sharding (and,
        // for K > 1, multi-shard lane packing).
        for env in [EnvId::CartPole, EnvId::LunarLander, EnvId::Pendulum] {
            for n in [13, 7] {
                let pop = genomes(env, n);
                for sp in specs(n) {
                    let k = sp.scenarios();
                    let a = CpuBackend::default()
                        .try_evaluate_population_scenarios(&pop, env, &sp)
                        .expect("scalar eval succeeds");
                    for threads in [1usize, 4, 8] {
                        let b = CpuBackend::with_threads(SwCostModel::default(), threads)
                            .try_evaluate_population_scenarios_batched(&pop, env, &sp)
                            .expect("batched eval succeeds");
                        assert_eq!(
                            a, b,
                            "{env:?} n={n} K={k} batched@{threads} threads diverged from scalar"
                        );
                    }
                }
            }
        }
    }

    #[cfg(not(feature = "fast-math"))]
    #[test]
    fn batched_gpu_pricing_matches_scalar_gpu() {
        let pop = genomes(EnvId::CartPole, 9);
        let mut scalar = GpuBackend::default();
        let mut batched = GpuBackend::default();
        let a = scalar
            .try_evaluate_population(&pop, EnvId::CartPole, 11)
            .expect("scalar eval succeeds");
        let b = batched
            .try_evaluate_population_batched(&pop, EnvId::CartPole, 11)
            .expect("batched eval succeeds");
        assert_eq!(a, b, "GPU cost model must price plans identically");
    }

    #[test]
    fn batched_entry_point_works_on_every_backend_kind() {
        let pop = genomes(EnvId::CartPole, 6);
        for kind in BackendKind::ALL {
            let mut scalar = kind.builder().build();
            let mut batched = kind.builder().build();
            let a = scalar
                .try_evaluate_population(&pop, EnvId::CartPole, 7)
                .expect("scalar eval succeeds");
            let b = batched
                .try_evaluate_population_batched(&pop, EnvId::CartPole, 7)
                .expect("batched eval succeeds");
            assert_eq!(a.fitnesses, b.fitnesses, "{kind} batched fitness diverged");
            assert_eq!(a.steps_per_genome, b.steps_per_genome);
        }
    }

    #[test]
    fn batched_recurrent_genome_reports_lowest_index() {
        let mut pop = genomes(EnvId::CartPole, 5);
        pop[1] = make_cyclic(&pop[1]);
        pop[3] = make_cyclic(&pop[3]);
        for sp in specs(pop.len()) {
            for threads in [1usize, 2, 4] {
                let mut backend = CpuBackend::with_threads(SwCostModel::default(), threads);
                let err = backend
                    .try_evaluate_population_scenarios_batched(&pop, EnvId::CartPole, &sp)
                    .expect_err("cyclic genome must be rejected");
                match err {
                    EvalError::NotFeedForward { genome_index, .. } => {
                        assert_eq!(genome_index, 1, "lowest-indexed failure wins")
                    }
                    other => panic!("expected NotFeedForward, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn batched_eval_traces_shard_and_episode_spans() {
        let pop = genomes(EnvId::CartPole, 6);
        let mut cpu = CpuBackend::default();
        let tracer = Tracer::enabled();
        cpu.set_tracer(tracer.clone());
        cpu.try_evaluate_population_batched(&pop, EnvId::CartPole, 3)
            .expect("batched eval succeeds");
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"shard"), "shard spans recorded");
        assert_eq!(
            names.iter().filter(|n| **n == "episode").count(),
            pop.len(),
            "one episode span per genome"
        );
    }

    /// Adds a recurrent self-loop on an output node, producing a
    /// genome only `RecurrentNetwork` could execute.
    fn make_cyclic(genome: &Genome) -> Genome {
        use e3_neat::{InnovationTracker, NodeKind};
        let mut cyclic = genome.clone();
        let mut tracker = InnovationTracker::with_reserved_nodes(cyclic.nodes().len());
        let output = cyclic
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Output)
            .expect("genome has an output node")
            .id;
        cyclic
            .add_connection_unchecked(output, output, 0.5, &mut tracker)
            .expect("self-loop is structurally new");
        cyclic
    }

    #[test]
    fn recurrent_genome_reports_not_feed_forward() {
        // Build a genome with a cycle: a feed-forward decode must fail
        // with EvalError::NotFeedForward rather than panic.
        let mut pop = genomes(EnvId::CartPole, 3);
        pop[1] = make_cyclic(&pop[1]);
        for kind in BackendKind::ALL {
            let mut backend = kind.builder().build();
            let err = backend
                .try_evaluate_population(&pop, EnvId::CartPole, 7)
                .expect_err("cyclic genome must be rejected");
            match err {
                EvalError::NotFeedForward { genome_index, .. } => {
                    assert_eq!(
                        genome_index, 1,
                        "index points at the cyclic genome ({kind})"
                    )
                }
                other => panic!("expected NotFeedForward, got {other:?}"),
            }
        }
    }
}
