//! The single-run workloads, `bipedal-cpu` and `lander-inax`: one
//! `E3Platform` driven generation by generation through
//! `eval_phase_with` / `evolve_phase_with` for the timed region.

use crate::report::{mean, median, percentile, Digest, Ops, Report};
use crate::{replay, Args};
use e3_envs::EnvId;
use e3_islands::population_fingerprint;
use e3_platform::{BackendKind, E3Config, E3Platform};
use e3_telemetry::{HwCounters, MemoryCollector, Tracer, UtilizationReport};
use std::time::{Duration, Instant};

/// What distinguishes the two single-run workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub env: EnvId,
    pub backend: BackendKind,
    pub population: usize,
    /// Generations of the untimed threads-1 reference prefix.
    pub reference_generations: usize,
    /// Generations per learning run in the timed region.
    pub epoch_generations: usize,
}

const TIMED_THREADS: usize = 2;

pub fn config(spec: Spec, threads: usize) -> E3Config {
    // The builder's defaults are the paper's §V heuristics: PU = 50 and
    // PE = the env's output count.
    E3Config::builder(spec.env)
        .population_size(spec.population)
        .max_generations(usize::MAX)
        .target_fitness(f64::INFINITY)
        .threads(threads)
        .build()
}

/// One evaluated-and-evolved generation, as seen through telemetry.
#[derive(Debug, Clone)]
struct Gen {
    best: f64,
    mean: f64,
    steps: u64,
    /// Fingerprint of the population the generation produced (only
    /// taken inside the compared prefix).
    fingerprint: Option<u64>,
    hw: Option<HwCounters>,
    species: usize,
    eval_s: f64,
    evolve_s: f64,
    exec: Option<ExecSummary>,
}

#[derive(Debug, Clone, Copy)]
struct ExecSummary {
    wall_s: f64,
    utilization: f64,
    hit_rate: f64,
    steals: u64,
    imbalance: f64,
}

struct Segment {
    gens: Vec<Gen>,
    wall_s: f64,
    /// `E3Platform::new` time of each learning run.
    setup_s: Vec<f64>,
    /// The last learning run's platform.
    platform: E3Platform,
}

impl Segment {
    fn steps(&self) -> u64 {
        self.gens.iter().map(|g| g.steps).sum()
    }

    fn steps_per_s(&self) -> f64 {
        self.steps() as f64 / self.wall_s
    }
}

fn step(
    platform: &mut E3Platform,
    events: &mut MemoryCollector,
    tracer: &Tracer,
    fingerprint: bool,
) -> Result<Gen, String> {
    events.clear();
    let started = Instant::now();
    {
        let _span = tracer.span("E3Platform::eval_phase_with", "platform");
        platform
            .eval_phase_with(events)
            .map_err(|e| format!("eval phase: {e}"))?;
    }
    let evaluated = Instant::now();
    {
        let _span = tracer.span("E3Platform::evolve_phase_with", "platform");
        platform
            .evolve_phase_with(events)
            .map_err(|e| format!("evolve phase: {e}"))?;
    }
    let evolve_s = evaluated.elapsed().as_secs_f64();
    let eval = events.evals().next().ok_or("no Eval record")?;
    let generation = events.generations().next().ok_or("no Generation record")?;
    let exec = events.execs().next().map(|x| {
        let shard_mean = mean(&x.shard_seconds);
        let shard_max = x.shard_seconds.iter().cloned().fold(0.0, f64::max);
        ExecSummary {
            wall_s: x.wall_seconds,
            utilization: x.worker_utilization,
            hit_rate: x.cache_hit_rate,
            steals: x.steal_count,
            imbalance: if shard_mean > 0.0 {
                shard_max / shard_mean
            } else {
                1.0
            },
        }
    });
    Ok(Gen {
        best: eval.best_fitness,
        mean: eval.mean_fitness,
        steps: eval.total_steps,
        fingerprint: fingerprint.then(|| population_fingerprint(platform.population())),
        hw: eval.hw,
        species: generation.species,
        eval_s: (evaluated - started).as_secs_f64(),
        evolve_s,
        exec,
    })
}

/// The seed of learning run `epoch` within a segment.
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed.wrapping_add((epoch as u64) << 32)
}

/// Runs consecutive fixed-length learning runs (epochs of
/// `spec.epoch_generations`, each on a fresh platform) until `seconds`
/// have passed and at least `min_gens` generations are done. Fresh
/// runs keep network growth, and so the work per generation, from
/// drifting with run length.
fn segment(
    spec: Spec,
    seed: u64,
    threads: usize,
    seconds: f64,
    min_gens: usize,
    tracer: &Tracer,
) -> Result<Segment, String> {
    let mut events = MemoryCollector::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut gens = Vec::new();
    let mut setup_s = Vec::new();
    let mut epoch = 0;
    loop {
        let created = Instant::now();
        let mut platform = {
            let _span = tracer.span("E3Platform::new", "platform");
            E3Platform::new(config(spec, threads), spec.backend, epoch_seed(seed, epoch))
        };
        setup_s.push(created.elapsed().as_secs_f64());
        for _ in 0..spec.epoch_generations {
            if gens.len() >= min_gens && started.elapsed() >= budget {
                return Ok(Segment {
                    gens,
                    wall_s: started.elapsed().as_secs_f64(),
                    setup_s,
                    platform,
                });
            }
            let _span = tracer.span("generation", "harness");
            gens.push(step(
                &mut platform,
                &mut events,
                tracer,
                gens.len() < min_gens,
            )?);
        }
        epoch += 1;
    }
}

/// The cycle-level utilization record of a finished INAX segment, with
/// each PU's busy + idle + stall checked against the total.
fn utilization(
    spec: Spec,
    segment: &Segment,
    ops: &mut Ops,
    label: &str,
) -> Option<UtilizationReport> {
    let state = segment.platform.capture_state();
    let (util, hw) = (state.hw_utilization?, state.hw_report?);
    let record = util.to_telemetry(spec.backend.name(), spec.env.name(), hw.total_cycles);
    for row in &record.per_pu {
        ops.check(row.total_cycles() == record.total_cycles, || {
            format!(
                "{label}: PU {} busy+idle+stall = {} != total {}",
                row.pu,
                row.total_cycles(),
                record.total_cycles
            )
        });
    }
    Some(record)
}

/// Requires the timed segment's first generations to match the
/// reference prefix exactly.
fn compare(reference: &[Gen], timed: &[Gen], ops: &mut Ops, label: &str) {
    for (g, (r, t)) in reference.iter().zip(timed).enumerate() {
        let same = r.best.to_bits() == t.best.to_bits()
            && r.mean.to_bits() == t.mean.to_bits()
            && r.steps == t.steps
            && r.fingerprint == t.fingerprint
            && r.hw == t.hw;
        ops.check(same, || {
            format!("{label}: generation {g} differs from the threads-1 reference")
        });
    }
    ops.check(timed.len() >= reference.len(), || {
        format!("{label}: timed run stopped before the reference prefix")
    });
}

fn digest(reference: &[Gen]) -> u64 {
    let mut digest = Digest::default();
    for gen in reference {
        digest.word(gen.best.to_bits());
        digest.word(gen.mean.to_bits());
        digest.word(gen.steps);
        digest.word(gen.fingerprint.unwrap_or(0));
        digest.word(gen.hw.as_ref().map_or(0, |hw| hw.total_cycles));
    }
    digest.finish()
}

pub fn run(spec: Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let prefix = spec.reference_generations;
    let reference = segment(spec, args.seed, 1, 0.0, prefix, &Tracer::disabled())?;
    let ref_util = utilization(spec, &reference, &mut report.ops, "reference");
    report.digest = digest(&reference.gens);

    // Tracing on splits the run: an untraced half for the overhead
    // baseline, then the traced half the per-layer numbers come from.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = segment(
        spec,
        args.seed,
        TIMED_THREADS,
        seconds,
        prefix,
        &Tracer::disabled(),
    )?;
    compare(&reference.gens, &timed.gens, &mut report.ops, "timed");
    utilization(spec, &timed, &mut report.ops, "timed");
    count_generations(&timed, &mut report.ops);

    for (name, value, unit, samples) in e2e(spec, &timed) {
        report.e2e(name, value, unit, samples);
    }
    let total_cycles: u64 = reference
        .gens
        .iter()
        .filter_map(|g| g.hw.as_ref())
        .map(|hw| hw.total_cycles)
        .sum();
    if spec.backend == BackendKind::Inax {
        report.e2e("sim_cycles", total_cycles as f64, "cycles", prefix);
    }
    properties(&timed, report);

    if args.trace {
        let tracer = Tracer::enabled();
        let traced = segment(spec, args.seed, TIMED_THREADS, seconds, prefix, &tracer)?;
        compare(&reference.gens, &traced.gens, &mut report.ops, "traced");
        count_generations(&traced, &mut report.ops);
        crate::traced_e2e(report, e2e(spec, &traced));
        layers(
            spec,
            &reference,
            ref_util.as_ref(),
            &traced,
            &tracer,
            args.seed,
            report,
        );
        report.trace_file = Some(crate::write_trace(&tracer, args)?);
        crate::self_times(report, &tracer, traced.gens.len());
    }
    Ok(())
}

/// The end-to-end metrics one segment yields.
fn e2e(spec: Spec, segment: &Segment) -> Vec<(&'static str, f64, &'static str, usize)> {
    let n = segment.gens.len();
    let op_ms: Vec<f64> = segment
        .gens
        .iter()
        .map(|g| (g.eval_s + g.evolve_s) * 1e3)
        .collect();
    let evals = (n * spec.population) as f64;
    vec![
        ("env_steps_per_s", segment.steps_per_s(), "1/s", n),
        ("evals_per_s", evals / segment.wall_s, "1/s", n),
        ("op_ms_p50", median(&op_ms), "ms", n),
        ("op_ms_p90", percentile(&op_ms, 0.9), "ms", n),
    ]
}

/// Every generation evaluated is one operation.
fn count_generations(segment: &Segment, ops: &mut Ops) {
    for _ in &segment.gens {
        ops.record(true, String::new);
    }
}

fn properties(timed: &Segment, report: &mut Report) {
    let gens = &timed.gens;
    let steps: Vec<f64> = gens.iter().map(|g| g.steps as f64).collect();
    let species: Vec<f64> = gens.iter().map(|g| g.species as f64).collect();
    let hits: Vec<f64> = gens
        .iter()
        .filter_map(|g| g.exec)
        .map(|x| x.hit_rate)
        .collect();
    let eval: f64 = gens.iter().map(|g| g.eval_s).sum();
    let evolve: f64 = gens.iter().map(|g| g.evolve_s).sum();
    let connections: Vec<f64> = timed
        .platform
        .population()
        .genomes()
        .iter()
        .map(|g| g.connections().iter().filter(|c| c.enabled).count() as f64)
        .collect();
    report.property("env_steps_per_generation", mean(&steps), "count");
    report.property("connections_mean", mean(&connections), "count");
    report.property("species", mean(&species), "count");
    report.property("decode_cache_hit_rate", mean(&hits), "ratio");
    report.property("eval_share_of_wall", eval / timed.wall_s, "ratio");
    report.property("evolve_share_of_wall", evolve / timed.wall_s, "ratio");
    report.property("jit_native_share", 0.0, "ratio");
    report.property("generations_timed", gens.len() as f64, "count");
}

fn layers(
    spec: Spec,
    reference: &Segment,
    ref_util: Option<&UtilizationReport>,
    traced: &Segment,
    tracer: &Tracer,
    seed: u64,
    report: &mut Report,
) {
    let gens = &traced.gens;
    let n = gens.len();
    let eval_ms: Vec<f64> = gens.iter().map(|g| g.eval_s * 1e3).collect();
    let evolve_ms: Vec<f64> = gens.iter().map(|g| g.evolve_s * 1e3).collect();
    let execs: Vec<ExecSummary> = gens.iter().filter_map(|g| g.exec).collect();
    let overhead_ms: Vec<f64> = gens
        .iter()
        .filter_map(|g| g.exec.map(|x| (g.eval_s - x.wall_s) * 1e3))
        .collect();
    let setup_ms: Vec<f64> = traced.setup_s.iter().map(|s| s * 1e3).collect();
    report.layer("platform.setup_ms", median(&setup_ms), "ms", setup_ms.len());
    report.layer("platform.eval_ms", median(&eval_ms), "ms", n);
    report.layer("platform.evolve_ms", median(&evolve_ms), "ms", n);
    report.layer(
        "platform.eval_overhead_ms",
        median(&overhead_ms),
        "ms",
        overhead_ms.len(),
    );

    let exec_wall: Vec<f64> = execs.iter().map(|x| x.wall_s * 1e3).collect();
    let util: Vec<f64> = execs.iter().map(|x| x.utilization).collect();
    let hits: Vec<f64> = execs.iter().map(|x| x.hit_rate).collect();
    let steals: Vec<f64> = execs.iter().map(|x| x.steals as f64).collect();
    let imbalance: Vec<f64> = execs.iter().map(|x| x.imbalance).collect();
    let m = execs.len();
    report.layer("exec.wall_ms", median(&exec_wall), "ms", m);
    report.layer("exec.worker_utilization", mean(&util), "ratio", m);
    report.layer("exec.cache_hit_rate", mean(&hits), "ratio", m);
    report.layer("exec.steal_count", mean(&steals), "count", m);
    report.layer("exec.shard_imbalance", median(&imbalance), "ratio", m);

    let genomes = traced.platform.population().genomes();
    replay::neat(report, genomes, spec.env, tracer, seed);
    let species: Vec<f64> = gens.iter().map(|g| g.species as f64).collect();
    report.layer("neat.species", mean(&species), "count", n);
    replay::envs(report, spec.env, spec.population, tracer, seed);
    let steps: Vec<f64> = gens.iter().map(|g| g.steps as f64).collect();
    report.layer("envs.steps_per_gen", mean(&steps), "count", n);

    // Exact simulated-hardware counters over the fixed reference prefix.
    if spec.backend == BackendKind::Inax {
        let hw: Vec<&HwCounters> = reference
            .gens
            .iter()
            .filter_map(|g| g.hw.as_ref())
            .collect();
        let sum = |f: fn(&HwCounters) -> u64| hw.iter().map(|h| f(h)).sum::<u64>() as f64;
        let k = hw.len();
        report.layer("inax.setup_cycles", sum(|h| h.setup_cycles), "cycles", k);
        report.layer(
            "inax.pe_active_cycles",
            sum(|h| h.pe_active_cycles),
            "cycles",
            k,
        );
        report.layer("inax.dma_cycles", sum(|h| h.dma_cycles), "cycles", k);
        report.layer(
            "inax.control_cycles",
            sum(|h| h.evaluate_control_cycles),
            "cycles",
            k,
        );
        report.layer("inax.waves", sum(|h| h.steps), "count", k);
        if let Some(util) = ref_util {
            let pu_busy: u64 = util.per_pu.iter().map(|r| r.busy_cycles).sum();
            let pu_total: u64 = util.per_pu.iter().map(|r| r.total_cycles()).sum();
            let pe_busy: u64 = util.per_pe.iter().map(|r| r.busy_cycles).sum();
            let pe_total: u64 = util
                .per_pe
                .iter()
                .map(|r| r.busy_cycles + r.idle_cycles)
                .sum();
            report.layer(
                "inax.pu_util",
                pu_busy as f64 / pu_total.max(1) as f64,
                "ratio",
                util.per_pu.len(),
            );
            report.layer(
                "inax.pe_util",
                pe_busy as f64 / pe_total.max(1) as f64,
                "ratio",
                util.per_pe.len(),
            );
        }
        let inax = traced.platform.config().inax.clone();
        replay::inax(report, genomes, spec.env, &inax, tracer, seed);
    }
}
