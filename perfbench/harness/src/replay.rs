//! Per-layer replays: a workload's own genomes pushed through public
//! e3-neat, e3-envs and e3-inax calls, each timed from outside.

use crate::report::Report;
use e3_envs::{decode_action, Action, BatchEnv, EnvId, StepBatch};
use e3_inax::{InaxAccelerator, InaxConfig, IrregularNet};
use e3_neat::{Genome, Network};
use e3_telemetry::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each replay loop runs for.
const BUDGET: Duration = Duration::from_millis(60);

/// A small deterministic generator for replay inputs (SplitMix64).
struct Inputs(u64);

impl Inputs {
    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_unit()).collect()
    }
}

/// Repeats `body` until the budget is spent; returns (calls, seconds).
fn timed(mut body: impl FnMut() -> usize) -> (usize, f64) {
    let start = Instant::now();
    let mut calls = 0;
    while start.elapsed() < BUDGET {
        calls += body();
    }
    (calls, start.elapsed().as_secs_f64())
}

fn enabled_connections(genome: &Genome) -> usize {
    genome.connections().iter().filter(|c| c.enabled).count()
}

/// `neat.decode_us`, `neat.activate_ns` and `neat.connections_mean`
/// over `genomes`.
pub fn neat(report: &mut Report, genomes: &[Genome], env: EnvId, tracer: &Tracer, seed: u64) {
    let nets: Vec<Network> = genomes.iter().filter_map(|g| g.decode().ok()).collect();
    if nets.is_empty() {
        report.layer("neat.decode_us", 0.0, "us", 0);
        report.layer("neat.activate_ns", 0.0, "ns", 0);
        report.layer("neat.connections_mean", 0.0, "count", 0);
        return;
    }
    let (decodes, seconds) = {
        let _span = tracer.span("Genome::decode", "neat");
        timed(|| {
            for genome in genomes {
                black_box(black_box(genome).decode().ok());
            }
            genomes.len()
        })
    };
    report.layer(
        "neat.decode_us",
        seconds * 1e6 / decodes as f64,
        "us",
        decodes,
    );

    let mut inputs = Inputs(seed);
    let observations: Vec<Vec<f64>> = (0..64)
        .map(|_| inputs.vector(env.observation_size()))
        .collect();
    let mut nets = nets;
    let (activations, seconds) = {
        let _span = tracer.span("Network::activate_into", "neat");
        timed(|| {
            for (i, net) in nets.iter_mut().enumerate() {
                black_box(net.activate_into(black_box(&observations[i % observations.len()])));
            }
            nets.len()
        })
    };
    report.layer(
        "neat.activate_ns",
        seconds * 1e9 / activations as f64,
        "ns",
        activations,
    );
    let connections: Vec<f64> = genomes
        .iter()
        .map(|g| enabled_connections(g) as f64)
        .collect();
    report.layer(
        "neat.connections_mean",
        crate::report::mean(&connections),
        "count",
        connections.len(),
    );
}

/// `envs.step_ns`: lockstep batch stepping with actions decoded from
/// seeded network-shaped outputs.
pub fn envs(report: &mut Report, env: EnvId, lanes: usize, tracer: &Tracer, seed: u64) {
    let mut batch_env: Box<dyn BatchEnv> = env.make_batch(lanes);
    let mut batch = StepBatch::new(lanes, batch_env.observation_size());
    let space = batch_env.action_space();
    let mut inputs = Inputs(seed ^ 0x5eed);
    let table: Vec<Vec<Action>> = (0..32)
        .map(|_| {
            (0..lanes)
                .map(|_| decode_action(&inputs.vector(env.policy_outputs()), &space))
                .collect()
        })
        .collect();
    let mut episode = 0u64;
    let mut step = 0usize;
    let (lane_steps, seconds) = {
        let _span = tracer.span("BatchEnv::step_batch", "envs");
        timed(|| {
            if batch.all_parked() {
                let seeds: Vec<u64> = (0..lanes as u64)
                    .map(|l| seed + episode * 1000 + l)
                    .collect();
                batch_env.reset_batch(&seeds, &mut batch);
                episode += 1;
            }
            let active = batch.active_lanes();
            batch_env.step_batch(&table[step % table.len()], &mut batch);
            step += 1;
            active
        })
    };
    report.layer(
        "envs.step_ns",
        seconds * 1e9 / lane_steps.max(1) as f64,
        "ns",
        lane_steps,
    );
}

/// `inax.step_us` and `inax.host_ns_per_cycle`: one resident wave of
/// the workload's networks stepped on a fresh accelerator.
pub fn inax(
    report: &mut Report,
    genomes: &[Genome],
    env: EnvId,
    config: &InaxConfig,
    tracer: &Tracer,
    seed: u64,
) {
    let nets: Vec<IrregularNet> = genomes
        .iter()
        .filter_map(|g| IrregularNet::try_from(g).ok())
        .take(config.num_pu)
        .collect();
    let resident = nets.len();
    let mut accelerator = InaxAccelerator::new(config.clone());
    accelerator.load_batch(nets);
    let cycles_before = accelerator.report().total_cycles;
    let mut inputs = Inputs(seed ^ 0x1a4a);
    let waves: Vec<Vec<Option<Vec<f64>>>> = (0..16)
        .map(|_| {
            (0..resident)
                .map(|_| Some(inputs.vector(env.observation_size())))
                .collect()
        })
        .collect();
    let mut wave = 0usize;
    let (steps, seconds) = {
        let _span = tracer.span("InaxAccelerator::step", "inax");
        timed(|| {
            black_box(accelerator.step(&waves[wave % waves.len()]));
            wave += 1;
            1
        })
    };
    let cycles = accelerator.report().total_cycles - cycles_before;
    report.layer("inax.step_us", seconds * 1e6 / steps as f64, "us", steps);
    report.layer(
        "inax.host_ns_per_cycle",
        seconds * 1e9 / cycles.max(1) as f64,
        "ns",
        steps,
    );
}
