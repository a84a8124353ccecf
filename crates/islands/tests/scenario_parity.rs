//! The scenario-distribution compatibility and determinism contract.
//!
//! Two families of guarantees:
//!
//! 1. **Fixture parity** — a default config (K = 1, default
//!    [`e3_envs::ScenarioParams`]) reproduces the pre-scenario
//!    platform bit for bit. The constants below were captured before
//!    the scenario refactor (population 24, seed 42, five stepped
//!    generations) and must never drift: they are the proof that the
//!    vanilla gate's K = 1 shared-seed spec, run through every
//!    evaluation kernel (scalar software kernel with the JIT tier off
//!    and on, INAX wave loop), replays the legacy fixed-env evaluation
//!    exactly. Pinned K = 4 fixtures do the same for multi-scenario
//!    training on the CPU backend.
//! 2. **Scenario determinism** — multi-scenario training is a pure
//!    function of the config: sampled parameters and final
//!    populations are bit-identical across thread counts (1/4/8) and
//!    JIT settings, and each island of an archipelago trains on its
//!    own deterministic distribution.

use e3_envs::{EnvId, ScenarioDistribution};
use e3_islands::island_seed;
use e3_islands::scheduler::population_fingerprint;
use e3_platform::telemetry::NullCollector;
use e3_platform::{
    BackendKind, E3Config, E3Platform, FitnessAggregation, JitConfig, ScenarioConfig, ScenarioSpec,
};
use proptest::prelude::*;

/// Pre-refactor golden fixtures: `(env, population fingerprint,
/// per-generation best-fitness bits, modeled-time bits, INAX cycles)`
/// for population 24, seed 42, five generations. The fingerprint and
/// best-fitness columns were captured on the commit before the
/// scenario refactor and are identical for every backend, thread count
/// and JIT setting. The modeled-time column holds the bits of
/// `profile().total()` per backend in [`BackendKind::ALL`] order
/// (CPU, GPU, INAX), and the last column the run's INAX
/// `total_cycles`; both were captured on the commit before the
/// fixed-env kernels folded into the scenario kernels.
#[allow(clippy::type_complexity)]
const GOLDEN: &[(EnvId, u64, [u64; 5], [u64; 3], u64)] = &[
    (
        EnvId::CartPole,
        0xc976_7a05_eaca_6125,
        [
            0x406c_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
        ],
        [
            0x4005_1779_e9d0_e994,
            0x4055_d729_111f_a6d4,
            0x3fbd_7c32_1526_01f1,
        ],
        295_065,
    ),
    (
        EnvId::Pendulum,
        0x6ab9_57cf_a69f_90d1,
        [
            0xc08b_fc73_e4d4_825e,
            0xc08e_56b2_dd48_53b1,
            0xc08e_560c_08e7_8601,
            0xc093_a02c_5a4c_6ec1,
            0xc08c_3ed7_8450_ce1e,
        ],
        [
            0x4004_a29e_9079_5f68,
            0x405d_3bf9_46a8_5aff,
            0x3fc1_a69c_ed0b_30b6,
        ],
        178_625,
    ),
    (
        EnvId::LunarLander,
        0x192a_18e5_1f12_0ecc,
        [
            0xc050_8c37_bf4e_61c0,
            0xc043_03e3_38c0_69a4,
            0x4064_cf9a_d2df_eb97,
            0xc03b_c1f0_fc7c_6260,
            0xc04d_21c4_48eb_a43d,
        ],
        [
            0x400a_b7c8_8e79_aae7,
            0x404d_779c_9fda_0bb6,
            0x3fb7_6ae1_b5bd_10c3,
        ],
        290_927,
    ),
];

/// Pinned K = 4 fixtures: `(env, aggregation, population fingerprint,
/// per-generation best-fitness bits)` for the `moderate` training
/// preset, population 14, seed 42, three generations on the CPU
/// backend. Captured while JIT-off multi-scenario runs still went
/// through the lockstep batched kernel; they hold for every thread
/// count and JIT setting of the one scalar kernel that replaced it.
const SCENARIO_GOLDEN: &[(EnvId, FitnessAggregation, u64, [u64; 3])] = &[
    (
        EnvId::CartPole,
        FitnessAggregation::Mean,
        0xb910_0ff9_f3dc_9c29,
        [
            0x406f_5800_0000_0000,
            0x407c_2c00_0000_0000,
            0x407c_cc00_0000_0000,
        ],
    ),
    (
        EnvId::CartPole,
        FitnessAggregation::CVaR { alpha: 0.25 },
        0x9357_5369_ed6b_c14d,
        [
            0x406a_2000_0000_0000,
            0x406c_2000_0000_0000,
            0x407b_a000_0000_0000,
        ],
    ),
    (
        EnvId::LunarLander,
        FitnessAggregation::Mean,
        0xc59d_387d_9ffb_06ef,
        [
            0xc052_6db5_031c_586c,
            0xc051_0707_2de5_59ec,
            0xc044_cef1_283a_1493,
        ],
    ),
    (
        EnvId::LunarLander,
        FitnessAggregation::CVaR { alpha: 0.25 },
        0xf106_3ca3_76f4_6aad,
        [
            0xc057_e160_5d95_5756,
            0xc055_f77a_0b93_097f,
            0xc054_8cae_4fe0_2afc,
        ],
    ),
];

/// One fixture run's `(population fingerprint, best-fitness bits,
/// modeled-time bits, INAX total cycles)`.
fn fixture_run(
    env: EnvId,
    backend: BackendKind,
    threads: usize,
    jit: bool,
) -> (u64, Vec<u64>, u64, u64) {
    let config = E3Config::builder(env)
        .population_size(24)
        .max_generations(5)
        .threads(threads)
        .jit(JitConfig {
            enabled: jit,
            ..JitConfig::default()
        })
        .build();
    let mut platform = E3Platform::new(config, backend, 42);
    let mut bests = Vec::new();
    for _ in 0..5 {
        let best = platform
            .step_with(&mut NullCollector)
            .expect("fixture step succeeds");
        bests.push(best.to_bits());
    }
    let cycles = platform
        .capture_state()
        .hw_report
        .map_or(0, |report| report.total_cycles);
    (
        population_fingerprint(platform.population()),
        bests,
        platform.profile().total().to_bits(),
        cycles,
    )
}

/// Every evaluation route a default config can take: the scalar
/// software kernel (CPU with the JIT tier off and on, GPU) and the
/// INAX wave loop — each at 1 and 4 threads.
#[test]
fn default_config_matches_pre_scenario_fixtures() {
    for &(env, fingerprint, bests, modeled, cycles) in GOLDEN {
        for (slot, backend) in BackendKind::ALL.into_iter().enumerate() {
            let jit_settings: &[bool] = if backend == BackendKind::Cpu {
                &[false, true]
            } else {
                &[false]
            };
            for &jit in jit_settings {
                for threads in [1usize, 4] {
                    let run = format!("{env:?}/{backend:?}@{threads} jit={jit}");
                    let (pop, run_bests, run_modeled, run_cycles) =
                        fixture_run(env, backend, threads, jit);
                    assert_eq!(
                        pop, fingerprint,
                        "{run} population diverged from pre-scenario fixture"
                    );
                    assert_eq!(
                        run_bests,
                        bests.to_vec(),
                        "{run} fitness trajectory diverged"
                    );
                    assert_eq!(run_modeled, modeled[slot], "{run} modeled time diverged");
                    let expected_cycles = if backend == BackendKind::Inax {
                        cycles
                    } else {
                        0
                    };
                    assert_eq!(run_cycles, expected_cycles, "{run} INAX cycles diverged");
                }
            }
        }
    }
}

/// Multi-scenario training on the CPU backend replays the pinned
/// K = 4 fixtures at 1 and 4 threads with the JIT tier off and on.
#[test]
fn k4_scenario_training_matches_pinned_fixtures() {
    for &(env, aggregation, fingerprint, bests) in SCENARIO_GOLDEN {
        for jit in [false, true] {
            for threads in [1usize, 4] {
                let run = format!("{env:?}/{aggregation:?}@{threads} jit={jit}");
                let mut config = scenario_config(env, threads, 4);
                config.scenario = config.scenario.aggregation(aggregation);
                config.jit = JitConfig {
                    enabled: jit,
                    ..JitConfig::default()
                };
                let mut platform = E3Platform::new(config, BackendKind::Cpu, 42);
                let run_bests: Vec<u64> = (0..3)
                    .map(|_| {
                        platform
                            .step_with(&mut NullCollector)
                            .expect("fixture step succeeds")
                            .to_bits()
                    })
                    .collect();
                assert_eq!(
                    population_fingerprint(platform.population()),
                    fingerprint,
                    "{run} population diverged from pinned fixture"
                );
                assert_eq!(
                    run_bests,
                    bests.to_vec(),
                    "{run} fitness trajectory diverged"
                );
            }
        }
    }
}

fn scenario_config(env: EnvId, threads: usize, k: usize) -> E3Config {
    E3Config::builder(env)
        .population_size(14)
        .max_generations(3)
        .target_fitness(f64::INFINITY)
        .threads(threads)
        .scenario(
            ScenarioConfig::default()
                .train(ScenarioDistribution::moderate())
                .scenarios_per_eval(k),
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sampled scenario parameters are a pure function of the seeding
    /// coordinates: identical for any thread count and identical when
    /// resolved twice.
    #[test]
    fn sampled_scenario_params_are_reproducible(
        run_seed in 0u64..1000,
        generation in 0u64..50,
        k in 1usize..8,
        population in 1usize..40,
    ) {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(k);
        let a = ScenarioSpec::for_generation(&config, run_seed, generation, population, 0);
        let b = ScenarioSpec::for_generation(&config, run_seed, generation, population, 0);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.params.len(), k);
        prop_assert_eq!(a.episode_seeds.len(), k * population);
    }

    /// Final populations of a multi-scenario training run are
    /// bit-identical across thread counts, JIT settings and backends
    /// (the scalar software kernel at any thread count or tier, and
    /// the INAX wave loop, all reduce in genome order).
    #[test]
    fn scenario_populations_are_bit_identical_across_threads(
        seed in 0u64..100,
        k in 2usize..5,
    ) {
        let reference = {
            let mut p = E3Platform::new(
                scenario_config(EnvId::CartPole, 1, k),
                BackendKind::Cpu,
                seed,
            );
            for _ in 0..3 {
                p.step_with(&mut NullCollector).unwrap();
            }
            population_fingerprint(p.population())
        };
        for (threads, jit) in [(4usize, false), (8, false), (1, true), (4, true)] {
            let mut config = scenario_config(EnvId::CartPole, threads, k);
            config.jit = JitConfig {
                enabled: jit,
                hot_threshold: 1,
            };
            let mut p = E3Platform::new(config, BackendKind::Cpu, seed);
            for _ in 0..3 {
                p.step_with(&mut NullCollector).unwrap();
            }
            prop_assert_eq!(
                population_fingerprint(p.population()),
                reference,
                "threads={} jit={} diverged", threads, jit
            );
        }
        let mut inax = E3Platform::new(
            scenario_config(EnvId::CartPole, 1, k),
            BackendKind::Inax,
            seed,
        );
        for _ in 0..3 {
            inax.step_with(&mut NullCollector).unwrap();
        }
        prop_assert_eq!(
            population_fingerprint(inax.population()),
            reference,
            "INAX diverged from CPU"
        );
    }
}

#[test]
fn cvar_aggregation_is_deterministic_and_differs_from_mean() {
    let mean_cfg = scenario_config(EnvId::CartPole, 1, 4);
    let mut cvar_cfg = mean_cfg.clone();
    cvar_cfg.scenario = cvar_cfg
        .scenario
        .aggregation(FitnessAggregation::CVaR { alpha: 0.25 });
    let run = |config: E3Config| {
        let mut p = E3Platform::new(config, BackendKind::Cpu, 9);
        for _ in 0..3 {
            p.step_with(&mut NullCollector).unwrap();
        }
        population_fingerprint(p.population())
    };
    let mean_a = run(mean_cfg.clone());
    let mean_b = run(mean_cfg);
    assert_eq!(mean_a, mean_b);
    let cvar_a = run(cvar_cfg.clone());
    let cvar_b = run(cvar_cfg);
    assert_eq!(cvar_a, cvar_b);
    assert_ne!(mean_a, cvar_a, "CVaR must select differently from mean");
}

/// Each island trains on its own deterministic scenario stream: the
/// per-island run seed ([`island_seed`]) feeds the scenario sampler,
/// so different islands face different worlds while re-running an
/// island reproduces its worlds exactly.
#[test]
fn islands_draw_distinct_deterministic_scenario_distributions() {
    let config = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(4);
    let base_seed = 42;
    let mut specs = Vec::new();
    for island in 0..3 {
        let seed = island_seed(base_seed, island);
        let spec = ScenarioSpec::for_generation(&config, seed, 0, 10, 0);
        let again = ScenarioSpec::for_generation(&config, seed, 0, 10, 0);
        assert_eq!(
            spec, again,
            "island {island} scenarios must be reproducible"
        );
        specs.push(spec);
    }
    assert_ne!(specs[0].params, specs[1].params);
    assert_ne!(specs[1].params, specs[2].params);
    assert_ne!(specs[0].params, specs[2].params);
}
