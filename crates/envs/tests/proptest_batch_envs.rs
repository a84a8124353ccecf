//! Property tests for the batched environment API.
//!
//! [`EnvId::make_batch`] — the generic `ScalarBatch` adapter for every
//! suite environment — must reproduce `lanes` independent scalar
//! environments **bit for bit**: same reset observations, same per-step observations, rewards
//! and done flags per lane, with early-finished lanes parked (reward
//! `0.0`, observation and flags frozen) while the rest keep stepping.

use e3_envs::{Action, ActionSpace, EnvId, StepBatch};
use proptest::prelude::*;

/// Builds a valid action for a space from two raw values.
fn action_for(space: &ActionSpace, a: usize, x: f64) -> Action {
    match space {
        ActionSpace::Discrete(n) => Action::Discrete(a % n),
        ActionSpace::Continuous { low, high } => Action::Continuous(
            low.iter()
                .zip(high)
                .map(|(&lo, &hi)| lo + (x.clamp(0.0, 1.0)) * (hi - lo))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every suite environment's batch, stepped with arbitrary
    /// per-lane action sequences and per-lane seeds, matches `lanes`
    /// independent scalar environments bitwise — including the parking
    /// protocol once lanes finish at different times.
    #[test]
    fn batched_suite_matches_scalar_lanes(
        seed in any::<u64>(),
        lanes in 1usize..5,
        actions in proptest::collection::vec((any::<usize>(), 0.0f64..1.0), 1..40),
    ) {
        for id in EnvId::ALL {
            let mut batch_env = id.make_batch(lanes);
            let mut sb = StepBatch::new(lanes, batch_env.observation_size());
            let seeds: Vec<u64> = (0..lanes as u64).map(|i| seed.wrapping_add(i)).collect();
            batch_env.reset_batch(&seeds, &mut sb);
            let mut scalars: Vec<_> = (0..lanes).map(|_| id.make()).collect();
            let space = batch_env.action_space();
            prop_assert_eq!(batch_env.lanes(), lanes);
            prop_assert_eq!(batch_env.name(), id.make().name(), "{} name propagates", id);
            for (b, env) in scalars.iter_mut().enumerate() {
                let obs = env.reset(seeds[b]);
                prop_assert_eq!(sb.obs_row(b), &obs[..], "{} lane {} reset obs", id, b);
                prop_assert!(sb.active[b], "{} lane {} starts active", id, b);
            }
            let mut done = vec![false; lanes];
            for (step_idx, &(a, x)) in actions.iter().enumerate() {
                if sb.all_parked() {
                    break;
                }
                let acts: Vec<Action> = (0..lanes)
                    .map(|b| action_for(&space, a.wrapping_add(b * 7 + step_idx), x))
                    .collect();
                let frozen: Vec<Vec<f64>> = (0..lanes)
                    .map(|b| sb.obs_row(b).to_vec())
                    .collect();
                batch_env.step_batch(&acts, &mut sb);
                for b in 0..lanes {
                    if done[b] {
                        // Parked lane: zero reward, frozen observation
                        // and sticky done flags, never reactivated.
                        prop_assert_eq!(
                            sb.rewards[b].to_bits(),
                            0.0f64.to_bits(),
                            "{} parked lane {} reward", id, b
                        );
                        prop_assert_eq!(sb.obs_row(b), &frozen[b][..]);
                        prop_assert!(!sb.active[b]);
                        prop_assert!(sb.terminated[b] || sb.truncated[b]);
                        continue;
                    }
                    let s = scalars[b].step(&acts[b]);
                    prop_assert_eq!(
                        sb.obs_row(b), &s.observation[..],
                        "{} lane {} obs at step {}", id, b, step_idx
                    );
                    prop_assert_eq!(
                        sb.rewards[b].to_bits(), s.reward.to_bits(),
                        "{} lane {} reward at step {}", id, b, step_idx
                    );
                    prop_assert_eq!(sb.terminated[b], s.terminated);
                    prop_assert_eq!(sb.truncated[b], s.truncated);
                    done[b] = s.terminated || s.truncated;
                    prop_assert_eq!(sb.active[b], !done[b]);
                }
            }
        }
    }

    /// `reset_batch` after a (partially) finished batch reproduces a
    /// fresh batch exactly: reseeded observations, all lanes active,
    /// flags and rewards cleared.
    #[test]
    fn reset_batch_reactivates_every_lane(
        seed in any::<u64>(),
        lanes in 1usize..4,
        warmup in 1usize..30,
    ) {
        for id in EnvId::ALL {
            let mut batch_env = id.make_batch(lanes);
            let mut sb = StepBatch::new(lanes, batch_env.observation_size());
            let seeds: Vec<u64> = (0..lanes as u64).map(|i| seed.wrapping_add(i)).collect();
            batch_env.reset_batch(&seeds, &mut sb);
            let space = batch_env.action_space();
            for step_idx in 0..warmup {
                if sb.all_parked() {
                    break;
                }
                let acts: Vec<Action> = (0..lanes)
                    .map(|b| action_for(&space, b + step_idx, 0.4))
                    .collect();
                batch_env.step_batch(&acts, &mut sb);
            }
            let reseeds: Vec<u64> = seeds.iter().map(|s| s.wrapping_mul(31)).collect();
            batch_env.reset_batch(&reseeds, &mut sb);
            let mut fresh_env = id.make_batch(lanes);
            let mut fresh = StepBatch::new(lanes, fresh_env.observation_size());
            fresh_env.reset_batch(&reseeds, &mut fresh);
            for b in 0..lanes {
                prop_assert_eq!(sb.obs_row(b), fresh.obs_row(b), "{} lane {}", id, b);
                prop_assert!(sb.active[b]);
                prop_assert!(!sb.terminated[b] && !sb.truncated[b]);
                prop_assert_eq!(sb.rewards[b].to_bits(), 0.0f64.to_bits());
            }
        }
    }
}
