//! # e3-bench — the experiment regeneration harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** prints any (or all) of the paper's tables
//!   and figures as text, optionally as JSON:
//!
//!   ```text
//!   cargo run --release -p e3-bench --bin repro -- all
//!   cargo run --release -p e3-bench --bin repro -- fig9b --full
//!   cargo run --release -p e3-bench --bin repro -- fig11 --json
//!   ```
//!
//! * the **Criterion benches** (`cargo bench`) time the kernels behind
//!   each experiment (INAX scheduling, SA lowering, NEAT generations,
//!   RL updates) so performance regressions in the simulator itself are
//!   visible.
//!
//! The experiment logic itself lives in [`e3_platform::experiments`];
//! this crate only drives it.

pub mod svg;

pub use e3_platform::experiments::Scale;

/// The experiment names `repro` accepts, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table4",
    "table5",
    "fig1b",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "ablation",
    "exec",
    "plan",
    "jit",
    "islands",
    "serve",
    "generalize",
];

/// Default seed used by `repro` (any seed works; results are
/// deterministic per seed).
pub const DEFAULT_SEED: u64 = 42;
