//! voltctl-exp: the unified experiment engine.
//!
//! Every table, figure, and ablation of the reproduction is a
//! [`Scenario`]: a named parameter grid plus a per-cell run function and
//! a renderer. The [`engine`] fans a scenario's grid across worker
//! threads (`std::thread::scope`, zero dependencies) and reassembles a
//! deterministic report — byte-identical for any `--jobs` value.
//!
//! The `voltctl-exp` binary is the front door:
//!
//! ```text
//! voltctl-exp list
//! voltctl-exp run table2_emergencies --jobs 8
//! voltctl-exp run --all --smoke
//! ```

pub mod bench;
pub mod cache;
pub mod engine;
pub mod golden;
pub mod harness;
pub mod manifest;
pub mod profile;
pub mod report;
pub mod scale;
pub mod scenarios;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub mod trace;

pub use bench::{BenchOpts, BenchPoint, BenchSuite};
pub use cache::{CacheStats, ShardedLru};
pub use engine::{
    assemble_run, default_jobs, run_cells, run_scenario, run_scenario_profiled, CellResult, Ctx,
    RunOutput, Runtime, Scenario, TraceSpec,
};
pub use golden::{GoldenOpts, GoldenOutcome, Verdict};
pub use harness::{
    cpu_config, current_trace, delta_i, evaluate, pdn_at, power_model, solve_cache_stats,
    solve_for, spec_suite, sweep_point, tuned_stressmark, variable_eight, SweepRow,
};
pub use manifest::Manifest;
pub use profile::{NullProfiler, Profiler, SelfProfiler, Span};
pub use report::{ascii_chart, pct, TextTable};
pub use scale::{env_scale, parse_scale, scaled_budget, MIN_CYCLES};
pub use scenarios::{find, listing, registry};
pub use shard::{
    checkpoint_file, ctx_fingerprint, decode_checkpoint, encode_checkpoint, plan_shards,
    run_sharded, try_load_shard, ShardMeta, ShardOpts, ShardRun,
};
