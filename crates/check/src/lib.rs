//! voltctl-check: zero-dependency property-based testing for the
//! workspace.
//!
//! The build environment has no registry access, so `proptest` and
//! `quickcheck` are unavailable; until now every equivalence claim in the
//! hot path (convolution vs. state-space voltages, cached vs. fresh
//! threshold solves) was guarded by hand-rolled seeded loops that
//! neither shrink failures nor remember them. This crate is the in-tree
//! replacement:
//!
//! * **[`gen`]** — composable generators ([`Gen`]) for scalars, vectors,
//!   and tuples, each carrying its own shrinking strategy (integer
//!   halving, vector element-dropping, scalar bisection);
//! * **[`runner`]** — the [`check`] entry point: seeded case generation
//!   on the workspace's SplitMix64 ([`voltctl_telemetry::Rng`]), greedy
//!   shrinking of failures to a minimal counterexample, and panic-safe
//!   property execution (both `Result`-returning and `assert!`-style
//!   properties work);
//! * **[`persist`]** — failure-seed persistence to
//!   `results/check/failures.jsonl`: red seeds are replayed *first* on
//!   the next run, so CI and local reruns go straight to the regression;
//! * **[`json`]** — the minimal JSON reader from `voltctl-telemetry`,
//!   re-exported for validating machine-readable artifacts
//!   (`BENCH_*.json`, telemetry snapshots) without serde;
//! * **[`diff`]** — a minimal line-level diff, shared with the golden
//!   snapshot harness in `voltctl-exp`.
//!
//! # Seeding contract
//!
//! Case `k` of a property with base seed `s` runs its generator on
//! `Rng::new(s.wrapping_add(k))`. This is deliberate: the workspace's
//! pre-existing hand-rolled loops were written as
//! `for seed in 0..N { Rng::new(BASE + seed) }`, so a migrated property
//! with the same base seed and case count reproduces the exact historical
//! value stream — migration strictly extends coverage, never trades it.
//!
//! # Example
//!
//! ```
//! use voltctl_check::{check, vec_f64, Config};
//!
//! let trace = vec_f64(1, 64, 0.0, 60.0);
//! check("doc.sum-nonnegative", &Config::cases(32, 0xD0C), &trace, |t| {
//!     let sum: f64 = t.iter().sum();
//!     voltctl_check::ensure!(sum >= 0.0, "sum {sum} went negative");
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod gen;
pub mod persist;
pub mod runner;

pub use diff::line_diff;
pub use gen::{
    f64_bits, f64_in, from_fn, i64_in, just, map, usize_in, vec_f64, vec_of, FnGen, Gen, Just,
    MappedGen, VecGen,
};
pub use persist::{default_dir, FailureRecord};
pub use runner::{check, Config};
pub use voltctl_telemetry::json::{self, Json};

/// Early-returns `Err(format!(...))` from a property when a condition
/// fails — the property-style replacement for `assert!` that keeps
/// shrinking quiet (no panic machinery per candidate).
///
/// Plain `assert!` also works inside properties (panics are caught and
/// treated as failures), but `ensure!` produces cleaner failure messages.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("ensure failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// Early-returns `Err` from a property when two expressions differ,
/// showing both values.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "ensure_eq failed: {} = {a:?} vs {} = {b:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{}: {} = {a:?} vs {} = {b:?}",
                format!($($arg)+),
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}
