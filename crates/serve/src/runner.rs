//! Worker-pool job execution over the `voltctl-exp` engine.
//!
//! Each worker thread loops on [`JobTable::claim`] and executes jobs
//! through the *same* primitives the CLI's sharded path uses —
//! [`plan_shards`] → [`run_cells`] per shard → [`assemble_run`] — so a
//! job's rendered report is byte-identical to the equivalent
//! `voltctl-exp run` invocation (the engine's merge is grid-ordered and
//! jobs/shards-invariant).
//!
//! # Crash safety and cancellation
//!
//! Between shards the runner consults the job's cooperative cancel
//! flag and, when checkpointing is enabled, persists each completed
//! shard through the PR 7 checkpoint container (`encode_checkpoint` +
//! the atomic never-overwrite writer). A daemon that crashes — or a job
//! that is cancelled — leaves valid shard checkpoints behind; a
//! resubmitted identical job revalidates them via [`try_load_shard`]
//! (geometry + context fingerprint) and resumes where the work stopped.
//!
//! # Panic isolation
//!
//! Scenario code asserts paper-shape claims and can panic on
//! pathological inputs. Workers run each job under `catch_unwind`: a
//! panicking job lands in `Failed` with the panic message; the worker
//! thread and the daemon live on.

use crate::event::{EventLevel, F};
use crate::job::{Claimed, JobOutcome, JobSpec, JobTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use voltctl_exp::telemetry::Mode;
use voltctl_exp::{
    assemble_run, checkpoint_file, ctx_fingerprint, encode_checkpoint, find, plan_shards,
    run_cells, try_load_shard, Scenario, ShardMeta,
};
use voltctl_telemetry::export::{create_dir_fresh, write_bytes_fresh};

/// Runner-relevant daemon configuration (a subset of the server's).
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// State root: `<root>/jobs/` holds per-job artifact directories,
    /// `<root>/checkpoints/` the shared checkpoint store.
    pub root: PathBuf,
    /// Shard count used when a spec leaves `shards` at 0. Also the
    /// cancellation granularity.
    pub default_shards: usize,
}

/// The stable key for a job's checkpoint directory: scenario id plus
/// the context fingerprint and shard count that determine checkpoint
/// compatibility. Identical requests — across daemon restarts — map to
/// the same directory and can resume each other's shards.
pub fn work_key(spec: &JobSpec, ctx: &voltctl_exp::Ctx, shards: usize) -> String {
    format!(
        "{}-{:016x}-s{}",
        spec.scenario,
        ctx_fingerprint(ctx),
        shards
    )
}

/// Runs the worker loop until the table shuts down. Spawn one thread
/// per worker. The busy-worker gauge brackets each job so `/metrics`
/// shows live occupancy.
pub fn worker_loop(table: Arc<JobTable>, cfg: Arc<RunnerConfig>) {
    while let Some(claimed) = table.claim() {
        let busy = crate::metrics::global();
        busy.workers_busy.add(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&table, &cfg, &claimed)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                JobOutcome::Failed(format!("panic: {msg}"))
            });
        table.finish(claimed.id, outcome);
        busy.workers_busy.add(-1);
    }
}

fn execute(table: &JobTable, cfg: &RunnerConfig, claimed: &Claimed) -> JobOutcome {
    let Claimed {
        id, spec, cancel, ..
    } = claimed;
    let id = *id;
    let cancel: &AtomicBool = cancel;
    let Some(scenario) = find(&spec.scenario) else {
        // The server validates at submit; this covers direct table use.
        return JobOutcome::Failed(format!("unknown scenario {:?}", spec.scenario));
    };

    let jobs_dir = cfg.root.join("jobs");
    let artifact_dir = match create_dir_fresh(&jobs_dir, &format!("job{id}")) {
        Ok(dir) => dir,
        Err(e) => return JobOutcome::Failed(format!("cannot create artifact dir: {e}")),
    };
    table.set_artifact_dir(id, artifact_dir.clone());

    let ctx = spec.ctx(artifact_dir.clone());
    let total = scenario.cells(&ctx).len();
    let shards = if spec.shards == 0 {
        cfg.default_shards
    } else {
        spec.shards
    };
    let plan = plan_shards(total, shards);
    let shard_count = plan.len();
    let ckpt_dir = cfg
        .root
        .join("checkpoints")
        .join(work_key(spec, &ctx, shard_count));
    if spec.checkpoints {
        if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
            return JobOutcome::Failed(format!("cannot create checkpoint dir: {e}"));
        }
    }

    let mut results = Vec::with_capacity(total);
    for (i, range) in plan.into_iter().enumerate() {
        if cancel.load(Ordering::Relaxed) {
            return JobOutcome::Cancelled(results.len());
        }
        let meta = ShardMeta::new(scenario.id(), &ctx, i, shard_count, &range, total);
        let (cells, resumed) = match spec
            .checkpoints
            .then(|| try_load_shard(&ckpt_dir, &meta))
            .flatten()
        {
            Some(cells) => (cells, true),
            None => {
                let cells = run_cells(scenario, &ctx, 1, range);
                if spec.checkpoints {
                    persist_shard(table, &ckpt_dir, scenario, i, shard_count, &meta, &cells);
                }
                (cells, false)
            }
        };
        results.extend(cells);
        table.progress(
            id,
            format!(
                "{{\"job\":{id},\"event\":\"shard\",\"shard\":{i},\"shards\":{shard_count},\
                 \"cells_done\":{},\"cells_total\":{total},\"resumed\":{resumed},\"req\":{}}}",
                results.len(),
                voltctl_telemetry::json::escape(&claimed.request_id)
            ),
            results.len(),
        );
        table.log().emit(
            EventLevel::Debug,
            "job.shard",
            &[
                ("req", F::s(&claimed.request_id)),
                ("job", F::U(id)),
                ("shard", F::U(i as u64)),
                ("shards", F::U(shard_count as u64)),
                ("cells_done", F::U(results.len() as u64)),
                ("cells_total", F::U(total as u64)),
                ("resumed", F::B(resumed)),
            ],
        );
    }
    if cancel.load(Ordering::Relaxed) {
        return JobOutcome::Cancelled(results.len());
    }

    let out = assemble_run(scenario, &ctx, results, 1);
    write_artifacts(table, &artifact_dir, scenario, spec, &out);
    JobOutcome::Done(out.report.into_bytes(), out.cells)
}

fn persist_shard(
    table: &JobTable,
    dir: &Path,
    scenario: &dyn Scenario,
    shard: usize,
    shards: usize,
    meta: &ShardMeta,
    cells: &[voltctl_exp::CellResult],
) {
    let bytes = encode_checkpoint(meta, cells);
    let name = checkpoint_file(scenario.id(), shard, shards);
    if let Err(e) = write_bytes_fresh(dir, &name, &bytes) {
        // Checkpoints are an optimization; a failed write degrades
        // resume, never the job itself.
        table.log().emit(
            EventLevel::Warn,
            "runner.checkpoint_write_failed",
            &[
                ("shard", F::U(shard as u64)),
                ("error", F::s(e.to_string())),
            ],
        );
    }
}

fn write_artifacts(
    table: &JobTable,
    dir: &Path,
    scenario: &dyn Scenario,
    spec: &JobSpec,
    out: &voltctl_exp::RunOutput,
) {
    if let Err(e) = write_bytes_fresh(dir, "report.txt", out.report.as_bytes()) {
        table.log().emit(
            EventLevel::Warn,
            "runner.report_write_failed",
            &[("error", F::s(e.to_string()))],
        );
    }
    if spec.telemetry != Mode::Off {
        voltctl_exp::telemetry::export_run(scenario.id(), &out.telemetry, spec.telemetry, dir);
    }
    if spec.trace {
        if let Err(e) = voltctl_exp::trace::export(dir, scenario.id(), &out.trace) {
            table.log().emit(
                EventLevel::Warn,
                "runner.trace_export_failed",
                &[("error", F::s(e.to_string()))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_exp::{run_scenario, Ctx};

    fn smoke_spec(scenario: &str) -> JobSpec {
        JobSpec {
            scenario: scenario.to_string(),
            smoke: true,
            ..JobSpec::default()
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("voltctl-serve-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_one(table: &Arc<JobTable>, cfg: &Arc<RunnerConfig>) {
        let claimed = table.claim().unwrap();
        let outcome = execute(table, cfg, &claimed);
        table.finish(claimed.id, outcome);
    }

    #[test]
    fn report_bytes_match_cli_render() {
        let root = temp_root("render");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let id = table.submit(smoke_spec("fig01_itrs")).unwrap();
        run_one(&table, &cfg);
        let served = table.report(id).expect("job must complete with a report");

        let scenario = find("fig01_itrs").unwrap();
        let ctx = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        let cli = run_scenario(scenario, &ctx, 1).report;
        assert_eq!(
            served,
            cli.into_bytes(),
            "served report must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_resubmission_resumes_from_checkpoints() {
        let root = temp_root("resume");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let first = table.submit(smoke_spec("fig02_response")).unwrap();
        run_one(&table, &cfg);
        let second = table.submit(smoke_spec("fig02_response")).unwrap();
        run_one(&table, &cfg);
        assert_eq!(table.report(first), table.report(second));
        // The second run must have loaded every shard from checkpoint.
        let snap = table.snapshot(second).unwrap();
        let (events, _) = table
            .wait_events(second, 0, std::time::Duration::from_millis(10))
            .unwrap();
        let shards = events
            .iter()
            .filter(|e| e.contains("\"event\":\"shard\""))
            .count();
        let resumed = events
            .iter()
            .filter(|e| e.contains("\"resumed\":true"))
            .count();
        assert!(shards >= 1);
        assert_eq!(resumed, shards, "every shard should resume: {events:?}");
        assert_eq!(snap.state, crate::job::JobState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pre_raised_cancel_flag_cancels_before_any_shard() {
        let root = temp_root("cancel");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let id = table.submit(smoke_spec("fig03_narrow_spike")).unwrap();
        let claimed = table.claim().unwrap();
        assert_eq!(claimed.id, id);
        claimed.cancel.store(true, Ordering::Relaxed);
        let outcome = execute(&table, &cfg, &claimed);
        assert!(matches!(outcome, JobOutcome::Cancelled(0)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_scenario_fails_cleanly() {
        let root = temp_root("unknown");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        table.submit(smoke_spec("no_such_scenario")).unwrap();
        run_one(&table, &cfg);
        let snap = table.snapshot(1).unwrap();
        assert_eq!(snap.state, crate::job::JobState::Failed);
        assert!(snap.error.unwrap().contains("no_such_scenario"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
