//! The `voltctl-exp trace` command: run a trace-aware scenario with the
//! flight recorder attached, attribute every captured emergency to a
//! root cause, and export the evidence.
//!
//! Two artifacts land under the output directory (default
//! `results/trace/`), both through the never-overwrite writer
//! ([`write_file_fresh`](voltctl_telemetry::export::write_file_fresh)):
//!
//! * `<id>.trace.json` — Chrome trace-event JSON, loadable in Perfetto
//!   (`ui.perfetto.dev`) or `chrome://tracing`; one process per grid
//!   cell with counter tracks for voltage/current/sensor band/actuator
//!   duty and instant events for emergencies and interventions.
//! * `<id>.forensics.txt` — the human-readable root-cause report:
//!   cause ranking plus one line per capture.
//!
//! The per-cell flight recorders are merged in grid order by the engine,
//! so both artifacts are byte-identical for any `--jobs` value.

use std::path::{Path, PathBuf};

use crate::engine::{default_jobs, run_scenario, Ctx, TraceSpec};
use crate::harness::pdn_at;
use crate::scenarios::find;
use voltctl_trace::{AttributionConfig, Forensics, MergedTrace};

/// The default trace-artifact directory: `<workspace root>/results/trace`.
pub fn default_out_dir() -> PathBuf {
    voltctl_check::persist::workspace_root()
        .join("results")
        .join("trace")
}

/// The attribution configuration used by every exported report: the
/// resonant period comes from the 200%-impedance supply network — the
/// operating point the paper's stressmark narrative (and our traced
/// scenarios) are built around.
pub fn attribution_config() -> AttributionConfig {
    AttributionConfig::new(pdn_at(2.0).resonant_period_cycles())
}

/// Expands the CLI conveniences: `stressmark` is an alias for the
/// scenario that tunes and runs it.
pub fn resolve_alias(id: &str) -> &str {
    match id {
        "stressmark" => "fig08_stressmark",
        other => other,
    }
}

/// Analyzes a merged trace with the standard [`attribution_config`].
pub fn forensics(merged: &MergedTrace) -> Forensics {
    Forensics::analyze(merged, &attribution_config())
}

/// Paths of one exported trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifacts {
    /// The Perfetto-loadable trace-event JSON.
    pub json: PathBuf,
    /// The plain-text forensics report.
    pub forensics: PathBuf,
}

/// Exports a merged trace as `<id>.trace.json` + `<id>.forensics.txt`
/// under `out_dir`, validating the JSON through the workspace's own
/// parser before anything touches disk.
///
/// # Errors
///
/// Returns `Err` when the generated JSON fails to parse (a bug in the
/// exporter, caught here rather than in the Perfetto UI) or when a file
/// cannot be written.
pub fn export(out_dir: &Path, id: &str, merged: &MergedTrace) -> Result<TraceArtifacts, String> {
    let json = voltctl_trace::to_chrome_trace(id, merged);
    voltctl_telemetry::Json::parse(&json)
        .map_err(|e| format!("generated trace JSON for {id} does not parse: {e}"))?;
    let report = forensics(merged).render(id);

    let export = |file: String, contents: &str| {
        voltctl_telemetry::export::write_file_fresh(out_dir, &file, contents)
            .map_err(|e| format!("cannot write {file} under {}: {e}", out_dir.display()))
    };
    Ok(TraceArtifacts {
        json: export(format!("{id}.trace.json"), &json)?,
        forensics: export(format!("{id}.forensics.txt"), &report)?,
    })
}

/// Options for `voltctl-exp trace`.
#[derive(Debug, Clone)]
pub struct TraceOpts {
    /// Scenario ids to trace (aliases accepted; see [`resolve_alias`]).
    pub ids: Vec<String>,
    /// Flight-recorder window (cycles kept either side of a crossing).
    pub window: usize,
    /// Artifact directory.
    pub out: PathBuf,
    /// Worker threads per scenario grid.
    pub jobs: usize,
    /// Cycle-budget scale factor.
    pub scale: f64,
    /// Smoke mode: tiny budgets, for plumbing checks.
    pub smoke: bool,
    /// Fail (exit nonzero) unless at least this many emergencies were
    /// captured across all traced scenarios. CI uses `1` to prove the
    /// recorder actually fired.
    pub min_captures: usize,
}

impl Default for TraceOpts {
    fn default() -> TraceOpts {
        TraceOpts {
            ids: Vec::new(),
            window: voltctl_trace::DEFAULT_WINDOW,
            out: default_out_dir(),
            jobs: default_jobs(),
            scale: 1.0,
            smoke: false,
            min_captures: 0,
        }
    }
}

/// Runs each requested scenario with tracing on, prints the forensics
/// report, and exports both artifacts per scenario.
///
/// # Errors
///
/// Returns `Err` for unknown ids, export failures, scenarios that
/// produced no trace (not trace-aware), or an unmet `--min-captures`.
pub fn run(opts: &TraceOpts) -> Result<(), String> {
    if opts.ids.is_empty() {
        return Err("trace needs at least one scenario id (try `trace stressmark`)".to_string());
    }
    let scenarios: Vec<_> = opts
        .ids
        .iter()
        .map(|id| {
            let id = resolve_alias(id);
            find(id).ok_or_else(|| format!("unknown scenario {id:?} (see `voltctl-exp list`)"))
        })
        .collect::<Result<_, _>>()?;

    let ctx = Ctx {
        scale: opts.scale,
        smoke: opts.smoke,
        trace: Some(TraceSpec {
            window: opts.window.max(1),
        }),
        ..Ctx::default()
    };

    let started = std::time::Instant::now();
    let mut manifest = crate::manifest::Manifest::new(format!("trace --window {}", opts.window));
    manifest.ctx(&ctx, opts.jobs);
    let mut total_captures = 0usize;
    for (k, scenario) in scenarios.iter().enumerate() {
        if k > 0 {
            println!();
        }
        let out = run_scenario(*scenario, &ctx, opts.jobs);
        if out.trace.is_empty() {
            return Err(format!(
                "scenario {} is not trace-aware (no cell attached a flight recorder)",
                scenario.id()
            ));
        }
        total_captures += out.trace.total_captures();
        print!("{}", forensics(&out.trace).render(scenario.id()));
        let artifacts = export(&opts.out, scenario.id(), &out.trace)?;
        eprintln!(
            "[voltctl-exp] trace {}: {} capture(s); wrote {} and {}",
            scenario.id(),
            out.trace.total_captures(),
            artifacts.json.display(),
            artifacts.forensics.display()
        );
        manifest.scenario(scenario.id());
        manifest
            .artifact(&artifacts.json)
            .artifact(&artifacts.forensics);
    }
    manifest.wall(started.elapsed());
    let manifest_path = manifest
        .write(&opts.out)
        .map_err(|e| format!("cannot write manifest under {}: {e}", opts.out.display()))?;
    eprintln!("[voltctl-exp] wrote {}", manifest_path.display());

    if total_captures < opts.min_captures {
        return Err(format!(
            "captured {total_captures} emergenc{} across {} scenario(s), below --min-captures {}",
            if total_captures == 1 { "y" } else { "ies" },
            scenarios.len(),
            opts.min_captures
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve() {
        assert_eq!(resolve_alias("stressmark"), "fig08_stressmark");
        assert_eq!(
            resolve_alias("fig11_controller_trace"),
            "fig11_controller_trace"
        );
    }

    #[test]
    fn attribution_config_targets_the_resonance() {
        let cfg = attribution_config();
        assert_eq!(cfg.resonant_period, pdn_at(2.0).resonant_period_cycles());
        assert!(cfg.resonant_period >= 2);
    }

    #[test]
    fn empty_id_list_is_an_error() {
        let err = run(&TraceOpts::default()).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let opts = TraceOpts {
            ids: vec!["nope".into()],
            ..TraceOpts::default()
        };
        assert!(run(&opts).unwrap_err().contains("unknown scenario"));
    }

    #[test]
    fn untraced_scenario_is_an_error() {
        // fig01_itrs never attaches a flight recorder.
        let opts = TraceOpts {
            ids: vec!["fig01_itrs".into()],
            smoke: true,
            out: std::env::temp_dir().join("voltctl-trace-none"),
            ..TraceOpts::default()
        };
        assert!(run(&opts).unwrap_err().contains("not trace-aware"));
    }
}
