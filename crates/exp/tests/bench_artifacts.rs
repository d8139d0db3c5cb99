//! Shape checks for the `voltctl-exp bench --smoke` artifact:
//! `BENCH_loop.json` must parse, carry no NaN/null measurements, and
//! report strictly positive throughput.

use voltctl_check::Json;
use voltctl_exp::{bench, BenchOpts};

#[test]
fn smoke_bench_artifacts_parse_and_are_sane() {
    let dir = std::env::temp_dir().join(format!("voltctl-bench-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = BenchOpts {
        smoke: true,
        out: dir.clone(),
        ..BenchOpts::default()
    };
    let path = bench::run(&opts).expect("smoke bench must pass its own sanity gate");
    assert_eq!(
        path.file_name().and_then(|f| f.to_str()),
        Some("BENCH_loop.json")
    );
    let raw = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&raw).unwrap_or_else(|e| panic!("{}: {e}", path.display()));

    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("loop"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_f64),
        Some(bench::BENCH_SCHEMA as f64)
    );
    assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));

    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{}: points must be an array", path.display()));
    for p in points {
        let label = p.get("path").and_then(Json::as_str).unwrap_or("?");
        for field in ["wall_ns", "best_ns", "cycles_per_sec", "ns_per_cycle"] {
            let v = p.get(field);
            assert!(
                !v.map(Json::is_null).unwrap_or(true),
                "{label}: {field} is null/missing (NaN leaked into the artifact)"
            );
            let x = v.and_then(Json::as_f64).unwrap();
            assert!(
                x.is_finite() && x > 0.0,
                "{label}: {field} = {x} is not positive-finite"
            );
        }
        let cycles = p.get("cycles").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(cycles > 0.0, "{label}: zero simulated cycles");
    }

    // The loop suite covers all five stepping variants, the batched
    // lane points, and the two snapshot (checkpoint write/read) paths.
    let variants: Vec<&str> = points
        .iter()
        .filter_map(|p| p.get("path").and_then(Json::as_str))
        .collect();
    assert_eq!(
        variants,
        [
            "uncontrolled",
            "controlled",
            "lane_w4",
            "lane_w8",
            "recorded",
            "traced",
            "recorded_trace",
            "snapshot_save",
            "snapshot_restore"
        ]
    );

    // The baseline directory carries a parseable provenance manifest
    // naming the artifact.
    let manifest_raw = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let manifest = Json::parse(&manifest_raw).expect("manifest.json parses");
    for key in ["command", "git", "host", "seeds", "schema_versions"] {
        assert!(manifest.get(key).is_some(), "manifest missing {key:?}");
    }
    let artifacts = manifest
        .get("artifacts")
        .and_then(Json::as_arr)
        .expect("artifacts array");
    assert_eq!(artifacts.len(), 1);
    for a in artifacts {
        let bytes = a.get("bytes").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(bytes > 0.0, "artifact sizes are captured");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
