//! End-to-end smoke test of the `experiments diff` subcommand through
//! the real binary: `bench` writes an `OBS.json` artifact next to the
//! report, and diffing that artifact against itself reports zero deltas
//! and exits 0 — the contract the CI bench gate's artifact pipeline
//! rests on. Hostile snapshots (a cyclic span list, 10⁵-deep nesting)
//! exit 1 with a named error instead of aborting the process.

use std::process::Command;

use jcr_ctx::json::Json;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn bench_writes_obs_artifact_and_self_diff_exits_zero() {
    let dir = std::env::temp_dir().join("jcr_diff_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let bench_out = dir.join("BENCH_SMOKE.json");
    let obs_out = dir.join("OBS_SMOKE.json");

    // A minimal bench run: one repetition, one hour, narrow pool.
    let status = experiments()
        .args([
            "bench",
            "--runs",
            "1",
            "--hours",
            "1",
            "--workers",
            "2",
            "--out",
            bench_out.to_str().unwrap(),
        ])
        .status()
        .expect("spawn experiments bench");
    assert!(status.success(), "bench exits 0 without a baseline");
    assert!(
        obs_out.exists(),
        "bench derives OBS_SMOKE.json from --out BENCH_SMOKE.json"
    );

    // Self-diff: zero deltas, exit 0, and the summary says so.
    let out = experiments()
        .args(["diff", obs_out.to_str().unwrap(), obs_out.to_str().unwrap()])
        .output()
        .expect("spawn experiments diff");
    assert!(out.status.success(), "self-diff exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("zero deltas"),
        "self-diff reports zero deltas: {stdout}"
    );

    // The artifact is a valid canonical snapshot (parse + re-render is
    // the identity), so uploads are diffable by later runs.
    let text = std::fs::read_to_string(&obs_out).unwrap();
    let wire = jcr_ctx::obs::wire::WireSnapshot::parse(&text).expect("valid snapshot");
    assert_eq!(wire.render(), text, "artifact is canonical");
    assert_eq!(
        wire.meta.get("kind").map(String::as_str),
        Some("jcr-bench-obs")
    );
    assert_eq!(wire.meta.get("workers").map(String::as_str), Some("2"));

    // Unknown phase: a named error and nonzero exit.
    let out = experiments()
        .args([
            "diff",
            obs_out.to_str().unwrap(),
            obs_out.to_str().unwrap(),
            "--phase",
            "no_such_phase",
        ])
        .output()
        .expect("spawn experiments diff --phase");
    assert!(!out.status.success(), "unknown phase exits nonzero");

    // Wrong arity: usage error, exit 2.
    let out = experiments()
        .args(["diff", obs_out.to_str().unwrap()])
        .output()
        .expect("spawn experiments diff with one path");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn hostile_snapshots_fail_with_a_message_instead_of_aborting() {
    let dir = std::env::temp_dir().join("jcr_diff_cli_hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_BASELINE.json");
    let text = std::fs::read_to_string(baseline).unwrap();

    // Node 1 lists itself as a child: a walk over it would never end.
    let cyclic = dir.join("OBS_CYCLIC.json");
    let mut doc = Json::parse(&text).unwrap();
    if let Json::Obj(top) = &mut doc {
        if let Some(Json::Arr(nodes)) = top.get_mut("nodes") {
            if let Json::Obj(node) = &mut nodes[1] {
                node.insert("children".into(), Json::Str("1".into()));
            }
        }
    }
    std::fs::write(&cyclic, doc.render()).unwrap();
    // Nesting deep enough to overflow a recursive parser's stack.
    let deep = dir.join("OBS_DEEP.json");
    std::fs::write(&deep, "[".repeat(100_000) + &"]".repeat(100_000)).unwrap();

    for (bad, want) in [(&cyclic, "child index 1"), (&deep, "nesting deeper")] {
        let out = experiments()
            .args(["diff", baseline, bad.to_str().unwrap()])
            .output()
            .expect("spawn experiments diff");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.contains(want), "{bad:?}: {stderr}");
    }
}
