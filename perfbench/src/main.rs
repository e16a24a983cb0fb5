//! End-to-end benchmark of the paper's pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cold|online_hours|stress_greedy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command is a coordinator: it re-runs its own executable as child
//! processes, one per measurement, each with `JCR_WORKERS` set to the
//! pool width (the online loop's rung contexts take their width from
//! it), and checks their outputs against each other.
//!
//! * `--trace 0` splits the timed phase over three children at width 2
//!   with the benchmark's tracing off, then runs two verification
//!   children over the first ops, at widths 1 and 2, and prints every
//!   end-to-end metric.
//! * `--trace 1` runs a traced child at width 1 and one at width 2, plus
//!   an untraced child at width 2 for `bench.trace_overhead`, prints the
//!   per-layer ledger and writes it to `perfbench/out/`.
//!
//! Every run requires the routing-cost digest of the first ops to be
//! identical in every child. Any failed output check prints
//! `"correct": false` and exits with code 1. The last stdout line is the
//! JSON result.

mod ledger;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ledger::Ledger;
use stats::{Accounting, Digest};

/// The pool width the benchmark operates at (the machine's `nproc`).
const WIDTH: usize = 2;
/// Processes the timed phase is split over. A process's speed depends on
/// where it lands (which vCPU, how its heap is mapped), so one process
/// per run makes the whole run fast or slow; three average that out.
const TIMED_CHILDREN: usize = 3;
/// Timed child `i` runs ops from `i * OP_OFFSET`, so the children time
/// different instances. A multiple of the online operator length, so
/// every child starts on an operator's first hour.
const OP_OFFSET: u64 = 1_000_000;
/// Set-ups per child: at least one, and more while they total under
/// `SETUP_MIN_SECONDS`, up to `SETUP_MAX_REPS`, so a set-up of a few
/// milliseconds still gets a steady median.
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// Per-workload op windows: the digest covers the first `digest_ops`
/// ops of every child; the quality metrics (`served_share`,
/// `full_rung_share`, `routing_cost`) cover the first `quality_ops` ops
/// of the first timed child, which runs at least that many whatever
/// `--seconds` says, so they are deterministic for a seed.
fn windows(workload: &str) -> (u64, u64) {
    match workload {
        "paper_cold" => (6, 48),
        "online_hours" => (12, 2 * workloads::OPERATOR_HOURS as u64),
        _ => (3, 16),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<(Args, BTreeMap<String, String>), String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            workloads::NAMES
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
        },
        flags,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, flags) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match flags.get("child") {
        Some(role) => child(&args, role, &flags).map(|()| true),
        None => coordinate(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What a child reports: `key=value` lines on its stdout.
type Report = BTreeMap<String, String>;

/// Runs a child to completion and parses its report. `role` is
/// `quality` (timed, and completes the quality window), `timed`,
/// `ledger` (a per-layer run) or `verify` (the digest window only).
fn run_child(
    args: &Args,
    role: &str,
    width: usize,
    traced: bool,
    seconds: f64,
    first_op: u64,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", role])
        .args(["--width", &width.to_string()])
        .args(["--first-op", &first_op.to_string()])
        .env("JCR_WORKERS", width.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{role} child at width {width} exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(text
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num(report: &Report, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .ok_or_else(|| format!("child report lacks {key}"))?
        .parse()
        .map_err(|e| format!("child report {key}: {e}"))
}

/// One metric of the final result line.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn coordinate(args: &Args) -> Result<bool, String> {
    let mut metrics: Vec<Metric> = Vec::new();
    // Children that ran the same ops (their digests must agree) and the
    // rest.
    let (same_ops, others): (Vec<(String, Report)>, Vec<Report>) = if !args.trace {
        // The first timed child also completes the quality window; it and
        // two verify children (widths 1 and 2) run the same first ops and
        // must agree on the digest.
        let share = args.seconds / TIMED_CHILDREN as f64;
        let mut timed = Vec::with_capacity(TIMED_CHILDREN);
        for i in 0..TIMED_CHILDREN {
            let role = if i == 0 { "quality" } else { "timed" };
            let first_op = i as u64 * OP_OFFSET;
            timed.push(run_child(args, role, WIDTH, false, share, first_op)?);
        }
        let v1 = run_child(args, "verify", 1, false, args.seconds, 0)?;
        let v2 = run_child(args, "verify", WIDTH, false, args.seconds, 0)?;
        let first = &timed[0];

        let mut op_ms = Vec::new();
        let (mut ops, mut elapsed) = (0.0, 0.0);
        let mut rss = Vec::new();
        for report in &timed {
            let samples = report.get("op_ms").map_or("", String::as_str);
            for v in samples.split(',').filter(|v| !v.is_empty()) {
                op_ms.push(v.parse::<f64>().map_err(|e| format!("op_ms: {e}"))?);
            }
            ops += num(report, "ops")?;
            elapsed += num(report, "elapsed_s")?;
            rss.push(num(report, "peak_rss_mb")?);
        }
        let tail = stats::tail(&op_ms).ok_or("no op ran")?;
        // Set-up time varies between processes too, so `setup_s` is the
        // median over every child's own median.
        let mut setups = vec![num(&v1, "setup_s")?, num(&v2, "setup_s")?];
        for report in &timed {
            setups.push(num(report, "setup_s")?);
        }
        let e2e: [(&str, f64, &str); 8] = [
            ("setup_s", stats::median(&setups), "s"),
            ("ops_per_s", ops / elapsed, "1/s"),
            ("op_ms_p50", stats::median(&op_ms), "ms"),
            ("op_ms_tail", tail.value, "ms"),
            ("served_share", num(first, "served_share")?, "ratio"),
            ("full_rung_share", num(first, "full_rung_share")?, "ratio"),
            ("routing_cost", num(first, "routing_cost")?, "cost"),
            ("peak_rss_mb", stats::median(&rss), "MiB"),
        ];
        for (name, value, unit) in e2e {
            metrics.push(Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            });
        }
        println!(
            "workload {} seed {} (width {WIDTH}, tracing off)",
            args.workload, args.seed
        );
        for m in &metrics {
            println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  op_ms_tail is p{:.1} of {} ops ({} beyond it)",
            tail.percentile, tail.count, tail.beyond
        );
        println!(
            "  solves: {} attempted, {} failed (failed_share {:.4}), {} degraded (degraded_share {:.4}) over the first {} ops",
            num(first, "solves")?,
            num(first, "failed_solves")?,
            num(first, "failed_share")?,
            num(first, "degraded_solves")?,
            num(first, "degraded_share")?,
            num(first, "quality_ops")?,
        );
        let mut timed = timed.into_iter();
        let first = timed.next().expect("TIMED_CHILDREN >= 1");
        let same_ops = vec![
            ("timed w2".to_string(), first),
            ("verify w1".to_string(), v1),
            ("verify w2".to_string(), v2),
        ];
        (same_ops, timed.collect())
    } else {
        // Three measurements share the run's time.
        let share = args.seconds / 3.0;
        let w1 = run_child(args, "ledger", 1, true, share, 0)?;
        let w2 = run_child(args, "ledger", WIDTH, true, share, 0)?;
        let plain = run_child(args, "ledger", WIDTH, false, share, 0)?;
        for (prefix, report) in [("w1", &w1), ("w2", &w2)] {
            for (key, value) in report {
                if let Some(rest) = key.strip_prefix("layer:") {
                    let (name, unit) = rest.rsplit_once(':').unwrap_or((rest, ""));
                    metrics.push(Metric {
                        name: format!("{prefix}.{name}"),
                        value: value.parse().map_err(|e| format!("{key}: {e}"))?,
                        unit: unit.into(),
                    });
                }
            }
        }
        let p50 = |r: &Report| num(r, "op_ms_p50");
        metrics.push(Metric {
            name: "pool.speedup".into(),
            value: p50(&w1)? / p50(&w2)?,
            unit: "ratio".into(),
        });
        metrics.push(Metric {
            name: "bench.trace_overhead".into(),
            value: p50(&w2)? / p50(&plain)?,
            unit: "ratio".into(),
        });
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        let ledger_text = ledger_table(args, &metrics);
        print!("{ledger_text}");
        write_ledger(args, &ledger_text);
        let same_ops = vec![
            ("traced w1".to_string(), w1),
            ("traced w2".to_string(), w2),
            ("untraced w2".to_string(), plain),
        ];
        (same_ops, Vec::new())
    };

    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut bad_ops) = (0u64, 0u64);
    let (reference, expected) = (&same_ops[0].0, same_ops[0].1.get("digest"));
    for (label, report) in same_ops.iter().map(|(l, r)| (l.as_str(), r)) {
        let digest = report.get("digest");
        let shown = digest.map_or("", String::as_str);
        println!("  digest {label}: {shown}");
        if digest.is_none() || digest != expected {
            failures.push(format!(
                "routing-cost digest of {label} ({shown}) differs from {reference}"
            ));
        }
    }
    let all = same_ops
        .iter()
        .map(|(l, r)| (l.as_str(), r))
        .chain(others.iter().map(|r| ("timed w2", r)));
    for (label, report) in all {
        attempted += num(report, "ops")? as u64;
        bad_ops += num(report, "bad_ops")? as u64;
        failures.extend(
            report
                .iter()
                .filter(|(k, _)| k.starts_with("check"))
                .map(|(_, v)| format!("{label}: {v}")),
        );
    }
    for f in &failures {
        eprintln!("perfbench: output check failed: {f}");
    }
    let correct = failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        if correct { bad_ops } else { bad_ops.max(1) },
        body.join(", ")
    );
    Ok(correct)
}

/// A finite number as JSON with every digit of its shortest round-trip
/// form; non-finite values (already failing `correct`) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn ledger_table(args: &Args, metrics: &[Metric]) -> String {
    let mut s = format!(
        "per-layer ledger: workload {} seed {} (traced, widths 1 and {WIDTH})\n",
        args.workload, args.seed
    );
    for m in metrics {
        s.push_str(&format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    s
}

/// Writes the ledger next to the benchmark, under `perfbench/out/`
/// (ignored by git); a write failure is reported, not fatal.
fn write_ledger(args: &Args, text: &str) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("ledger-{}-seed{}.txt", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Runs one measurement in this process and prints its report.
fn child(args: &Args, role: &str, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let width: usize = flags
        .get("width")
        .ok_or("child needs --width")?
        .parse()
        .map_err(|e| format!("--width: {e}"))?;
    let first_op: u64 = flags
        .get("first-op")
        .map_or(Ok(0), |v| v.parse())
        .map_err(|e| format!("--first-op: {e}"))?;
    let (digest_ops, quality_ops) = windows(&args.workload);
    let verify = role == "verify";
    let quality = role == "quality";

    let mut setup_s = Vec::new();
    let mut topo_ms = Vec::new();
    let mut demand_ms = Vec::new();
    let mut workload = None;
    let setup_started = Instant::now();
    while setup_s.is_empty()
        || (setup_s.len() < SETUP_MAX_REPS
            && setup_started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        // Drop the previous set-up first so repetitions do not stack up
        // in the peak resident set.
        drop(workload.take());
        let t = Instant::now();
        let (w, times) = workloads::setup(&args.workload, args.seed).ok_or("unknown workload")?;
        setup_s.push(t.elapsed().as_secs_f64());
        topo_ms.push(times.topo_ns / 1e6);
        demand_ms.push(times.demand_ns / 1e6);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");

    let min_ops = if quality {
        digest_ops.max(quality_ops)
    } else {
        digest_ops
    };
    let budget = if verify { 0.0 } else { args.seconds };
    let mut ledger = args.trace.then(Ledger::default);
    let mut op_ms = Vec::new();
    let mut digest = Digest::default();
    let mut window = Accounting::default();
    let mut bad_ops = 0u64;
    let mut checks = Vec::new();
    let started = Instant::now();
    // `k` counts this child's ops; it runs op `first_op + k`.
    let mut k = 0u64;
    while k < min_ops || started.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let result = workload.op(first_op + k, width, ledger.as_mut());
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for &o in &result.outcomes {
            if k < digest_ops {
                digest.push(o);
            }
            if k < quality_ops {
                window.record(o);
            }
        }
        if let Some(why) = result.check_failure {
            bad_ops += 1;
            checks.push(format!("op {}: {why}", first_op + k));
        }
        k += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    println!("digest={}", digest.hex());
    println!("ops={k}");
    println!("bad_ops={bad_ops}");
    for (i, c) in checks.iter().enumerate() {
        println!("check{i}={c}");
    }
    println!("setup_s={:?}", stats::median(&setup_s));
    println!("elapsed_s={elapsed:?}");
    let samples: Vec<String> = op_ms.iter().map(|v| format!("{v:?}")).collect();
    println!("op_ms={}", samples.join(","));
    println!("op_ms_p50={:?}", stats::median(&op_ms));
    println!("quality_ops={}", quality_ops.min(k));
    println!("solves={}", window.attempted);
    println!("failed_solves={}", window.failed);
    println!("degraded_solves={}", window.degraded);
    println!("failed_share={:?}", window.failed_share());
    println!("degraded_share={:?}", window.degraded_share());
    println!("served_share={:?}", window.served_share());
    println!("full_rung_share={:?}", window.full_share());
    println!("routing_cost={:?}", window.mean_cost());
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!("peak_rss_mb={rss:?}");
    if let Some(ledger) = &ledger {
        let setup = [
            ("topo.generate_ms", stats::median(&topo_ms)),
            ("trace.demand_ms", stats::median(&demand_ms)),
        ];
        for (name, value, unit) in ledger.metrics(&setup) {
            println!("layer:{name}:{unit}={value:?}");
        }
    }
    Ok(())
}
