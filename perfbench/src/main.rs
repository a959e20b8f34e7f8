//! Host-time benchmark of the DCLUE simulator.
//!
//! ```text
//! perfbench --workload <fig2_sweep|ftp_train> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pass --workload <w> --seed <n> [--traced]   # one pass, one process
//! perfbench pins --workload <w>                         # pins.txt lines at the default seed
//! ```
//!
//! The first form repeats whole passes of the workload, each in a child
//! process of its own (so `peak_rss_mb` belongs to one pass of one
//! workload), until `--seconds` have been spent, and prints medians.
//! With `--trace 1` passes alternate untraced and traced, and the
//! per-layer metrics are printed instead of the end-to-end ones. The
//! last line of stdout is one JSON object; a human-readable table goes
//! to stderr. See README.md for the workloads and the metrics.

mod check;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("committed_per_wall_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "frac"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 41] = [
    ("db.build_s", "s"),
    ("db.build_rss_mb", "MB"),
    ("db.total_pages", "count"),
    ("topology.build_s", "s"),
    ("scenario.parse_s", "s"),
    ("core.world_new_s", "s"),
    ("core.world_new_rest_s", "s"),
    ("core.world_run_s", "s"),
    ("core.world_drop_s", "s"),
    ("sweep.average_s", "s"),
    ("sweep.pool_busy_frac", "frac"),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim.events", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_committed", "count/txn"),
    ("net.train_built", "count"),
    ("net.train_members", "count"),
    ("net.train_splits", "count"),
    ("net.train_bulk_segs", "count"),
    ("net.train_gate_rejected", "count"),
    ("net.train_coalesce_frac", "ratio"),
    ("core.driver_slots", "count"),
    ("workload.committed", "count"),
    ("workload.aborted", "count"),
    ("workload.tpmc_scaled", "txn/min"),
    ("workload.txn_latency_p95_ms", "ms"),
    ("net.ctl_msgs_per_txn", "msgs/txn"),
    ("net.data_msgs_per_txn", "msgs/txn"),
    ("net.storage_msgs_per_txn", "msgs/txn"),
    ("net.trunk_util_edge", "frac"),
    ("net.trunk_util_agg", "frac"),
    ("net.drops", "count"),
    ("net.ftp_mbps", "Mb/s"),
    ("core.fusion_transfers_per_txn", "count/txn"),
    ("db.buffer_hit_ratio", "frac"),
    ("db.lock_waits_per_txn", "count/txn"),
    ("storage.disk_reads_per_txn", "count/txn"),
    ("platform.cpu_util", "frac"),
    ("platform.avg_cpi", "cycles/inst"),
];

/// Passes a run makes at least, whatever `--seconds` says, so every
/// figure is a median of repeated set-ups and runs.
const MIN_PASSES: usize = 2;
/// A run stops starting passes once this much time has gone, so that
/// it ends within the 180 s a run may take.
const RUN_CAP: Duration = Duration::from_secs(150);
/// A pass still running at this point is killed and counted as failed.
const KILL_AT: Duration = Duration::from_secs(172);

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("pass") | Some("pins") => argv.remove(0),
        _ => "run".to_string(),
    };
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.trace = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "pass" => pass_main(&args),
        "pins" => pins_main(&args),
        _ => run_main(&args),
    }
}

/// One pass in this process, reported as `key value` lines.
fn pass_main(a: &Args) -> ExitCode {
    let p = match workload::run_pass(&a.workload, a.seed, a.trace) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("worlds {}", p.worlds);
    println!("failed {}", p.failed);
    println!("identity {}", p.identity);
    for (k, v) in &p.values {
        println!("{k} {v}");
    }
    ExitCode::SUCCESS
}

/// Print the `pins.txt` lines of a workload at the default seed.
fn pins_main(a: &Args) -> ExitCode {
    match workload::run_pass(&a.workload, workload::DEFAULT_SEED, false) {
        Ok(p) => {
            for (i, pin) in p.pins.iter().enumerate() {
                println!("{}", check::pin_line(&a.workload, i, *pin));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What the parent read back from one child pass.
struct PassOut {
    traced: bool,
    worlds: usize,
    failed: usize,
    identity: Option<String>,
    values: BTreeMap<String, f64>,
}

/// Run one pass in a child process and wait for it; a pass that fails
/// to start, crashes, or outlives `deadline` counts all its Worlds as
/// failed.
fn child_pass(a: &Args, traced: bool, worlds_hint: usize, deadline: Instant) -> PassOut {
    let mut out = PassOut {
        traced,
        worlds: worlds_hint,
        failed: worlds_hint,
        identity: None,
        values: BTreeMap::new(),
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return out;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "pass",
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
    ]);
    if traced {
        cmd.arg("--traced");
    }
    let mut child = match cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot start a pass: {e}");
            return out;
        }
    };
    // Read stdout on a thread so a chatty child cannot block on a full
    // pipe while this thread polls for its exit.
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) if Instant::now() >= deadline => {
                eprintln!("perfbench: pass overran the run's time limit; killing it");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("perfbench: waiting for a pass failed: {e}");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    if !status.is_some_and(|s| s.success()) {
        eprintln!("perfbench: pass exited with {status:?}");
        return out;
    }
    for line in text.lines() {
        let Some((k, v)) = line.split_once(' ') else {
            continue;
        };
        match k {
            "worlds" => out.worlds = v.parse().unwrap_or(worlds_hint),
            "failed" => out.failed = v.parse().unwrap_or(out.worlds),
            "identity" => out.identity = Some(v.to_string()),
            _ => {
                if let Ok(x) = v.parse::<f64>() {
                    out.values.insert(k.to_string(), x);
                }
            }
        }
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run_main(a: &Args) -> ExitCode {
    let start = Instant::now();
    let deadline = start + KILL_AT;
    let budget = Duration::from_secs(a.seconds.max(1));
    let min_passes = if a.trace { 2 * MIN_PASSES } else { MIN_PASSES };
    let mut passes: Vec<PassOut> = Vec::new();
    let mut worlds_hint = 1;
    loop {
        // With --trace 1, untraced and traced passes alternate so both
        // see the same machine conditions.
        let traced = a.trace && passes.len() % 2 == 1;
        let t0 = Instant::now();
        let p = child_pass(a, traced, worlds_hint, deadline);
        let took = t0.elapsed();
        worlds_hint = p.worlds;
        eprintln!(
            "[perfbench] {} seed {} pass {} ({}): {:.2} s, {}/{} worlds failed",
            a.workload,
            a.seed,
            passes.len() + 1,
            if traced { "traced" } else { "untraced" },
            took.as_secs_f64(),
            p.failed,
            p.worlds
        );
        passes.push(p);
        let spent = start.elapsed();
        let pair_done = !a.trace || passes.len().is_multiple_of(2);
        if pair_done && passes.len() >= min_passes && spent >= budget {
            break;
        }
        // Stop before a pass (or a traced pair) that would overrun.
        let next = if a.trace && pair_done { took * 2 } else { took };
        if pair_done && spent + next > RUN_CAP {
            break;
        }
    }

    let attempted: usize = passes.iter().map(|p| p.worlds).sum();
    let mut failed: usize = passes.iter().map(|p| p.failed).sum();
    // Counts and simulated fields must repeat exactly from pass to pass.
    let first = passes.iter().find_map(|p| p.identity.as_deref());
    for (i, p) in passes.iter().enumerate() {
        if p.identity.is_some() && p.identity.as_deref() != first {
            eprintln!("[perfbench] pass {} differs from the first pass", i + 1);
            failed += p.worlds - p.failed;
        }
    }
    let attempted = attempted.max(1);
    let med = |traced: Option<bool>, key: &str| {
        median(
            passes
                .iter()
                .filter(|p| traced.is_none_or(|t| p.traced == t))
                .filter_map(|p| p.values.get(key).copied())
                .collect(),
        )
    };

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if a.trace {
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead_s" => {
                    let traced_net = median(
                        passes
                            .iter()
                            .filter(|p| p.traced)
                            .filter_map(|p| {
                                Some(
                                    p.values.get("wall_s")?
                                        - p.values.get("trace.standalone_wall_s")?,
                                )
                            })
                            .collect(),
                    );
                    traced_net - med(Some(false), "wall_s")
                }
                // Span times exist only in traced passes; all else is
                // taken from the untraced ones.
                n => match med(Some(false), n) {
                    v if v.is_nan() => med(Some(true), n),
                    v => v,
                },
            };
            metrics.push((name, unit, v));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "verified_frac" => 1.0 - failed as f64 / attempted as f64,
                n => med(None, n),
            };
            metrics.push((name, unit, v));
        }
    }

    let correct = failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    eprintln!(
        "[perfbench] {} seed {}: {} passes, {attempted} worlds, {failed} failed",
        a.workload,
        a.seed,
        passes.len()
    );
    for (name, unit, v) in &metrics {
        eprintln!("  {name:<32} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        for w in workload::WORKLOADS {
            assert!(MANIFEST.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(MANIFEST.contains(&entry), "{entry}");
        }
        let names = MANIFEST.matches("\"name\":").count();
        assert_eq!(
            names,
            workload::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(vec![]).is_nan());
    }
}
