//! The workloads and one pass over a workload: every `World` from
//! config to verified `Report`, timed from outside through the
//! simulator's public entry points.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dclue_bench::grids;
use dclue_cluster::{sweep, ClusterConfig, QosPolicy, Report, Topology, World};
use dclue_db::Database;
use dclue_net::device::{Discipline, DropPolicy, PortPolicy};
use dclue_net::TrainStats;

use crate::check;
use crate::trace::{self, SpanId, Trace};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["fig2_sweep", "ftp_train"];

/// The seed the golden check and the pins hold for. For fig2_sweep it
/// gives the figures harness's seed ladder (42, 1042).
pub const DEFAULT_SEED: u64 = 42;

/// Workers for the fig2 grid: the 2-core pool `figures` uses. Single-
/// World workloads run on the caller's thread.
const FIG2_JOBS: usize = 2;
/// Seeds per fig2 grid point (the golden capture averages two).
const FIG2_SEEDS: u64 = 2;

const FTP_TRAIN_DCS: &str = include_str!("../ftp_train.dcs");
const GOLDEN: &str = include_str!("../../figures_output.txt");
const PINS: &str = include_str!("../pins.txt");

/// What one pass measured. `values` carries every metric the pass can
/// produce; the caller picks end-to-end or per-layer ones.
pub struct Pass {
    pub values: Vec<(&'static str, f64)>,
    /// Worlds attempted and failed.
    pub worlds: usize,
    pub failed: usize,
    /// Hash of every World's event count and digest: repeats exactly
    /// across passes of one seed.
    pub identity: u64,
    /// Per-World `(events, digest)`, in World order (for re-pinning).
    pub pins: Vec<check::Pin>,
}

#[derive(Default)]
struct WorldOut {
    new_s: f64,
    run_s: f64,
    db_build_rss_mb: f64,
    report: Option<Report>,
    error: Option<String>,
    events: u64,
    scheduled: u64,
    train: TrainStats,
    driver_slots: usize,
    total_pages: u64,
}

/// A workload's generated inputs: one config per World in submission
/// order (an `Err` fails that World), the pool width, and how many
/// consecutive Worlds are seeds of one grid point.
struct Inputs {
    cfgs: Vec<Result<ClusterConfig, String>>,
    jobs: usize,
    seeds_per_point: usize,
}

/// The single config a `.dcs` text compiles to.
fn compile_one(text: &str) -> Result<ClusterConfig, String> {
    let sc = dclue_scenario::parse(text).map_err(|e| e.to_string())?;
    let plan = dclue_scenario::compile(&sc)?;
    match plan.points.as_slice() {
        [p] => Ok(p.cfg.clone()),
        pts => Err(format!(
            "{} compiled to {} points, not 1",
            sc.name,
            pts.len()
        )),
    }
}

/// The generated configs of `workload` at `seed`; `Err` for an unknown
/// name. ftp_train goes through the scenario parse → compile path, as a
/// user's `.dcs` run does.
fn inputs(workload: &str, seed: u64) -> Result<Inputs, String> {
    match workload {
        "fig2_sweep" => {
            let grid = grids::fig2_3(&grids::figures_base(false, true), 0.8);
            let cfgs = grid
                .iter()
                .flat_map(|c| {
                    (0..FIG2_SEEDS).map(move |s| {
                        let mut c = c.clone();
                        c.seed = seed + s * 1000;
                        Ok(c)
                    })
                })
                .collect();
            Ok(Inputs {
                cfgs,
                jobs: FIG2_JOBS,
                seeds_per_point: FIG2_SEEDS as usize,
            })
        }
        "ftp_train" => {
            let cfg = compile_one(FTP_TRAIN_DCS).map(|mut c| {
                c.seed = seed;
                c
            });
            Ok(Inputs {
                cfgs: vec![cfg],
                jobs: 1,
                seeds_per_point: 1,
            })
        }
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The router port policy `World::new` derives from the config, so the
/// standalone topology build of a traced pass builds the same graph.
fn port_policy(cfg: &ClusterConfig) -> PortPolicy {
    let discipline = match cfg.qos {
        QosPolicy::AllBestEffort => Discipline::Fifo,
        QosPolicy::FtpPriority => Discipline::Priority,
        QosPolicy::FtpWfq { af_weight } => Discipline::Wfq { af_weight },
        QosPolicy::Autonomic { .. } => Discipline::Wfq { af_weight: 0.6 },
    };
    let drop = if cfg.red {
        DropPolicy::Red {
            min_th: 24,
            max_th: 72,
            max_p: 0.1,
        }
    } else {
        DropPolicy::TailDrop
    };
    PortPolicy { discipline, drop }
}

/// Resident-set figures of this process from `/proc/self/status`, MiB.
fn proc_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One World from config to Report. In a traced pass the database and
/// topology are first built standalone, to attribute `World::new`'s
/// share to them; those builds are thrown away.
fn one_world(
    run: usize,
    cfg: Result<ClusterConfig, String>,
    trace: &Trace,
    pool: Option<SpanId>,
) -> WorldOut {
    let mut out = WorldOut::default();
    let cfg = match cfg.and_then(|c| c.validate().map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("config rejected: {e}"));
            return out;
        }
    };
    let ws = trace.open("core.world", pool, run);
    if trace.enabled() {
        let sa = trace.open("trace.standalone", ws, run);
        let rss0 = proc_status_mb("VmRSS:");
        let db = trace.span("db.build", sa, run, || Database::build(cfg.tpcc_scale()));
        out.db_build_rss_mb = proc_status_mb("VmRSS:") - rss0;
        drop(std::hint::black_box(db));
        let topo = trace.span("topology.build", sa, run, || {
            Topology::from_config(&cfg).build(&cfg, port_policy(&cfg))
        });
        drop(std::hint::black_box(topo));
        trace.close(sa);
    }
    let res = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut w = trace.span("core.world_new", ws, run, || World::new(cfg));
        let t1 = Instant::now();
        let report = trace.span("core.world_run", ws, run, || w.run());
        let t2 = Instant::now();
        out.new_s = (t1 - t0).as_secs_f64();
        out.run_s = (t2 - t1).as_secs_f64();
        out.events = w.events_processed();
        out.scheduled = w.events_scheduled();
        out.train = w.train_stats();
        out.driver_slots = w.driver_slots();
        out.total_pages = w.database().total_pages();
        trace.span("core.world_drop", ws, run, || drop(w));
        report
    }));
    trace.close(ws);
    match res {
        Ok(r) => out.report = Some(r),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            out.error = Some(format!("panicked: {msg}"));
        }
    }
    out
}

/// Run one pass of `workload` at `seed`. Failures of single Worlds are
/// counted and printed to stderr; `Err` only for an unknown workload.
pub fn run_pass(workload: &str, seed: u64, traced: bool) -> Result<Pass, String> {
    let trace = Trace::new(traced);
    let t_start = Instant::now();
    let root = trace.open("workload", None, 0);
    let t_in = Instant::now();
    let Inputs {
        cfgs,
        jobs,
        seeds_per_point: per,
    } = trace.span("scenario.parse", root, 0, || inputs(workload, seed))?;
    let parse_s = t_in.elapsed().as_secs_f64();

    let pool = trace.open("sweep.pool", root, 0);
    let tasks: Vec<_> = cfgs.into_iter().enumerate().collect();
    let mut outs = sweep::run_ordered(jobs, tasks, |(i, c)| one_world(i + 1, c, &trace, pool));
    trace.close(pool);

    // ---- output checks ----
    let pins = if seed == DEFAULT_SEED {
        Some(check::pins_for(PINS, workload))
    } else {
        None
    };
    let mut got_pins = Vec::new();
    for (i, o) in outs.iter_mut().enumerate() {
        let Some(r) = &o.report else {
            got_pins.push(check::Pin {
                events: 0,
                digest: 0,
            });
            continue;
        };
        let got = check::Pin {
            events: o.events,
            digest: check::digest(r),
        };
        got_pins.push(got);
        let mut errs = check::identities(r);
        match &pins {
            Some(Ok(p)) => match p.get(i) {
                Some(want) if *want == got => {}
                Some(want) => errs.push(format!(
                    "pin mismatch: expected events {} digest {:016x}, got events {} digest {:016x}",
                    want.events, want.digest, got.events, got.digest
                )),
                None => errs.push(format!("no pin for world {i} in pins.txt")),
            },
            Some(Err(e)) => errs.push(e.clone()),
            None => {}
        }
        if !errs.is_empty() {
            o.error = Some(errs.join("; "));
        }
    }
    // Seed-average each grid point, as the figures harness does.
    let averaged: Vec<Option<Report>> = outs
        .chunks(per)
        .map(|chunk| {
            let reports: Option<Vec<Report>> = chunk.iter().map(|o| o.report.clone()).collect();
            reports.map(|rs| trace.span("sweep.average", root, 0, || sweep::average(&rs)))
        })
        .collect();
    if workload == "fig2_sweep" && seed == DEFAULT_SEED {
        let rows: Vec<String> = averaged
            .iter()
            .map(|r| r.as_ref().map_or("<failed run>".into(), check::fig2_row))
            .collect();
        let golden = check::golden_rows(GOLDEN, check::FIG2_HEADING).unwrap_or_default();
        for (i, msg) in check::diff_rows(&golden, &rows) {
            eprintln!("[perfbench] {msg}");
            // A row past the grid's end fails the whole grid.
            let lo = (i * per).min(outs.len().saturating_sub(per));
            for o in &mut outs[lo..lo + per] {
                o.error
                    .get_or_insert_with(|| "fig2 golden row mismatch".into());
            }
        }
    }
    trace.close(root);
    let wall_s = t_start.elapsed().as_secs_f64();
    let peak_rss_mb = proc_status_mb("VmHWM:");

    for (i, o) in outs.iter().enumerate() {
        if let Some(e) = &o.error {
            eprintln!("[perfbench] {workload} seed {seed} world {i}: FAILED: {e}");
        }
    }
    let failed = outs.iter().filter(|o| o.error.is_some()).count();
    let ok: Vec<&WorldOut> = outs.iter().filter(|o| o.report.is_some()).collect();
    let reports: Vec<&Report> = ok.iter().filter_map(|o| o.report.as_ref()).collect();
    let n = reports.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Report) -> f64| reports.iter().fold(0.0, |a, r| a + f(r));
    let mean = |f: &dyn Fn(&Report) -> f64| sum(f) / n;
    let sumw = |f: &dyn Fn(&WorldOut) -> f64| ok.iter().fold(0.0, |a, o| a + f(o));

    let setup_s = sumw(&|o| o.new_s) + parse_s;
    let run_s = sumw(&|o| o.run_s);
    let committed = sum(&|r| r.committed as f64);
    let events = sumw(&|o| o.events as f64);
    let tr = |f: &dyn Fn(&TrainStats) -> u64| sumw(&|o| f(&o.train) as f64);
    let (built, members, splits, bulk, rejected) = (
        tr(&|t| t.built),
        tr(&|t| t.members),
        tr(&|t| t.splits),
        tr(&|t| t.bulk_segs),
        tr(&|t| t.gate_rejected),
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut values = vec![
        ("wall_s", wall_s),
        ("setup_s", setup_s),
        ("run_s", run_s),
        ("committed_per_wall_s", committed / wall_s),
        ("peak_rss_mb", peak_rss_mb),
        (
            "sweep.pool_busy_frac",
            (setup_s - parse_s + run_s) / (wall_s * jobs as f64),
        ),
        ("sim.events", events),
        ("sim.events_scheduled", sumw(&|o| o.scheduled as f64)),
        ("sim.ns_per_event", ratio(run_s * 1e9, events)),
        ("sim.events_per_committed", ratio(events, committed)),
        ("net.train_built", built),
        ("net.train_members", members),
        ("net.train_splits", splits),
        ("net.train_bulk_segs", bulk),
        ("net.train_gate_rejected", rejected),
        ("net.train_coalesce_frac", ratio(members, bulk)),
        (
            "core.driver_slots",
            ok.iter().map(|o| o.driver_slots as f64).fold(0.0, f64::max),
        ),
        ("db.total_pages", sumw(&|o| o.total_pages as f64)),
        ("workload.committed", committed),
        ("workload.aborted", sum(&|r| r.aborted as f64)),
        ("workload.tpmc_scaled", mean(&|r| r.tpmc_scaled)),
        (
            "workload.txn_latency_p95_ms",
            mean(&|r| r.txn_latency_p95_ms),
        ),
        ("net.ctl_msgs_per_txn", mean(&|r| r.ctl_msgs_per_txn)),
        ("net.data_msgs_per_txn", mean(&|r| r.data_msgs_per_txn)),
        (
            "net.storage_msgs_per_txn",
            mean(&|r| r.storage_msgs_per_txn),
        ),
        ("net.trunk_util_edge", mean(&|r| r.trunk_utilization_edge)),
        ("net.trunk_util_agg", mean(&|r| r.trunk_utilization_agg)),
        ("net.drops", sum(&|r| r.drops as f64)),
        ("net.ftp_mbps", mean(&|r| r.ftp_mbps)),
        (
            "core.fusion_transfers_per_txn",
            mean(&|r| r.fusion_transfers_per_txn),
        ),
        ("db.buffer_hit_ratio", mean(&|r| r.buffer_hit_ratio)),
        ("db.lock_waits_per_txn", mean(&|r| r.lock_waits_per_txn)),
        (
            "storage.disk_reads_per_txn",
            mean(&|r| r.disk_reads_per_txn),
        ),
        ("platform.cpu_util", mean(&|r| r.cpu_util)),
        ("platform.avg_cpi", mean(&|r| r.avg_cpi)),
    ];
    if traced {
        let jobs_f = jobs.min(outs.len()).max(1) as f64;
        let spans = trace.into_spans();
        let selfs = trace::self_times(&spans);
        let st = |name| trace::self_time_of(&spans, &selfs, name);
        let standalone: f64 = spans
            .iter()
            .filter(|s| s.name == "trace.standalone")
            .map(|s| s.end - s.start)
            .sum();
        values.extend([
            ("scenario.parse_s", st("scenario.parse")),
            ("db.build_s", st("db.build")),
            (
                "db.build_rss_mb",
                ok.iter().map(|o| o.db_build_rss_mb).fold(0.0, f64::max),
            ),
            ("topology.build_s", st("topology.build")),
            ("core.world_new_s", st("core.world_new")),
            (
                "core.world_new_rest_s",
                st("core.world_new") - st("db.build") - st("topology.build"),
            ),
            ("core.world_run_s", st("core.world_run")),
            ("core.world_drop_s", st("core.world_drop")),
            ("sweep.average_s", st("sweep.average")),
            ("bench.self_s", st("workload")),
            // Wall-clock share of the standalone builds: the pool runs
            // them on `jobs` workers side by side.
            ("trace.standalone_wall_s", standalone / jobs_f),
        ]);
    }
    let identity = got_pins.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        (h ^ p.events ^ p.digest.rotate_left(17)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Ok(Pass {
        values,
        worlds: outs.len(),
        failed,
        identity,
        pins: got_pins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ftp_train.dcs is the tail-drop point of `figures ablate-red`
    /// with a 200 s window, field for field.
    #[test]
    fn ftp_train_dcs_is_the_ablation_point() {
        let mut want = grids::figures_base(false, false);
        want.nodes = 8;
        want.latas = 2;
        want.trunk_bw = 6e6;
        want.qos = QosPolicy::AllBestEffort;
        want.red = false;
        want.ftp_offered_bps = 3e6;
        want.measure = dclue_sim::Duration::from_secs(200);
        assert_eq!(compile_one(FTP_TRAIN_DCS).unwrap(), want);
    }
}
