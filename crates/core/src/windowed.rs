//! Conservative time-windowed parallel execution of a *single* run.
//!
//! The serial engine dispatches one global event heap; this module
//! splits the cluster's nodes into `intra_jobs` contiguous *groups*
//! and runs one full [`World`] replica per group on its own thread.
//! Each replica is built with the identical topology, connection table
//! and init-time (prewarm) state as the serial world, but *drives*
//! only the client sessions homed on its own node block — so the
//! per-group event streams partition the serial workload rather than
//! duplicating it. The *workload* RNG streams are re-derived per group
//! after prewarm: if every replica kept the shared seed, the G groups
//! would sample G correlated copies of one random trace, which
//! measurably shrinks the distinct cold-page set the cluster faults in
//! (fewer first-touch disk reads than one world with the same number
//! of independent terminals produces).
//!
//! Execution proceeds in fixed-width windows. Within a window every
//! group processes its own events independently; traffic addressed to
//! a foreign group's node is *ghost-delivered*: it rides the real
//! packet network of the sending world all the way to the local
//! replica of the destination host (competing for the sender's NICs,
//! switches and trunks exactly like serial traffic), and only at
//! delivery is it intercepted and staged for the owning group. At the
//! window barrier one thread merges all staged messages in
//! deterministic `(arrival, source group, sequence)` order and
//! distributes them; each group injects its share no earlier than the
//! *next* window's start, through a per-node downlink FIFO that
//! serializes arrivals at the destination's link rate, then charges
//! the receive path on the owning node's CPU. That clamp is what makes
//! the scheme conservative for any window width: no event is ever
//! scheduled into a window some group has already executed, so repeat
//! runs with the same group count are bit-identical.
//!
//! Client traffic is federated the same way in both directions: a
//! session whose transaction routes to a foreign node keeps a real
//! connection to that node's local replica (handshake and request
//! frames load the home fabric), the executing world opens a *mirror
//! connection* so the response rides its fabric and server uplink, and
//! version-store writes are broadcast at each barrier so every
//! replica of the logically-shared MVCC overflow area converges.
//!
//! The window width defaults to the smallest idle-path latency of a
//! control message between nodes of different groups (at least 1 ms):
//! messages then rarely need clamping, keeping the timing distortion
//! well inside the statistical-equivalence ladder that windowed runs
//! are held to (serial runs with `intra_jobs <= 1` take the untouched
//! exact path and stay bit-identical to the golden captures).
//!
//! Group assignment is *rack-aligned* when the topology allows it
//! (`racks >= groups` with equal-size racks — see
//! [`crate::components::fabric::xg_group_of`]): each group owns whole
//! racks, every cross-group pair is also cross-rack, and the derived
//! window stretches to the larger trunked inter-rack latency. When
//! `intra_jobs` exceeds the rack count (e.g. the paper's one-switch
//! star), assignment falls back to the plain contiguous block
//! partition; the run is still correct, just windowed at the
//! intra-switch latency ([`WindowedStats::rack_aligned`] reports which
//! branch applied).

use crate::components::fabric::XgMsg;
use crate::config::ClusterConfig;
use crate::metrics::Report;
use crate::world::World;
use dclue_sim::par::SpinBarrier;
use dclue_sim::{Duration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execution telemetry from a windowed run (for the self-benchmark
/// and the `figures` harness; not part of the simulation result).
#[derive(Debug, Clone, Copy)]
pub struct WindowedStats {
    /// Node groups (= worker threads) the run was split into.
    pub groups: u32,
    /// Window width used (configured or auto-derived).
    pub window: Duration,
    /// Barrier rounds executed.
    pub windows: u64,
    /// Cross-group messages exchanged at barriers.
    pub xg_messages: u64,
    /// Events dispatched, summed over every group world.
    pub events_processed: u64,
    /// Events scheduled, summed over every group world.
    pub events_scheduled: u64,
    /// Whether groups were rack-aligned (each group owns whole racks,
    /// so the window derives from the inter-rack trunk latency). False
    /// means the contiguous fallback: more groups than racks — correct
    /// but windowed at the narrower intra-switch latency.
    pub rack_aligned: bool,
}

struct Shared {
    barrier: SpinBarrier,
    /// Per-source-group staging slot for the window's outbox.
    slots: Vec<Mutex<Vec<XgMsg>>>,
    /// Per-destination-group merged messages, in injection order.
    inboxes: Vec<Mutex<Vec<XgMsg>>>,
    /// Worlds that have reached `EndRun`.
    done: AtomicUsize,
    /// Set by the barrier leader once every world is done.
    all_done: AtomicBool,
    rounds: AtomicU64,
    xg_messages: AtomicU64,
}

/// Run one configuration under the windowed engine. Requires
/// `cfg.intra_jobs >= 2` (callers use [`run_one`] to dispatch).
pub fn run_windowed(cfg: &ClusterConfig) -> (Report, WindowedStats) {
    let groups = cfg.intra_jobs;
    assert!(
        groups >= 2 && groups <= cfg.nodes,
        "windowed engine needs 2..=nodes groups (got {groups})"
    );
    let shared = Shared {
        barrier: SpinBarrier::new(groups as usize),
        slots: (0..groups).map(|_| Mutex::new(Vec::new())).collect(),
        inboxes: (0..groups).map(|_| Mutex::new(Vec::new())).collect(),
        done: AtomicUsize::new(0),
        all_done: AtomicBool::new(false),
        rounds: AtomicU64::new(0),
        xg_messages: AtomicU64::new(0),
    };
    // The metrics registry is thread-local: when the caller enabled it
    // (`--metrics`), each worker collects into its own registry and the
    // join below folds every worker's snapshot back into this thread's,
    // so windowed runs report real counters instead of nothing.
    let metrics_on = dclue_trace::ENABLED && dclue_trace::metrics::enabled();
    let mut worlds: Vec<World> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..groups)
            .map(|g| {
                let shared = &shared;
                s.spawn(move || {
                    if metrics_on {
                        dclue_trace::metrics::set_enabled(true);
                    }
                    // Constructed on this thread so the thread-local
                    // invariant checks arm where the events dispatch.
                    let mut w = World::new_group(cfg.clone(), g, groups);
                    // Deterministic, so every thread derives the same
                    // width without coordination.
                    let window = window_width(cfg, &w, groups);
                    let mut limit = SimTime::ZERO + window;
                    let mut counted_done = false;
                    loop {
                        w.run_window(limit);
                        if w.is_done() && !counted_done {
                            counted_done = true;
                            shared.done.fetch_add(1, Ordering::AcqRel);
                        }
                        *shared.slots[g as usize].lock().unwrap() = w.take_xg_outbox();
                        if shared.barrier.wait() {
                            // Leader: merge every group's stage in
                            // deterministic order and distribute.
                            let mut all: Vec<XgMsg> = Vec::new();
                            for slot in &shared.slots {
                                all.append(&mut slot.lock().unwrap());
                            }
                            all.sort_by_key(|m| (m.at, m.src_group, m.seq));
                            shared
                                .xg_messages
                                .fetch_add(all.len() as u64, Ordering::Relaxed);
                            for m in all {
                                let dest = m.dest_group as usize;
                                shared.inboxes[dest].lock().unwrap().push(m);
                            }
                            shared.rounds.fetch_add(1, Ordering::Relaxed);
                            shared.all_done.store(
                                shared.done.load(Ordering::Acquire) == groups as usize,
                                Ordering::Release,
                            );
                        }
                        // Second rendezvous: distribution (and the
                        // all-done verdict) is visible to everyone.
                        shared.barrier.wait();
                        if shared.all_done.load(Ordering::Acquire) {
                            break;
                        }
                        let inbox =
                            std::mem::take(&mut *shared.inboxes[g as usize].lock().unwrap());
                        for m in inbox {
                            // Clamped to the next window's start: the
                            // conservative guarantee for any width.
                            w.inject_xg(limit, m);
                        }
                        limit += window;
                    }
                    let snap = if metrics_on {
                        dclue_trace::metrics::snapshot()
                    } else {
                        Vec::new()
                    };
                    (w, snap)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (w, snap) = h.join().expect("windowed group worker panicked");
                dclue_trace::metrics::absorb(snap);
                w
            })
            .collect()
    });

    // Merge on the caller thread: group 0 absorbs every foreign
    // group's counters, timeline and driven nodes, then reports.
    let mut w0 = worlds.remove(0);
    let mut events_processed = w0.events_processed();
    let mut events_scheduled = w0.events_scheduled();
    for w in worlds.iter_mut() {
        events_processed += w.events_processed();
        events_scheduled += w.events_scheduled();
        w0.absorb_group(w);
    }
    let window = window_width(cfg, &w0, groups);
    let rack_aligned =
        crate::components::fabric::xg_rack_aligned(cfg.nodes, groups, w0.placement().racks);
    let report = w0.into_report();
    let stats = WindowedStats {
        groups,
        window,
        windows: shared.rounds.load(Ordering::Relaxed),
        xg_messages: shared.xg_messages.load(Ordering::Relaxed),
        events_processed,
        events_scheduled,
        rack_aligned,
    };
    (report, stats)
}

/// The window width for a run: the configured override, else the
/// minimum cross-group control-message latency floored at 1 ms (the
/// floor keeps barrier overhead negligible against per-window work;
/// arrival clamping keeps the wider-than-lookahead window safe).
fn window_width(cfg: &ClusterConfig, w: &World, groups: u32) -> Duration {
    if cfg.intra_window > Duration::ZERO {
        cfg.intra_window
    } else {
        w.min_xg_latency(groups).max(Duration::from_millis(1))
    }
}

/// Run a configuration under whichever engine it selects: the
/// untouched serial loop for `intra_jobs <= 1` (bit-identical to
/// every existing capture), the windowed engine otherwise.
pub fn run_one(cfg: ClusterConfig) -> Report {
    if cfg.intra_jobs >= 2 {
        run_windowed(&cfg).0
    } else {
        World::new(cfg).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClientModel, FabricShape};

    /// The windowed cap was lifted from 256 to 65536 nodes (txn ids now
    /// carry a 16-bit node field): a 512-node group world must validate
    /// and construct cleanly, with the aggregate populations splitting
    /// to exactly the configured terminal count.
    #[test]
    fn group_world_constructs_at_512_nodes() {
        let cfg = ClusterConfig {
            nodes: 512,
            warehouses_per_node: 1,
            clients_per_node: 10,
            client_model: ClientModel::Aggregate,
            intra_jobs: 2,
            ..Default::default()
        };
        cfg.validate().expect("512-node windowed config");
        let w = World::new_group(cfg, 1, 2);
        let pops: u64 = w.agg_counters().iter().map(|&(p, ..)| p).sum();
        assert_eq!(pops, 512 * 10);
        assert_eq!(w.driver_slots(), 0);
    }

    /// Rack-aligned partitioning is what it is *for*: on a fabric with
    /// slow trunks, aligning groups to racks makes every cross-group
    /// pair cross-rack, so the conservative lookahead derives from the
    /// trunked inter-rack latency. With more groups than racks the
    /// contiguous fallback splits racks across groups and the bound
    /// collapses to the intra-switch latency.
    #[test]
    fn rack_alignment_widens_the_conservative_window() {
        let mut cfg = ClusterConfig {
            nodes: 8,
            clients_per_node: 1,
            warehouses_per_node: 1,
            ..Default::default()
        };
        cfg.topology = FabricShape::Hierarchical;
        cfg.nodes_per_edge = 2; // 4 racks
        cfg.agg_switches = 2;
        cfg.extra_trunk_latency = Duration::from_millis(2);
        cfg.validate().expect("valid hierarchical config");
        let w = World::new(cfg.clone());

        // 2 groups over 4 racks: aligned, every cross-group path is
        // trunked and carries the extra 2 ms (twice: up and down).
        let aligned = w.min_xg_latency(2);
        // 8 groups over 4 racks: fallback splits each rack, so some
        // cross-group pair shares an edge switch — no trunk, no 2 ms.
        let fallback = w.min_xg_latency(8);
        assert!(
            aligned >= fallback + Duration::from_millis(2),
            "aligned {aligned:?} vs fallback {fallback:?}"
        );
    }
}
