//! Output checks on every simulated `Report`: identities that hold on
//! any seed, the fig-2 golden block, and pinned per-World expectations.

use dclue_cluster::Report;

/// Identity checks that hold for every run on every seed. Returns one
/// message per violated identity, each naming the field.
pub fn identities(r: &Report) -> Vec<String> {
    let mut errs = Vec::new();
    let floats: [(&str, f64); 31] = [
        ("affinity", r.affinity),
        ("window_s", r.window_s),
        ("tpmc_scaled", r.tpmc_scaled),
        ("tpmc_equivalent", r.tpmc_equivalent),
        ("tps_scaled", r.tps_scaled),
        ("ctl_msgs_per_txn", r.ctl_msgs_per_txn),
        ("data_msgs_per_txn", r.data_msgs_per_txn),
        ("storage_msgs_per_txn", r.storage_msgs_per_txn),
        ("lock_waits_per_txn", r.lock_waits_per_txn),
        ("lock_busies_per_txn", r.lock_busies_per_txn),
        ("lock_wait_ms", r.lock_wait_ms),
        ("txn_latency_ms", r.txn_latency_ms),
        ("avg_cpi", r.avg_cpi),
        ("avg_cs_cycles", r.avg_cs_cycles),
        ("avg_live_threads", r.avg_live_threads),
        ("cpu_util", r.cpu_util),
        ("buffer_hit_ratio", r.buffer_hit_ratio),
        ("fusion_transfers_per_txn", r.fusion_transfers_per_txn),
        ("lease_transfers_per_txn", r.lease_transfers_per_txn),
        ("lease_renewals_per_txn", r.lease_renewals_per_txn),
        ("disk_reads_per_txn", r.disk_reads_per_txn),
        ("version_walks_per_txn", r.version_walks_per_txn),
        ("versions_created_per_txn", r.versions_created_per_txn),
        ("txn_latency_p95_ms", r.txn_latency_p95_ms),
        ("trunk_mbps", r.trunk_mbps),
        ("trunk_utilization", r.trunk_utilization),
        ("trunk_mbps_edge", r.trunk_mbps_edge),
        ("trunk_utilization_edge", r.trunk_utilization_edge),
        ("trunk_mbps_agg", r.trunk_mbps_agg),
        ("trunk_utilization_agg", r.trunk_utilization_agg),
        ("ftp_mbps", r.ftp_mbps),
    ];
    for (name, v) in floats {
        if !v.is_finite() {
            errs.push(format!("{name} is not finite ({v})"));
        }
    }
    for (i, &(t, _, threads)) in r.timeline.iter().enumerate() {
        if !t.is_finite() || !threads.is_finite() {
            errs.push(format!("timeline[{i}] is not finite ({t}, {threads})"));
        }
    }
    if r.committed == 0 {
        errs.push("committed is 0".to_string());
    }
    for (name, v) in [
        ("cpu_util", r.cpu_util),
        ("trunk_utilization", r.trunk_utilization),
        ("trunk_utilization_edge", r.trunk_utilization_edge),
        ("trunk_utilization_agg", r.trunk_utilization_agg),
    ] {
        if !(0.0..=1.0).contains(&v) {
            errs.push(format!("{name} = {v} lies outside [0, 1]"));
        }
    }
    let tiers = r.trunk_mbps_edge + r.trunk_mbps_agg;
    if (r.trunk_mbps - tiers).abs() > 1e-9 * r.trunk_mbps.abs().max(1.0) {
        errs.push(format!(
            "trunk_mbps = {} but trunk_mbps_edge + trunk_mbps_agg = {tiers}",
            r.trunk_mbps
        ));
    }
    errs
}

/// Heading of the golden fig-2 block in `figures_output.txt`.
pub const FIG2_HEADING: &str = "# IPC messages per transaction vs cluster size (affinity 0.8)";

/// The data rows of the block under `heading` (the line after the
/// heading is the column header; rows run to the next `#` line or a
/// blank line).
pub fn golden_rows(text: &str, heading: &str) -> Option<Vec<String>> {
    let mut lines = text.lines().skip_while(|l| l.trim_end() != heading);
    lines.next()?;
    lines.next()?;
    Some(
        lines
            .take_while(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| l.trim_end().to_string())
            .collect(),
    )
}

/// One fig-2 row exactly as `figures fig2` prints it.
pub fn fig2_row(r: &Report) -> String {
    format!(
        "{:<6} {:>10.2} {:>10.2} {:>12.2}",
        r.nodes, r.ctl_msgs_per_txn, r.data_msgs_per_txn, r.storage_msgs_per_txn
    )
}

/// Compare rendered rows against the golden rows, position by
/// position. Returns `(row index, message)` per differing or missing
/// row.
pub fn diff_rows(golden: &[String], got: &[String]) -> Vec<(usize, String)> {
    (0..golden.len().max(got.len()))
        .filter(|&i| golden.get(i) != got.get(i))
        .map(|i| {
            let show = |r: Option<&String>| r.map_or("<none>", |s| s.as_str()).to_string();
            (
                i,
                format!(
                    "fig2 golden row {i}: expected {:?}, got {:?}",
                    show(golden.get(i)),
                    show(got.get(i))
                ),
            )
        })
        .collect()
}

/// FNV-1a over the named simulated fields, bit-exact on floats. Naming
/// the fields (rather than hashing the whole `Report`) keeps the pin
/// valid when a field is added to `Report`.
pub fn digest(r: &Report) -> u64 {
    let words = [
        r.committed,
        r.aborted,
        r.tpmc_scaled.to_bits(),
        r.txn_latency_p95_ms.to_bits(),
        r.ctl_msgs_per_txn.to_bits(),
        r.data_msgs_per_txn.to_bits(),
        r.storage_msgs_per_txn.to_bits(),
        r.trunk_utilization_edge.to_bits(),
        r.trunk_utilization_agg.to_bits(),
        r.drops,
        r.ftp_mbps.to_bits(),
        r.fusion_transfers_per_txn.to_bits(),
        r.buffer_hit_ratio.to_bits(),
        r.lock_waits_per_txn.to_bits(),
        r.disk_reads_per_txn.to_bits(),
        r.cpu_util.to_bits(),
        r.avg_cpi.to_bits(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned World: `(events dispatched, digest)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub events: u64,
    pub digest: u64,
}

/// The pins of `workload` from `pins.txt` text, in World order. Lines
/// are `<workload> <world> <events> <digest hex>`; `#` starts a comment.
pub fn pins_for(text: &str, workload: &str) -> Result<Vec<Pin>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("pins.txt line {}: malformed {line:?}", n + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        if f[0] != workload {
            continue;
        }
        let world: usize = f[1].parse().map_err(|_| bad())?;
        if world != out.len() {
            return Err(format!(
                "pins.txt line {}: world {world} out of order for {workload}",
                n + 1
            ));
        }
        out.push(Pin {
            events: f[2].parse().map_err(|_| bad())?,
            digest: u64::from_str_radix(f[3], 16).map_err(|_| bad())?,
        });
    }
    Ok(out)
}

/// A `pins.txt` line for one World.
pub fn pin_line(workload: &str, world: usize, pin: Pin) -> String {
    format!("{workload} {world} {} {:016x}", pin.events, pin.digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Report {
        Report {
            committed: 100,
            cpu_util: 0.7,
            trunk_utilization: 0.4,
            trunk_utilization_edge: 0.5,
            trunk_utilization_agg: 0.3,
            trunk_mbps_edge: 10.25,
            trunk_mbps_agg: 3.5,
            trunk_mbps: 13.75,
            ..Report::default()
        }
    }

    #[test]
    fn a_sound_report_passes() {
        assert_eq!(identities(&good()), Vec::<String>::new());
    }

    #[test]
    fn nan_fails_and_names_the_field() {
        let mut r = good();
        r.txn_latency_p95_ms = f64::NAN;
        let e = identities(&r);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("txn_latency_p95_ms"), "{e:?}");
    }

    #[test]
    fn infinite_timeline_sample_fails() {
        let mut r = good();
        r.timeline.push((0.5, 3, f64::INFINITY));
        assert_eq!(identities(&r).len(), 1);
    }

    #[test]
    fn over_unity_utilisation_fails() {
        let mut r = good();
        r.trunk_utilization_agg = 1.0001;
        let e = identities(&r);
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("trunk_utilization_agg"), "{e:?}");
    }

    #[test]
    fn negative_utilisation_fails() {
        let mut r = good();
        r.cpu_util = -0.01;
        assert!(identities(&r)[0].contains("cpu_util"));
    }

    #[test]
    fn zero_committed_fails() {
        let mut r = good();
        r.committed = 0;
        assert!(identities(&r)[0].contains("committed"));
    }

    #[test]
    fn trunk_tiers_must_add_up() {
        let mut r = good();
        r.trunk_mbps = 13.76;
        assert!(identities(&r)[0].contains("trunk_mbps"));
        // Float rounding of the sum is tolerated.
        let mut r = good();
        r.trunk_mbps_edge = 0.1;
        r.trunk_mbps_agg = 0.2;
        r.trunk_mbps = 0.3;
        assert!(identities(&r).is_empty());
    }

    const GOLDEN: &str = include_str!("../../figures_output.txt");

    #[test]
    fn golden_block_has_the_six_fig2_rows() {
        let rows = golden_rows(GOLDEN, FIG2_HEADING).expect("fig2 block present");
        let nodes: Vec<&str> = rows
            .iter()
            .map(|r| r.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(nodes, ["2", "4", "8", "12", "16", "24"]);
    }

    #[test]
    fn golden_parser_stops_at_the_next_block() {
        let text = "# a\nh\n1 2\n3 4\n# b\nh\n5 6\n";
        assert_eq!(golden_rows(text, "# a").unwrap(), ["1 2", "3 4"]);
        assert_eq!(golden_rows(text, "# b").unwrap(), ["5 6"]);
        assert!(golden_rows(text, "# c").is_none());
    }

    #[test]
    fn a_changed_digit_fails_the_golden_check() {
        let golden = golden_rows(GOLDEN, FIG2_HEADING).unwrap();
        assert!(diff_rows(&golden, &golden).is_empty());
        let mut got = golden.clone();
        let i = got[3].rfind(|c: char| c.is_ascii_digit()).unwrap();
        let d = got[3].as_bytes()[i];
        let flipped = if d == b'9' { '0' } else { (d + 1) as char };
        got[3].replace_range(i..=i, &flipped.to_string());
        let e = diff_rows(&golden, &got);
        assert_eq!(e.len(), 1, "{e:?}");
        assert_eq!(e[0].0, 3, "{e:?}");
        got.pop();
        assert_eq!(diff_rows(&golden, &got).len(), 2);
    }

    #[test]
    fn rendered_row_matches_the_figures_format() {
        let r = Report {
            nodes: 2,
            ctl_msgs_per_txn: 8.744,
            data_msgs_per_txn: 2.106,
            storage_msgs_per_txn: 0.3499,
            ..Report::default()
        };
        assert_eq!(fig2_row(&r), "2            8.74       2.11         0.35");
    }

    #[test]
    fn digest_sees_named_fields_only() {
        let a = good();
        let mut b = good();
        b.avg_cs_cycles = 5.0; // not a digested field
        assert_eq!(digest(&a), digest(&b));
        b.buffer_hit_ratio = 0.5;
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn pins_round_trip_and_reject_disorder() {
        let p = Pin {
            events: 123,
            digest: 0xdead_beef,
        };
        let text = format!(
            "# comment\n{}\nother 0 1 ff\n{}\n",
            pin_line("w", 0, p),
            pin_line("w", 1, p)
        );
        assert_eq!(pins_for(&text, "w").unwrap(), vec![p, p]);
        assert_eq!(pins_for(&text, "none").unwrap(), vec![]);
        assert!(pins_for("w 1 5 ff\n", "w").is_err());
        assert!(pins_for("w 0 x ff\n", "w").is_err());
    }
}
