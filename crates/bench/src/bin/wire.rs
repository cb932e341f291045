#![recursion_limit = "256"]
//! The wire-protocol loopback sweep: closed-loop load generation over
//! real TCP sockets against the length-prefixed binary protocol, per
//! client count, compared with an identical in-process closed loop
//! (`results/wire_sweep.json`).
//!
//! ```sh
//! cargo run --release --bin wire
//! # CI-sized run:
//! cargo run --release --bin wire -- --jobs-per-client 64 --clients 1,2
//! ```
//!
//! The headline columns are **wire/in-proc**: serving throughput over
//! loopback TCP divided by the same closed loop on a bare cluster
//! handle, for the best and the median matched pass pair. Acceptance,
//! asserted in-binary: the triangle streamed-over-wire ≡ staged ≡
//! big-integer oracle holds for every response; zero lost and zero
//! duplicated request ids in every row **and** through a live
//! `drain_tile` mid-stream at the largest client count; the largest
//! row's *median* pair ratio is ≥ `--min-ratio` (0.9 by default); the
//! admission probe observes each typed refusal (`saturated`,
//! `rate_limited`, `inflight_cap`) on the wire.

use modsram_bench::{print_table, wire_sweep, write_json_artifact, WireSweepSpec};

struct Args {
    engine: String,
    bits: usize,
    tiles: usize,
    workers: usize,
    tenants: usize,
    clients: Vec<usize>,
    jobs_per_client: usize,
    window: usize,
    min_ratio: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            engine: "r4csa-lut".to_string(),
            bits: 256,
            tiles: 2,
            workers: 2,
            tenants: 2,
            clients: vec![1, 2, 4, 8],
            jobs_per_client: 1024,
            // A 64-deep window keeps two full dispatch batches in
            // flight per client, which is where both the wire and the
            // in-process closed loop peak on a small host.
            window: 64,
            min_ratio: 0.9,
        }
    }
}

fn parse_usize_list(v: &str) -> Vec<usize> {
    v.split(',')
        .map(|s| s.trim().parse().expect("comma-separated integers"))
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--engine" => args.engine = value(),
            "--bits" => args.bits = value().parse().expect("integer"),
            "--tiles" => args.tiles = value().parse().expect("integer"),
            "--workers" => args.workers = value().parse().expect("integer"),
            "--tenants" => args.tenants = value().parse().expect("integer"),
            "--clients" => args.clients = parse_usize_list(&value()),
            "--jobs-per-client" => args.jobs_per_client = value().parse().expect("integer"),
            "--window" => args.window = value().parse().expect("integer"),
            "--min-ratio" => args.min_ratio = value().parse().expect("float"),
            other => panic!("unknown flag '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let sweep = wire_sweep(&WireSweepSpec {
        engine: args.engine.clone(),
        bits: args.bits,
        tiles: args.tiles,
        workers_per_tile: args.workers,
        tenants: args.tenants,
        client_counts: args.clients.clone(),
        jobs_per_client: args.jobs_per_client,
        window: args.window,
        seed: 0x317E,
        remeasure_below: Some(args.min_ratio),
    });

    let table: Vec<Vec<String>> = sweep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.clients.to_string(),
                r.jobs.to_string(),
                format!("{:.0}", r.wire_jobs_per_s),
                format!("{:.0}", r.inproc_jobs_per_s),
                format!("{:.2}x", r.wire_vs_inproc),
                format!("{:.2}x", r.wire_vs_inproc_median),
                r.retries.to_string(),
                format!("{:.0}", r.wire_p50_ns as f64 / 1000.0),
                format!("{:.0}", r.wire_p99_ns as f64 / 1000.0),
                format!("{}/{}", r.lost, r.duplicates),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Wire sweep: {} at {} bits ({} tiles x {} lanes, {} tenants, window {})",
            args.engine, args.bits, args.tiles, args.workers, args.tenants, args.window
        ),
        &[
            "clients",
            "jobs",
            "wire jobs/s",
            "in-proc jobs/s",
            "wire/in-proc",
            "median",
            "retries",
            "p50 us",
            "p99 us",
            "lost/dup",
        ],
        &table,
    );

    let drain = &sweep.drain;
    print_table(
        "Drain soak: live drain_tile mid-stream at the largest client count",
        &[
            "clients",
            "delivered",
            "retries",
            "lost",
            "dup",
            "failed",
            "tile",
            "epoch",
        ],
        &[vec![
            drain.clients.to_string(),
            drain.delivered.to_string(),
            drain.retries.to_string(),
            drain.lost.to_string(),
            drain.duplicates.to_string(),
            drain.failed.to_string(),
            drain.drained_tile.to_string(),
            format!("{}->{}", drain.epoch_before, drain.epoch_after),
        ]],
    );

    let sat = &sweep.saturation;
    print_table(
        "Admission probe: strict 1-tile tiny queue + throttled tenants",
        &[
            "burst",
            "delivered",
            "saturated",
            "rate_limited",
            "inflight_cap",
        ],
        &[vec![
            sat.burst.to_string(),
            sat.delivered.to_string(),
            sat.saturated.to_string(),
            sat.rate_limited.to_string(),
            sat.inflight_capped.to_string(),
        ]],
    );

    let artifact = serde_json::json!({
        "spec": {
            "engine": args.engine,
            "bits": args.bits,
            "tiles": args.tiles,
            "workers_per_tile": args.workers,
            "tenants": args.tenants,
            "clients": args.clients.clone(),
            "jobs_per_client": args.jobs_per_client,
            "window": args.window,
        },
        "rows": sweep.rows.iter().map(|r| serde_json::json!({
            "clients": r.clients,
            "jobs": r.jobs,
            "wire_jobs_per_s": r.wire_jobs_per_s,
            "inproc_jobs_per_s": r.inproc_jobs_per_s,
            "wire_vs_inproc": r.wire_vs_inproc,
            "wire_vs_inproc_median": r.wire_vs_inproc_median,
            "retries": r.retries,
            "lost": r.lost,
            "duplicates": r.duplicates,
            "remeasures": r.remeasures,
            "wire_p50_ns": r.wire_p50_ns,
            "wire_p99_ns": r.wire_p99_ns,
            "net": {
                "connections_accepted": r.net.connections_accepted,
                "connections_closed": r.net.connections_closed,
                "frames_in": r.net.frames_in,
                "frames_out": r.net.frames_out,
                "bytes_in": r.net.bytes_in,
                "bytes_out": r.net.bytes_out,
                "accepted": r.net.accepted,
                "rejected": r.net.rejected,
                "completed": r.net.completed,
                "failed": r.net.failed,
                "retry_after": r.net.retry_after.iter()
                    .map(|(k, v)| serde_json::json!({"reason": k, "count": v}))
                    .collect::<Vec<_>>(),
                "tenants": r.net.tenants.iter().map(|t| serde_json::json!({
                    "tenant": t.tenant.clone(),
                    "accepted": t.accepted,
                    "rejected": t.rejected,
                    "completed": t.completed,
                    "bytes_in": t.bytes_in,
                    "bytes_out": t.bytes_out,
                })).collect::<Vec<_>>(),
            },
        })).collect::<Vec<_>>(),
        "drain_soak": {
            "clients": drain.clients,
            "delivered": drain.delivered,
            "retries": drain.retries,
            "lost": drain.lost,
            "duplicates": drain.duplicates,
            "failed": drain.failed,
            "drained_tile": drain.drained_tile,
            "epoch_before": drain.epoch_before,
            "epoch_after": drain.epoch_after,
        },
        "saturation_probe": {
            "burst": sat.burst,
            "delivered": sat.delivered,
            "saturated": sat.saturated,
            "rate_limited": sat.rate_limited,
            "inflight_cap": sat.inflight_capped,
        },
        "staged_reference_ok": sweep.staged_reference_ok,
    });
    let path = write_json_artifact("wire_sweep", &artifact);
    println!("\nartifact: {path}");

    // --- Acceptance ----------------------------------------------------
    assert!(
        sweep.staged_reference_ok,
        "acceptance: staged dispatcher reference diverged from the oracle"
    );
    for r in &sweep.rows {
        assert_eq!(
            r.lost, 0,
            "acceptance: {} clients lost request ids",
            r.clients
        );
        assert_eq!(
            r.duplicates, 0,
            "acceptance: {} clients saw duplicated request ids",
            r.clients
        );
        assert_eq!(
            r.net.accepted,
            r.net.completed + r.net.failed,
            "acceptance: accepted jobs must all reach a terminal frame"
        );
        assert_eq!(r.net.failed, 0, "acceptance: no job may fail in execution");
    }
    assert_eq!(drain.lost, 0, "acceptance: drain soak lost request ids");
    assert_eq!(drain.duplicates, 0, "acceptance: drain soak duplicated ids");
    assert_eq!(drain.failed, 0, "acceptance: drain killed accepted work");
    assert!(
        drain.epoch_after > drain.epoch_before,
        "acceptance: drain must advance the membership epoch"
    );
    assert_eq!(
        sat.delivered, sat.burst as u64,
        "acceptance: every burst job must eventually be delivered"
    );
    assert!(
        sat.saturated >= 1,
        "acceptance: strict burst never saturated"
    );
    assert!(sat.rate_limited >= 1, "acceptance: throttle never tripped");
    assert!(
        sat.inflight_capped >= 1,
        "acceptance: in-flight cap never tripped"
    );

    let largest = sweep.rows.last().expect("at least one row");
    println!(
        "wire serving: {:.0} jobs/s over TCP at {} clients, {:.2}x of in-process ({:.0} jobs/s), \
         median pair {:.2}x",
        largest.wire_jobs_per_s,
        largest.clients,
        largest.wire_vs_inproc,
        largest.inproc_jobs_per_s,
        largest.wire_vs_inproc_median
    );
    if largest.remeasures > 0 {
        println!(
            "note: largest row remeasured {}x (shared-host regime skew)",
            largest.remeasures
        );
    }
    assert!(
        largest.wire_vs_inproc_median >= args.min_ratio,
        "acceptance: median wire throughput {:.2}x in-process at {} clients (< {:.2}x)",
        largest.wire_vs_inproc_median,
        largest.clients,
        args.min_ratio
    );
}
