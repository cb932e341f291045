//! Loopback-socket integration tests: admission edge cases surfaced
//! at the wire boundary, tenant limits over a real TCP connection,
//! out-of-order delivery and execution failures, the client's corked
//! submits, frames split across the server's read timeout, and the
//! multi-client drain-on-shutdown soak the CI tier-1 step runs by name.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use modsram_bigint::UBig;
use modsram_core::cluster::{home_tile_for, ClusterConfig, ServiceCluster, SpillPolicy};
use modsram_core::dispatch::{ContextPool, MulJob};
use modsram_core::service::{ModSramService, ServiceConfig};
use modsram_core::test_util::{failing_pool, slow_pool, FailureMode};
use modsram_net::frame::{encode_submit_batch, write_frame, FrameReader, DEFAULT_MAX_PAYLOAD};
use modsram_net::{
    Frame, NetBackend, RetryReason, TenantLimits, TenantRegistry, WireClient, WireConfig,
    WireError, WireResponse, WireServer,
};

fn job(a: u64, b: u64, p: u64) -> MulJob {
    MulJob::new(UBig::from(a), UBig::from(b), UBig::from(p))
}

fn registry_with(name: &str, key: u64, limits: TenantLimits) -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    registry.register(name, key, limits);
    registry
}

#[test]
fn hello_is_authenticated_against_the_registry() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let registry = registry_with("alice", 7, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    match WireClient::connect(addr, "alice", 8) {
        Err(WireError::AuthRefused(_)) => {}
        other => panic!("bad key must be refused, got {other:?}"),
    }
    match WireClient::connect(addr, "mallory", 7) {
        Err(WireError::AuthRefused(_)) => {}
        other => panic!("unknown tenant must be refused, got {other:?}"),
    }
    let ok = WireClient::connect(addr, "alice", 7).unwrap();
    assert_eq!(ok.max_inflight(), TenantLimits::default().max_inflight);
    drop(ok);

    let stats = server.shutdown();
    assert_eq!(stats.auth_failures, 2);
    assert_eq!(stats.connections_accepted, 3);
    cluster.shutdown();
}

/// Satellite: a live `drain_tile` pauses the tile's admissions, and a
/// wire server fronting that tile (via `tile_service`) must answer
/// with a `TilePaused` retry-after frame — while every job accepted
/// before the pause is still delivered with the right product.
#[test]
fn paused_tile_during_live_drain_maps_to_tile_paused_retry_frame() {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        2,
        ClusterConfig {
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 256,
                max_batch: 16,
                flush_interval: Duration::from_micros(200),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let victim = 0usize;
    let tile = cluster.tile_service(victim).unwrap();
    let registry = registry_with("pinned", 11, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Tile(tile.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "pinned", 11).unwrap();

    // Jobs accepted before the drain: the drain must deliver them.
    let before: Vec<u64> = (0..32u64)
        .map(|i| client.submit(job(i + 2, 3, 1_000_003)).unwrap())
        .collect();
    // Submits are corked; send them now, ahead of the drain.
    client.flush().unwrap();

    // The drain is live: the cluster keeps serving on the other tile,
    // and this wire server's tile refuses from the instant admissions
    // pause.
    let report = cluster.drain_tile(victim).unwrap();
    assert!(report.active_tiles >= 1);

    for (i, id) in before.iter().enumerate() {
        let i = i as u64;
        match client.wait(*id).unwrap() {
            WireResponse::Done(product) => {
                assert_eq!(product, UBig::from((i + 2) * 3 % 1_000_003));
            }
            // A job racing the pause itself may be refused — but then
            // it must be refused as paused, not dropped.
            WireResponse::RetryAfter { reason, .. } => {
                assert_eq!(reason, RetryReason::TilePaused);
            }
            other => panic!("job {i} neither delivered nor typed-refused: {other:?}"),
        }
    }

    // Post-drain the tile is paused for good (until probation): the
    // refusal must be the typed TilePaused frame with a backoff hint.
    let id = client.submit(job(5, 7, 1_000_003)).unwrap();
    match client.wait(id).unwrap() {
        WireResponse::RetryAfter { reason, millis } => {
            assert_eq!(reason, RetryReason::TilePaused);
            assert!(millis >= 1);
        }
        other => panic!("expected TilePaused retry-after, got {other:?}"),
    }

    client.close().unwrap();
    let stats = server.shutdown();
    assert!(stats.retries("tile_paused") >= 1);
    assert_eq!(stats.retries("queue_full"), 0);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed,
        "every accepted job got a terminal frame"
    );
    cluster.shutdown();
}

/// Satellite: under `SpillPolicy::Strict` a full home queue has
/// nowhere to go — the wire answer must be the `Saturated` retry-after
/// frame carrying the tried-tile count, distinct from `TilePaused`.
#[test]
fn strict_saturation_maps_to_saturated_retry_frame() {
    let cluster = ServiceCluster::for_engine_name(
        "r4csa-lut", // slow enough that a burst outruns one worker
        1,
        ClusterConfig {
            spill: SpillPolicy::Strict,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                max_batch: 4,
                flush_interval: Duration::from_micros(100),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let registry = registry_with("burst", 3, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "burst", 3).unwrap();

    // One big 256-bit batch: the reader admits far faster than one
    // worker multiplies, so the 4-deep queue must overflow.
    let p =
        UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap();
    let jobs: Vec<MulJob> = (0..256u64)
        .map(|i| MulJob::new(UBig::from(i + 1), UBig::from(12345u64), p.clone()))
        .collect();
    let ids = client.submit_batch(jobs.clone()).unwrap();

    let mut done = 0u64;
    let mut saturated = 0u64;
    for (i, id) in ids.enumerate() {
        match client.wait(id).unwrap() {
            WireResponse::Done(product) => {
                let expect = &(&jobs[i].a * &jobs[i].b) % &p;
                assert_eq!(product, expect);
                done += 1;
            }
            WireResponse::RetryAfter { reason, .. } => {
                // Strict: exactly one tile was offered the job.
                assert_eq!(reason, RetryReason::Saturated { tried: 1 });
                saturated += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(done + saturated, 256);
    assert!(done >= 1, "some of the burst must land");
    assert!(
        saturated >= 1,
        "a 4-deep queue cannot swallow a 256-job burst"
    );

    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.retries("saturated"), saturated);
    assert_eq!(stats.retries("tile_paused"), 0, "distinct retry reasons");
    assert_eq!(stats.accepted, done);
    cluster.shutdown();
}

#[test]
fn tenant_rate_limit_and_inflight_cap_are_typed_refusals() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let registry = Arc::new(TenantRegistry::new());
    registry.register(
        "throttled",
        1,
        TenantLimits {
            max_inflight: 1024,
            rate_per_sec: 2.0,
            burst: 2,
        },
    );
    registry.register(
        "narrow",
        2,
        TenantLimits {
            max_inflight: 1,
            rate_per_sec: 0.0,
            burst: 1,
        },
    );
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();

    // Token bucket: burst of 2 admitted, the third refused with a
    // positive backoff computed from the deficit.
    let mut throttled = WireClient::connect(server.local_addr(), "throttled", 1).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|_| throttled.submit(job(6, 7, 97)).unwrap())
        .collect();
    let mut rate_limited = 0;
    for id in ids {
        match throttled.wait(id).unwrap() {
            WireResponse::Done(product) => assert_eq!(product, UBig::from(42u64)),
            WireResponse::RetryAfter {
                reason: RetryReason::RateLimited,
                millis,
            } => {
                assert!(millis >= 1);
                rate_limited += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(rate_limited, 1, "burst 2 admits 2 of 3");
    throttled.close().unwrap();

    // In-flight cap of 1, cap shared across the tenant's connections:
    // a second connection's submit while the first job is in flight is
    // refused as InflightCap. A paused-forever job holds the slot.
    // (The "narrow" tenant has rate 0, so only the cap can refuse.)
    let mut first = WireClient::connect(server.local_addr(), "narrow", 2).unwrap();
    let mut second = WireClient::connect(server.local_addr(), "narrow", 2).unwrap();
    // Burst both connections; with a cap of 1 at least one of the
    // four submissions must be refused with InflightCap.
    let first_ids: Vec<u64> = (0..2)
        .map(|_| first.submit(job(3, 5, 97)).unwrap())
        .collect();
    let second_ids: Vec<u64> = (0..2)
        .map(|_| second.submit(job(3, 5, 97)).unwrap())
        .collect();
    // Submits are corked; put both bursts on the wire before waiting.
    first.flush().unwrap();
    second.flush().unwrap();
    let mut capped = 0;
    for (client, ids) in [(&mut first, first_ids), (&mut second, second_ids)] {
        for id in ids {
            match client.wait(id).unwrap() {
                WireResponse::Done(product) => assert_eq!(product, UBig::from(15u64)),
                WireResponse::RetryAfter {
                    reason: RetryReason::InflightCap,
                    ..
                } => capped += 1,
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }
    assert!(capped >= 1, "cap of 1 must refuse a 4-deep double burst");
    first.close().unwrap();
    second.close().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.retries("rate_limited"), 1);
    assert!(stats.retries("inflight_cap") >= 1);
    cluster.shutdown();
}

/// The CI tier-1 soak, run by name: several clients stream batches
/// while the server drains on shutdown mid-traffic. Every accepted
/// job's response must be delivered (server-side invariant), every
/// delivered product must match the oracle, and no request id may see
/// two terminal frames.
#[test]
fn multi_client_drain_on_shutdown_delivers_every_accepted_response() {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        2,
        ClusterConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 512,
                max_batch: 64,
                flush_interval: Duration::from_micros(100),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let registry = Arc::new(TenantRegistry::new());
    registry.register("even", 10, TenantLimits::default());
    registry.register("odd", 11, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        Arc::clone(&registry),
        WireConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients = 4usize;
    let mut workers = Vec::new();
    for c in 0..clients {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let (tenant, key) = if c % 2 == 0 {
                ("even", 10)
            } else {
                ("odd", 11)
            };
            let modulus = 1_000_003u64 + 2 * c as u64; // per-client modulus
            let mut client = match WireClient::connect(addr, tenant, key) {
                Ok(client) => client,
                // The drain can beat a late connection to the
                // listener; that is the advertised behaviour.
                Err(_) => return (0u64, 0u64),
            };
            let mut delivered = 0u64;
            let mut refused = 0u64;
            'outer: loop {
                let jobs: Vec<MulJob> = (0..32u64)
                    .map(|i| job(i * 5 + c as u64 + 1, 7, modulus))
                    .collect();
                let ids = match client.submit_batch(jobs.clone()) {
                    Ok(ids) => ids,
                    Err(_) => break, // socket closed by the drain
                };
                for (i, id) in ids.enumerate() {
                    match client.wait(id) {
                        Ok(WireResponse::Done(product)) => {
                            let expect = &(&jobs[i].a * &jobs[i].b) % &jobs[i].modulus;
                            assert_eq!(product, expect, "oracle mismatch over the wire");
                            delivered += 1;
                        }
                        Ok(WireResponse::RetryAfter { .. }) => refused += 1,
                        Ok(WireResponse::Failed(reason)) => {
                            panic!("no job may fail in this soak: {reason}")
                        }
                        // Ids written after the server stopped reading
                        // never got accepted; the connection closing
                        // is their (legitimate) outcome.
                        Err(_) => break 'outer,
                    }
                }
                if stop.load(Ordering::Acquire) && client.closed() {
                    break;
                }
            }
            assert_eq!(client.duplicates(), 0, "no id may complete twice");
            (delivered, refused)
        }));
    }

    // Let traffic flow, then drain mid-stream.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);
    let stats = server.shutdown();
    let mut client_delivered = 0u64;
    for worker in workers {
        let (delivered, _refused) = worker.join().unwrap();
        client_delivered += delivered;
    }

    assert!(stats.accepted > 0, "the soak must move real traffic");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed,
        "drain lost accepted responses: {stats:?}"
    );
    assert_eq!(stats.failed, 0);
    // Every response the server delivered reached a client map; the
    // clients may not have waited on all of them before exiting, but
    // none may exceed what the server sent.
    assert!(client_delivered <= stats.completed);
    assert_eq!(
        stats.connections_accepted, stats.connections_closed,
        "every connection fully torn down"
    );
    cluster.shutdown();
}

/// Delivery follows completion, not submission: a job stuck behind a
/// slow tile must not hold back a finished one submitted after it, and
/// a job that fails in execution still gets its terminal frame.
#[test]
fn completions_are_delivered_as_they_finish_and_failures_are_answered() {
    let delay = Duration::from_millis(800);
    let slow_tile = 0usize;
    let config = ClusterConfig::default();
    let cluster = ServiceCluster::from_services(
        vec![
            ModSramService::new(slow_pool(delay), config.service.clone()),
            ModSramService::new(
                ContextPool::for_engine_name("barrett").unwrap(),
                config.service.clone(),
            ),
        ],
        &config,
    );
    // The first odd moduli homed on each tile.
    let homed_on = |tile: usize| {
        (1_000_003u64..)
            .step_by(2)
            .find(|&p| home_tile_for(&UBig::from(p), 2) == Some(tile))
            .unwrap()
    };
    let (slow_p, fast_p) = (homed_on(slow_tile), homed_on(1 - slow_tile));
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry_with("mixed", 5, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "mixed", 5).unwrap();

    let slow = client.submit(job(6, 7, slow_p)).unwrap();
    let fast = client.submit(job(8, 9, fast_p)).unwrap();
    assert_eq!(
        client.wait(fast).unwrap(),
        WireResponse::Done(UBig::from(72u64))
    );
    // The server meters a burst before writing it, so a burst holding
    // both responses would already count 2 here.
    assert_eq!(
        (client.unclaimed(), server.stats().completed),
        (0, 1),
        "the slow response must still be outstanding when the fast one lands"
    );
    assert_eq!(
        client.wait(slow).unwrap(),
        WireResponse::Done(UBig::from(42u64))
    );
    assert_eq!(client.duplicates(), 0);
    assert_eq!(
        client.close().unwrap(),
        Some(2),
        "Bye counts both accepted ids"
    );
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.completed), (2, 2));
    cluster.shutdown();

    // A tile whose every multiplication errors: the accepted job is
    // answered with a terminal failure, not dropped.
    let failing = ModSramService::new(failing_pool(1, FailureMode::Error), config.service);
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Tile(failing.handle()),
        registry_with("doomed", 6, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "doomed", 6).unwrap();
    let id = client.submit(job(6, 7, 97)).unwrap();
    assert!(matches!(client.wait(id).unwrap(), WireResponse::Failed(_)));
    assert_eq!(client.duplicates(), 0);
    assert_eq!(client.close().unwrap(), Some(1), "Bye counts the failed id");
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.failed), (1, 1));
    failing.shutdown();
}

/// A one-tile barrett server for the corking and framing tests, with
/// room for `capacity` queued jobs and in-flight ids.
fn roomy_server(capacity: usize) -> (ServiceCluster, WireServer) {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        1,
        ClusterConfig {
            service: ServiceConfig {
                queue_capacity: capacity,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let registry = registry_with(
        "corked",
        9,
        TenantLimits {
            max_inflight: capacity as u32,
            ..Default::default()
        },
    );
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    (cluster, server)
}

/// A burst of one-job submits costs one frame: nothing is written
/// until `wait` has to read the socket.
#[test]
fn a_burst_of_submits_reaches_the_server_as_one_frame() {
    let (cluster, server) = roomy_server(1024);
    let mut client = WireClient::connect(server.local_addr(), "corked", 9).unwrap();
    let frames_before = server.stats().frames_in;
    let ids: Vec<u64> = (0..64u64)
        .map(|i| client.submit(job(i + 2, 5, 1_000_003)).unwrap())
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let i = i as u64;
        assert_eq!(
            client.wait(id).unwrap(),
            WireResponse::Done(UBig::from((i + 2) * 5 % 1_000_003))
        );
    }
    assert_eq!(
        server.stats().frames_in - frames_before,
        1,
        "64 corked submits must travel as one SubmitBatch frame"
    );
    assert_eq!(client.close().unwrap(), Some(64));
    server.shutdown();
    cluster.shutdown();
}

/// Submits that outgrow the 64 KiB cork bound are sent as they go, in
/// several frames, and every one of them is answered exactly once.
#[test]
fn submits_past_the_cork_bound_are_sent_in_several_frames() {
    const JOBS: usize = 4096;
    const CORK_BYTES: usize = 64 << 10;
    let (cluster, server) = roomy_server(2 * JOBS);
    let p =
        UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap();
    let jobs: Vec<MulJob> = (0..JOBS as u64)
        .map(|i| MulJob::new(UBig::from(i + 1), UBig::from(0x1234_5678u64), p.clone()))
        .collect();
    // The frame count the bound implies: a frame is sent as soon as it
    // holds CORK_BYTES, the last one by the first wait.
    let (mut empty, mut one) = (Vec::new(), Vec::new());
    encode_submit_batch(&mut empty, 0, std::iter::empty());
    encode_submit_batch(&mut one, 0, jobs.iter().take(1));
    let job_bytes = one.len() - empty.len();
    let jobs_per_frame = (CORK_BYTES - empty.len()).div_ceil(job_bytes);
    let expected_frames = JOBS.div_ceil(jobs_per_frame) as u64;
    assert!(
        expected_frames >= 4,
        "the burst must cross the bound several times"
    );

    let mut client = WireClient::connect(server.local_addr(), "corked", 9).unwrap();
    let frames_before = server.stats().frames_in;
    let ids: Vec<u64> = jobs
        .iter()
        .map(|j| client.submit(j.clone()).unwrap())
        .collect();
    for (j, id) in jobs.iter().zip(ids) {
        assert_eq!(
            client.wait(id).unwrap(),
            WireResponse::Done(&(&j.a * &j.b) % &j.modulus)
        );
    }
    assert_eq!(client.duplicates(), 0);
    assert_eq!(server.stats().frames_in - frames_before, expected_frames);
    assert_eq!(client.close().unwrap(), Some(JOBS as u64));
    let stats = server.shutdown();
    assert_eq!(
        (stats.accepted, stats.completed),
        (JOBS as u64, JOBS as u64)
    );
    cluster.shutdown();
}

/// `close` sends what is still corked before its `Goodbye`, so a job
/// never waited on is still delivered and counted in the `Bye`.
#[test]
fn close_sends_corked_jobs_before_goodbye() {
    let (cluster, server) = roomy_server(64);
    let mut client = WireClient::connect(server.local_addr(), "corked", 9).unwrap();
    client.submit(job(6, 7, 97)).unwrap();
    assert_eq!(
        client.close().unwrap(),
        Some(1),
        "Bye counts the corked job"
    );
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    cluster.shutdown();
}

/// A frame whose bytes arrive more than one server read timeout apart
/// is reassembled, not dropped: the bytes read before the timeout are
/// kept and the rest completes the frame.
#[test]
fn a_frame_split_across_the_read_timeout_is_reassembled() {
    let (cluster, server) = roomy_server(64);
    let read_timeout = WireConfig::default().read_timeout;
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut frames = FrameReader::new(DEFAULT_MAX_PAYLOAD);
    write_frame(
        &mut stream,
        &Frame::Hello {
            tenant: "corked".into(),
            key: 9,
        },
    )
    .unwrap();
    assert!(matches!(
        frames.read_frame(&mut stream).unwrap(),
        Some((Frame::HelloOk { .. }, _))
    ));

    let mut submit = Vec::new();
    encode_submit_batch(&mut submit, 41, std::iter::once(&job(6, 7, 97)));
    let (head, tail) = submit.split_at(20); // the header and part of the payload
    stream.write_all(head).unwrap();
    std::thread::sleep(read_timeout * 5);
    stream.write_all(tail).unwrap();
    assert_eq!(
        frames.read_frame(&mut stream).unwrap().unwrap().0,
        Frame::Done {
            req_id: 41,
            product: UBig::from(42u64),
        }
    );

    write_frame(&mut stream, &Frame::Goodbye).unwrap();
    assert_eq!(
        frames.read_frame(&mut stream).unwrap().unwrap().0,
        Frame::Bye { completed: 1 }
    );
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    cluster.shutdown();
}
