//! The served stack and the threads that drive it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use modsram_core::{
    ClusterConfig, ContextPool, ModSramConfig, ModSramService, PreparedModSram, ServiceCluster,
    ServiceConfig,
};
use modsram_modmul::{ModMulEngine, MontgomeryEngine, PreparedModMul};
use modsram_net::{
    NetBackend, NetStats, TenantLimits, TenantRegistry, WireClient, WireConfig, WireServer,
};

use crate::front::{
    bulk_loop, closed_loop, CallNames, Clock, ClusterFront, Front, LoopOut, Pass, WireFront,
};
use crate::inputs::Inputs;
use crate::trace::Recorder;

/// Tiles in every served stack: one per core of the 2-core reference
/// host, each with one dispatcher worker.
pub const TILES: usize = 2;

const TENANT: &str = "perfbench";
const TENANT_KEY: u64 = 0x5eed;

/// The kernel behind every tile. Engines are pinned: an `auto` race is
/// timing-dependent and would make the engine choice itself noisy.
#[derive(Clone, Copy)]
pub enum Engine {
    Montgomery,
    /// The cycle-accurate 8T-SRAM R4CSA-LUT device, lock-step
    /// verification on (the `ModSramConfig` default).
    Device,
}

impl Engine {
    pub fn prepare(self, p: &modsram_bigint::UBig) -> Arc<dyn PreparedModMul> {
        match self {
            Engine::Montgomery => {
                Arc::from(MontgomeryEngine::new().prepare(p).expect("odd modulus"))
            }
            Engine::Device => Arc::new(
                PreparedModSram::new(p, &ModSramConfig::default()).expect("nonzero modulus"),
            ),
        }
    }

    pub fn pool(self) -> ContextPool {
        match self {
            Engine::Montgomery => {
                ContextPool::for_engine_name("montgomery").expect("registered engine")
            }
            Engine::Device => ContextPool::for_modsram(ModSramConfig::default()),
        }
    }

    pub fn service_config() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            ..Default::default()
        }
    }

    pub fn tile(self) -> ModSramService {
        ModSramService::new(self.pool(), Self::service_config())
    }

    pub fn cluster(self) -> ServiceCluster {
        let config = ClusterConfig {
            service: Self::service_config(),
            ..Default::default()
        };
        match self {
            Engine::Montgomery => ServiceCluster::for_engine_name("montgomery", TILES, config)
                .expect("registered engine"),
            Engine::Device => ServiceCluster::for_modsram(ModSramConfig::default(), TILES, config),
        }
    }
}

/// How the load threads drive a front end.
#[derive(Clone, Copy)]
pub enum Drive {
    /// Closed loop with `window` jobs in flight per thread.
    Closed { window: usize },
    /// `batch` jobs submitted at once, then every ticket awaited.
    Bulk { batch: usize },
}

/// Runs one thread per front for `length` (then drains); returns the
/// merged outcome, with completions counted in `segments` equal parts
/// of `length`, and the wall time to the last thread's finish.
pub fn run_phase<F: Front + Send>(
    fronts: &mut [F],
    positions: &mut [usize],
    inputs: &Inputs,
    drive: Drive,
    (length, segments): (Duration, u32),
    recs: &mut [Recorder],
    names: CallNames,
) -> (LoopOut, Duration) {
    let start = Instant::now();
    let deadline = start + length;
    let clock = Clock {
        start,
        width: length / segments.max(1),
    };
    let outs: Vec<(LoopOut, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = fronts
            .iter_mut()
            .zip(positions.iter_mut())
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(t, ((front, pos), rec))| {
                let pass = Pass {
                    inputs,
                    stream: &inputs.streams[t],
                    deadline,
                    clock,
                    names,
                };
                s.spawn(move || {
                    let out = match drive {
                        Drive::Closed { window } => closed_loop(front, &pass, pos, window, rec),
                        Drive::Bulk { batch } => bulk_loop(front, &pass, pos, batch, rec),
                    };
                    (out, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut merged = LoopOut::default();
    let mut end = start;
    for (out, finished) in outs {
        merged.merge(out);
        end = end.max(finished);
    }
    (merged, end - start)
}

/// Submits one job per modulus and waits for all: every home tile
/// prepares every modulus it owns (the first-touch cost of set-up).
pub fn first_touch<F: Front>(front: &mut F, inputs: &Inputs) -> Result<(), String> {
    let jobs = inputs.first_touch();
    let ids = front.submit_many(&jobs)?;
    for (id, &job) in ids.into_iter().zip(&jobs) {
        if front.wait(id)? != inputs.expected[job] {
            return Err(format!("first-touch job {job} diverged from the oracle"));
        }
    }
    Ok(())
}

/// A wire server over a fresh cluster, with `conns` authenticated
/// connections.
pub struct WireStack {
    pub server: WireServer,
    pub cluster: ServiceCluster,
}

impl WireStack {
    pub fn start<'a>(
        engine: Engine,
        conns: usize,
        inputs: &'a Inputs,
    ) -> (WireStack, Vec<WireFront<'a>>) {
        let cluster = engine.cluster();
        let registry = Arc::new(TenantRegistry::new());
        registry.register(TENANT, TENANT_KEY, TenantLimits::default());
        let server = WireServer::bind(
            "127.0.0.1:0",
            NetBackend::Cluster(cluster.handle()),
            registry,
            WireConfig::default(),
        )
        .expect("bind a loopback port");
        let fronts = (0..conns)
            .map(|_| WireFront {
                client: WireClient::connect(server.local_addr(), TENANT, TENANT_KEY)
                    .expect("loopback handshake"),
                inputs,
            })
            .collect();
        (WireStack { server, cluster }, fronts)
    }

    /// Says goodbye on every connection, drains the server, stops the
    /// cluster.
    pub fn stop(self, fronts: Vec<WireFront<'_>>) -> NetStats {
        for front in fronts {
            let _ = front.client.close();
        }
        let stats = self.server.shutdown();
        self.cluster.shutdown();
        stats
    }
}

pub fn cluster_fronts<'a>(
    cluster: &ServiceCluster,
    n: usize,
    inputs: &'a Inputs,
) -> Vec<ClusterFront<'a>> {
    (0..n)
        .map(|_| ClusterFront {
            handle: cluster.handle(),
            inputs,
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
