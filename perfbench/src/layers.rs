//! The traced run: the workload's jobs driven into one layer at a time,
//! bottom up, each stage at the served stack's parallelism.
//!
//! Below the service (`modmul`, `pool`, `dispatch`) one thread per tile
//! works through that tile's jobs in batches of the mean size the service
//! stage formed in the same round. From the service up, the workload's
//! own load threads drive the layer the workload's way (closed loop or
//! bulk). A stage's cost is its wall time per completed job (below the
//! service: on the workload's mix of jobs over the tiles, so the tile
//! with more of them sets it); a layer's self time is its stage's cost minus
//! the stage below, and its share is that over the cost of the stage the
//! workload drives end to end.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_core::{ContextPool, Dispatcher, ModSram, ModSramConfig};
use modsram_modmul::PreparedModMul;
use modsram_net::frame::{encode_submit_batch, HEADER_LEN};
use modsram_net::Frame;

use crate::front::{CallNames, Front, LoopOut, TilesFront};
use crate::inputs::{Batch, Inputs};
use crate::report::{median, Metrics};
use crate::stack::{cluster_fronts, first_touch, run_phase, WireStack, TILES};
use crate::trace::{Recorder, Trace};
use crate::Workload;

/// Interleaved passes over every stage; stage costs are their medians.
pub const ROUNDS: usize = 3;

/// Shared state of the traced run.
pub struct Traced<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    /// Warm-up and timed length of every stage.
    pub warm: Duration,
    pub slice: Duration,
    pub trace: Trace,
    /// Every traced pass's outcomes, warm-ups included.
    pub totals: LoopOut,
}

impl Traced<'_> {
    /// Runs every stage `ROUNDS` times, interleaved, and returns the
    /// per-layer metrics: each the median over the rounds, so a host
    /// slowdown during one stage's turn does not land on one layer.
    pub fn run(&mut self) -> Metrics {
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut costs = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut m = Metrics::default();
            // The service runs first so the stages below it get the
            // batches it was just measured to form.
            let (service, coalesced) = self.service(&mut m);
            let size = (coalesced.round() as usize).max(1);
            let batches = self.inputs.tile_batches(TILES, size);
            let kernel = self.modmul(&batches, &mut m);
            let pool = self.pool(&batches, &mut m);
            let dispatch = self.dispatch(&batches, &mut m);
            let cluster = self.cluster(true, &mut m);
            let net = self.net(true, &mut m);
            // The stage the workload itself drives, once more untraced.
            let untraced = if self.w.wire {
                self.net(false, &mut Metrics::default())
            } else {
                self.cluster(false, &mut Metrics::default())
            };
            rounds.push(m);
            costs.push([kernel, pool, dispatch, service, cluster, net, untraced]);
        }
        let mut m = Metrics::default();
        for (i, (name, _, unit)) in rounds[0].0.iter().enumerate() {
            m.push(
                name,
                median(rounds.iter().map(|r| r.0[i].1).collect()),
                unit,
            );
        }
        let cost = |i: usize| median(costs.iter().map(|c| c[i]).collect());
        let [kernel, pool, dispatch, service, cluster, net, untraced] =
            [0, 1, 2, 3, 4, 5, 6].map(cost);
        let top = if self.w.wire { net } else { cluster };
        let chain = [
            ("pool", pool, kernel),
            ("dispatch", dispatch, pool),
            ("service", service, dispatch),
            ("cluster", cluster, service),
            ("net", net, cluster),
        ];
        m.push("modmul.share", kernel / top, "ratio");
        for (layer, stage, below) in chain {
            let own = stage - below;
            m.push(&format!("{layer}.ns_per_job"), stage, "ns");
            m.push(&format!("{layer}.self_ns_per_job"), own, "ns");
            m.push(&format!("{layer}.share"), own / top, "ratio");
        }
        m.push("trace.overhead", top / untraced - 1.0, "ratio");
        self.codec(&mut m);
        self.device(&mut m);
        m
    }

    /// One thread per tile works through that tile's batches: untimed
    /// until the warm-up ends, then through a quota of jobs in proportion
    /// to the tile's share of the workload's jobs, sized from the warm-up
    /// paces so that the slowest tile takes about `slice`. The stage costs
    /// the wall time from the common start to the last finish per job:
    /// the tile with more of the jobs finishes last while the other idles,
    /// as it does in the served stack.
    fn tile_stage<S: Send>(
        &mut self,
        name: &'static str,
        batches: &[Vec<Batch>],
        init: impl Fn(usize) -> S + Sync,
        step: impl Fn(&mut S, &Batch, &mut Recorder) -> Result<Vec<UBig>, String> + Sync,
    ) -> (f64, Vec<S>) {
        let inputs = self.inputs;
        let stage = self.trace.stage();
        let warm_end = Instant::now() + self.warm;
        let slice_ns = self.slice.as_nanos() as f64;
        let jobs: Vec<usize> = batches
            .iter()
            .map(|mine| mine.iter().map(|b| b.jobs.len()).sum())
            .collect();
        let total: usize = jobs.iter().sum();
        let busy = jobs.iter().filter(|&&n| n > 0).count();
        // Per busy tile, its share times its warm-up ns per job: the
        // tile's time per job of the whole mix.
        let paces = Mutex::new(Vec::with_capacity(busy));
        let start_line = Barrier::new(busy);
        let results: Vec<(S, Recorder, LoopOut, LoopOut, Instant, Instant)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = batches
                    .iter()
                    .zip(&jobs)
                    .enumerate()
                    .filter(|(_, (_, &n))| n > 0)
                    .map(|(t, (mine, &n))| {
                        let (init, step, stage) = (&init, &step, &stage);
                        let (paces, start_line) = (&paces, &start_line);
                        let share = n as f64 / total as f64;
                        s.spawn(move || {
                            let mut state = init(t);
                            let mut next = mine.iter().cycle();
                            let mut run = |state: &mut S, out: &mut LoopOut, rec: &mut Recorder| {
                                let batch = next.next().expect("a busy tile has batches");
                                out.attempted += batch.jobs.len() as u64;
                                match step(state, batch, rec) {
                                    Ok(products) => {
                                        for (&j, p) in batch.jobs.iter().zip(&products) {
                                            if *p == inputs.expected[j] {
                                                out.completed += 1;
                                            } else {
                                                out.mismatched += 1;
                                            }
                                        }
                                    }
                                    Err(_) => out.failed += batch.jobs.len() as u64,
                                }
                            };
                            let (mut warm, mut timed) = (LoopOut::default(), LoopOut::default());
                            let t0 = Instant::now();
                            // At least one warm batch, however slow, so the
                            // pace is known.
                            while warm.attempted == 0 || Instant::now() < warm_end {
                                run(&mut state, &mut warm, &mut Recorder::off());
                            }
                            let own = t0.elapsed().as_nanos() as f64 / warm.attempted as f64;
                            paces
                                .lock()
                                .expect("no stage thread panics")
                                .push(share * own);
                            start_line.wait();
                            let slowest = paces
                                .lock()
                                .expect("no stage thread panics")
                                .iter()
                                .fold(0.0, |a: f64, &b| a.max(b));
                            let quota = ((share * slice_ns / slowest).ceil() as u64).max(1);
                            let mut rec = stage.recorder(t);
                            let started = Instant::now();
                            while timed.attempted < quota {
                                run(&mut state, &mut timed, &mut rec);
                            }
                            (state, rec, warm, timed, started, Instant::now())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stage thread panicked"))
                    .collect()
            });
        let mut states = Vec::new();
        let mut recs = Vec::new();
        let (mut start, mut finish) = (None::<Instant>, None::<Instant>);
        let mut completed = 0;
        for (state, rec, warm, timed, started, done) in results {
            start = Some(start.map_or(started, |s| s.min(started)));
            finish = Some(finish.map_or(done, |f| f.max(done)));
            completed += timed.completed;
            states.push(state);
            recs.push(rec);
            self.totals.merge(warm);
            self.totals.merge(timed);
        }
        let (start, finish) = (
            start.expect("a workload has jobs"),
            finish.expect("a workload has jobs"),
        );
        self.trace.close(&stage, name, start, finish, recs);
        let ns_per_job = (finish - start).as_nanos() as f64 / completed.max(1) as f64;
        (ns_per_job, states)
    }

    fn modmul(&mut self, batches: &[Vec<Batch>], m: &mut Metrics) -> f64 {
        let (w, inputs) = (self.w, self.inputs);
        let (batch, _) = self.tile_stage(
            "stage.modmul.batch",
            batches,
            |t| contexts(w, inputs, t),
            |ctxs, batch, rec| {
                let mut out = Vec::with_capacity(batch.jobs.len());
                for (modulus, r) in &batch.groups {
                    let ctx = ctxs[*modulus]
                        .as_ref()
                        .ok_or("context of a foreign modulus")?;
                    let t0 = Instant::now();
                    out.extend(
                        ctx.mod_mul_batch(&batch.pairs[r.clone()])
                            .map_err(|e| e.to_string())?,
                    );
                    rec.span("modmul.batch", batch.jobs[r.start], t0, Instant::now());
                }
                Ok(out)
            },
        );
        let (scalar, _) = self.tile_stage(
            "stage.modmul.scalar",
            batches,
            |t| contexts(w, inputs, t),
            |ctxs, batch, rec| {
                let mut out = Vec::with_capacity(batch.jobs.len());
                for (modulus, r) in &batch.groups {
                    let ctx = ctxs[*modulus]
                        .as_ref()
                        .ok_or("context of a foreign modulus")?;
                    let t0 = Instant::now();
                    for (a, b) in &batch.pairs[r.clone()] {
                        out.push(ctx.mod_mul(a, b).map_err(|e| e.to_string())?);
                    }
                    rec.span("modmul.scalar", batch.jobs[r.start], t0, Instant::now());
                }
                Ok(out)
            },
        );
        m.push("modmul.batch_ns_per_mul", batch, "ns");
        m.push("modmul.scalar_ns_per_mul", scalar, "ns");
        batch
    }

    fn pool(&mut self, batches: &[Vec<Batch>], m: &mut Metrics) -> f64 {
        let (w, inputs) = (self.w, self.inputs);
        let (stage, pools) = self.tile_stage(
            "stage.pool",
            batches,
            |t| TilePool::warmed(w, inputs, t),
            |tile, batch, rec| {
                let mut out = Vec::with_capacity(batch.jobs.len());
                for (modulus, r) in &batch.groups {
                    let t0 = Instant::now();
                    let ctx = tile
                        .pool
                        .context(&inputs.moduli[*modulus])
                        .map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    rec.span("pool.context", batch.jobs[r.start], t0, t1);
                    tile.lookup_ns += (t1 - t0).as_nanos() as u64;
                    tile.lookups += 1;
                    out.extend(
                        ctx.mod_mul_batch(&batch.pairs[r.clone()])
                            .map_err(|e| e.to_string())?,
                    );
                }
                Ok(out)
            },
        );
        let sum = |f: fn(&TilePool) -> u64| pools.iter().map(f).sum::<u64>() as f64;
        let hits = sum(|t| t.pool.hits());
        let fills = sum(|t| t.pool.misses());
        m.push(
            "pool.hit_ns",
            sum(|t| t.lookup_ns) / sum(|t| t.lookups).max(1.0),
            "ns",
        );
        m.push(
            "pool.prepare_ns",
            sum(|t| t.prepare_ns) / sum(|t| t.prepares).max(1.0),
            "ns",
        );
        m.push("pool.hit_ratio", hits / (hits + fills).max(1.0), "ratio");
        stage
    }

    fn dispatch(&mut self, batches: &[Vec<Batch>], m: &mut Metrics) -> f64 {
        let (w, inputs) = (self.w, self.inputs);
        let (stage, tiles) = self.tile_stage(
            "stage.dispatch",
            batches,
            |t| TileDispatch {
                dispatcher: Dispatcher::new(1),
                pool: TilePool::warmed(w, inputs, t).pool,
                calls: 0,
                chunks: 0,
                steals: 0,
            },
            |tile, batch, rec| {
                let t0 = Instant::now();
                let (products, stats) = tile
                    .dispatcher
                    .dispatch_jobs(&tile.pool, &batch.mul_jobs)
                    .map_err(|e| e.to_string())?;
                rec.span("dispatch.batch", batch.jobs[0], t0, Instant::now());
                tile.calls += 1;
                tile.chunks += stats.chunks;
                tile.steals += stats.steals;
                Ok(products)
            },
        );
        let sum = |f: fn(&TileDispatch) -> u64| tiles.iter().map(f).sum::<u64>() as f64;
        m.push(
            "dispatch.chunks_per_batch",
            sum(|t| t.chunks) / sum(|t| t.calls).max(1.0),
            "count",
        );
        m.push("dispatch.steals", sum(|t| t.steals), "count");
        stage
    }

    /// Warm-up then a timed phase of the workload's drive over `fronts`;
    /// `snapshot` runs between the two and its result is handed back.
    fn drive<F: Front + Send, T>(
        &mut self,
        name: &'static str,
        fronts: &mut [F],
        traced: bool,
        calls: CallNames,
        snapshot: impl FnOnce() -> T,
    ) -> (f64, LoopOut, T) {
        let inputs = self.inputs;
        let mut positions = vec![0usize; fronts.len()];
        let mut quiet: Vec<Recorder> = fronts.iter().map(|_| Recorder::off()).collect();
        let (warm, _) = run_phase(
            fronts,
            &mut positions,
            inputs,
            self.w.drive,
            (self.warm, 1),
            &mut quiet,
            calls,
        );
        self.totals.merge(warm);
        let before = snapshot();
        let stage = self.trace.stage();
        let mut recs: Vec<Recorder> = (0..fronts.len())
            .map(|t| {
                if traced {
                    stage.recorder(t)
                } else {
                    Recorder::off()
                }
            })
            .collect();
        let start = Instant::now();
        let (timed, elapsed) = run_phase(
            fronts,
            &mut positions,
            inputs,
            self.w.drive,
            (self.slice, 1),
            &mut recs,
            calls,
        );
        self.trace.close(&stage, name, start, start + elapsed, recs);
        let ns_per_job = elapsed.as_nanos() as f64 / timed.completed.max(1) as f64;
        let counts = LoopOut {
            completed: timed.completed,
            submit_ns: timed.submit_ns,
            wait_ns: timed.wait_ns,
            ..Default::default()
        };
        self.totals.merge(timed);
        (ns_per_job, counts, before)
    }

    /// Returns the stage cost and the mean batch the tiles formed.
    fn service(&mut self, m: &mut Metrics) -> (f64, f64) {
        let tiles: Vec<_> = (0..TILES).map(|_| self.w.engine.tile()).collect();
        let inputs = self.inputs;
        let mut fronts: Vec<TilesFront> = (0..self.w.threads)
            .map(|_| TilesFront {
                tiles: tiles.iter().map(|t| t.handle()).collect(),
                inputs,
            })
            .collect();
        first_touch(&mut fronts[0], inputs).expect("first touch");
        let (stage, _, before) = self.drive(
            "stage.service",
            &mut fronts,
            true,
            ("service.submit", "service.wait"),
            || {
                let stats: Vec<_> = tiles.iter().map(|t| t.stats()).collect();
                tiles.iter().for_each(|t| t.reset_window());
                stats
            },
        );
        let after: Vec<_> = tiles.iter().map(|t| t.stats()).collect();
        let done: Vec<u64> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.completed - b.completed)
            .collect();
        let batches: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.batches - b.batches)
            .sum();
        let total: u64 = done.iter().sum();
        let p50 = after
            .iter()
            .zip(&done)
            .map(|(a, &d)| a.wall_p50_ns as f64 * d as f64)
            .sum::<f64>()
            / total.max(1) as f64;
        let coalesced = total as f64 / batches.max(1) as f64;
        m.push("service.coalesce_mean", coalesced, "jobs");
        m.push("service.wall_p50_us", p50 / 1e3, "us");
        m.push(
            "service.rejected",
            after.iter().map(|a| a.rejected).sum::<u64>() as f64,
            "count",
        );
        drop(fronts);
        tiles.iter().for_each(|t| {
            t.shutdown();
        });
        (stage, coalesced)
    }

    fn cluster(&mut self, traced: bool, m: &mut Metrics) -> f64 {
        let cluster = self.w.engine.cluster();
        let inputs = self.inputs;
        let mut fronts = cluster_fronts(&cluster, self.w.threads, inputs);
        first_touch(&mut fronts[0], inputs).expect("first touch");
        let (stage, counts, before) = self.drive(
            "stage.cluster",
            &mut fronts,
            traced,
            ("cluster.submit", "cluster.wait"),
            || {
                let stats = cluster.stats();
                cluster.reset_window();
                stats
            },
        );
        let after = cluster.stats();
        let submitted = (after.submitted - before.submitted).max(1) as f64;
        let per_tile =
            after.tiles.iter().zip(&before.tiles).map(|(a, b)| {
                (a.routed + a.spilled_in - b.routed - b.spilled_in) as f64 / submitted
            });
        m.push(
            "cluster.submit_ns",
            counts.submit_ns as f64 / counts.completed.max(1) as f64,
            "ns",
        );
        m.push(
            "cluster.affinity_hit_rate",
            (after.affinity_hits - before.affinity_hits) as f64 / submitted,
            "ratio",
        );
        m.push(
            "cluster.spilled",
            (after.spilled - before.spilled) as f64,
            "count",
        );
        m.push(
            "cluster.saturated_rejections",
            (after.saturated_rejections - before.saturated_rejections) as f64,
            "count",
        );
        m.push(
            "cluster.tile_share_max",
            per_tile.fold(0.0, f64::max),
            "ratio",
        );
        drop(fronts);
        cluster.shutdown();
        stage
    }

    fn net(&mut self, traced: bool, m: &mut Metrics) -> f64 {
        let inputs = self.inputs;
        let (stack, mut fronts) = WireStack::start(self.w.engine, self.w.threads, inputs);
        first_touch(&mut fronts[0], inputs).expect("first touch");
        let (stage, counts, before) = self.drive(
            "stage.net",
            &mut fronts,
            traced,
            ("net.submit", "net.wait"),
            || stack.server.stats(),
        );
        let after = stack.server.stats();
        let jobs = counts.completed.max(1) as f64;
        let retries = |s: &modsram_net::NetStats| s.retry_after.iter().map(|(_, n)| n).sum::<u64>();
        m.push(
            "net.client_submit_ns_per_job",
            counts.submit_ns as f64 / jobs,
            "ns",
        );
        m.push(
            "net.client_wait_ns_per_job",
            counts.wait_ns as f64 / jobs,
            "ns",
        );
        m.push(
            "net.bytes_in_per_job",
            (after.bytes_in - before.bytes_in) as f64 / jobs,
            "B",
        );
        m.push(
            "net.bytes_out_per_job",
            (after.bytes_out - before.bytes_out) as f64 / jobs,
            "B",
        );
        m.push(
            "net.frames_out_per_job",
            (after.frames_out - before.frames_out) as f64 / jobs,
            "count",
        );
        m.push(
            "net.retry_after",
            (retries(&after) - retries(&before)) as f64,
            "count",
        );
        m.push("net.server_p50_us", after.wire_p50_ns as f64 / 1e3, "us");
        stack.stop(fronts);
        stage
    }

    /// Frame encode and decode of each job's submit and result frames,
    /// single-threaded, for a tenth of a stage.
    fn codec(&mut self, m: &mut Metrics) {
        let inputs = self.inputs;
        let jobs: Vec<usize> = inputs.streams[0].iter().copied().take(1024).collect();
        let done: Vec<Frame> = jobs
            .iter()
            .map(|&j| Frame::Done {
                req_id: j as u64,
                product: inputs.expected[j].clone(),
            })
            .collect();
        let mut encoded: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(jobs.len());
        let mut buf = Vec::new();
        let budget = self.slice / 10;
        let (mut n, mut enc_ns) = (0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < budget || n < jobs.len() as u64 {
            let i = n as usize % jobs.len();
            let s = Instant::now();
            buf.clear();
            encode_submit_batch(&mut buf, i as u64, std::iter::once(&inputs.jobs[jobs[i]]));
            let submit_len = buf.len();
            done[i].encode(&mut buf);
            enc_ns += s.elapsed().as_nanos() as u64;
            if encoded.len() < jobs.len() {
                encoded.push((buf[..submit_len].to_vec(), buf[submit_len..].to_vec()));
            }
            n += 1;
        }
        m.push("net.encode_ns_per_job", enc_ns as f64 / n as f64, "ns");
        let (mut n, mut dec_ns) = (0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < budget || n < jobs.len() as u64 {
            let i = n as usize % jobs.len();
            let s = Instant::now();
            for frame in [&encoded[i].0, &encoded[i].1] {
                let decoded = Frame::decode(frame[5], &frame[HEADER_LEN..]);
                std::hint::black_box(decoded.is_ok());
            }
            dec_ns += s.elapsed().as_nanos() as u64;
            n += 1;
        }
        m.push("net.decode_ns_per_job", dec_ns as f64 / n as f64, "ns");
    }

    /// The cycle-accurate device on the workload's fixed device sample.
    fn device(&mut self, m: &mut Metrics) {
        let sample = DeviceSample::run(self.w, self.inputs);
        self.totals.merge(sample.outcome());
        let per = |v: f64| v / sample.muls as f64;
        let cycles = per(sample.cycles as f64);
        let host = per(sample.host_ns as f64);
        m.push("device.cycles_per_mul", cycles, "cycles");
        m.push("device.host_ns_per_mul", host, "ns");
        m.push("device.host_ns_per_cycle", host / cycles, "ns");
        m.push(
            "device.row_reads_per_mul",
            per(sample.row_reads as f64),
            "count",
        );
        m.push(
            "device.row_writes_per_mul",
            per(sample.row_writes as f64),
            "count",
        );
        m.push("device.energy_pj_per_mul", per(sample.energy_pj), "pJ");
        m.push(
            "device.load_modulus_ns",
            sample.load_ns as f64 / sample.loads.max(1) as f64,
            "ns",
        );
    }
}

/// Per-tile prepared contexts for the moduli each tile is home to.
fn contexts(w: &Workload, inputs: &Inputs, tile: usize) -> Vec<Option<Arc<dyn PreparedModMul>>> {
    inputs
        .moduli
        .iter()
        .zip(&inputs.homes)
        .map(|(p, &home)| (home == tile).then(|| w.engine.prepare(p)))
        .collect()
}

/// One tile's context pool in the `pool` stage.
struct TilePool {
    pool: ContextPool,
    prepare_ns: u64,
    prepares: u64,
    lookup_ns: u64,
    lookups: u64,
}

impl TilePool {
    /// A fresh pool whose first touch of each of the tile's home moduli
    /// is timed (the prepare cost).
    fn warmed(w: &Workload, inputs: &Inputs, tile: usize) -> TilePool {
        let mut t = TilePool {
            pool: w.engine.pool(),
            prepare_ns: 0,
            prepares: 0,
            lookup_ns: 0,
            lookups: 0,
        };
        for (p, &home) in inputs.moduli.iter().zip(&inputs.homes) {
            if home == tile {
                let t0 = Instant::now();
                t.pool.context(p).expect("valid modulus");
                t.prepare_ns += t0.elapsed().as_nanos() as u64;
                t.prepares += 1;
            }
        }
        t
    }
}

/// One tile's dispatcher in the `dispatch` stage.
struct TileDispatch {
    dispatcher: Dispatcher,
    pool: ContextPool,
    calls: u64,
    chunks: u64,
    steals: u64,
}

/// The paper's device (lock-step verification on) multiplying the
/// first `device_sample` jobs of the first stream: a fixed job set per
/// seed, so every simulated count repeats exactly.
pub struct DeviceSample {
    pub muls: u64,
    pub mismatched: u64,
    pub cycles: u64,
    pub row_reads: u64,
    pub row_writes: u64,
    pub energy_pj: f64,
    pub host_ns: u64,
    pub loads: u64,
    pub load_ns: u64,
}

impl DeviceSample {
    pub fn run(w: &Workload, inputs: &Inputs) -> DeviceSample {
        let mut devices: Vec<Option<ModSram>> = inputs.moduli.iter().map(|_| None).collect();
        let mut s = DeviceSample {
            muls: 0,
            mismatched: 0,
            cycles: 0,
            row_reads: 0,
            row_writes: 0,
            energy_pj: 0.0,
            host_ns: 0,
            loads: 0,
            load_ns: 0,
        };
        for &j in inputs.streams[0].iter().take(w.device_sample) {
            let m = inputs.modulus_of[j];
            let dev = devices[m].get_or_insert_with(|| {
                let t0 = Instant::now();
                let p = &inputs.moduli[m];
                let mut dev = ModSram::new(ModSramConfig {
                    n_bits: p.bit_len(),
                    ..Default::default()
                })
                .expect("the default array holds the memory map");
                dev.load_modulus(p).expect("nonzero modulus");
                s.load_ns += t0.elapsed().as_nanos() as u64;
                s.loads += 1;
                dev
            });
            let job = &inputs.jobs[j];
            let t0 = Instant::now();
            let (product, stats) = dev.mod_mul(&job.a, &job.b).expect("verified device run");
            s.host_ns += t0.elapsed().as_nanos() as u64;
            s.muls += 1;
            if product != inputs.expected[j] {
                s.mismatched += 1;
            }
            s.cycles += stats.cycles;
            s.row_reads += stats.row_reads;
            s.row_writes += stats.row_writes;
            s.energy_pj += stats.energy_pj;
        }
        s
    }

    pub fn outcome(&self) -> LoopOut {
        LoopOut {
            attempted: self.muls,
            completed: self.muls - self.mismatched,
            mismatched: self.mismatched,
            ..Default::default()
        }
    }
}
