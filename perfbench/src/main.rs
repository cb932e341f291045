//! End-to-end and per-layer benchmark of the ModSRAM serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the workload through the served stack and reports
//! the end-to-end metrics; `--trace 1` drives the same jobs into one
//! layer at a time and reports per-layer metrics (see `layers`). Every
//! product is checked against the `direct` engine. The last line of
//! standard output is the JSON result; the lines before it are the same
//! numbers for reading.

mod front;
mod inputs;
mod layers;
mod report;
mod stack;
mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use front::{Front, LoopOut};
use inputs::Inputs;
use layers::{DeviceSample, Traced};
use report::{emit, median, Metrics};
use stack::{
    cluster_fronts, first_touch, peak_rss_mib, run_phase, Drive, Engine, WireStack, TILES,
};
use trace::{Recorder, Trace};

/// One named workload. `BENCHMARK.json` and `perfbench/WORKLOADS.md`
/// give the reason for each.
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    pub bits: usize,
    pub moduli: usize,
    /// Load threads (one wire connection each on the wire).
    pub threads: usize,
    pub drive: Drive,
    /// Whether the load goes over loopback TCP or in-process.
    pub wire: bool,
    /// Distinct jobs per load thread, cycled.
    pub per_stream: usize,
    /// Jobs the device model multiplies for the simulated metrics.
    pub device_sample: usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_mont256",
        engine: Engine::Montgomery,
        bits: 256,
        moduli: 32,
        threads: 2,
        drive: Drive::Closed { window: 64 },
        wire: true,
        per_stream: 4096,
        device_sample: 64,
    },
    Workload {
        name: "bulk_mont2048",
        engine: Engine::Montgomery,
        bits: 2048,
        moduli: 16,
        threads: 1,
        drive: Drive::Bulk { batch: 1024 },
        wire: false,
        per_stream: 4096,
        device_sample: 16,
    },
    Workload {
        name: "device_r4csa256",
        engine: Engine::Device,
        bits: 256,
        moduli: 8,
        threads: 2,
        drive: Drive::Closed { window: 64 },
        wire: false,
        per_stream: 1024,
        device_sample: 64,
    },
];

/// Stacks built per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Equal parts of the timed window; `jobs_per_s` is their median rate.
const SEGMENTS: u32 = 20;

const CALLS: front::CallNames = ("submit", "wait");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let inputs = Inputs::generate(args.seed, w.bits, w.moduli, w.threads, w.per_stream, TILES);
    let on_tile0 = inputs.homes.iter().filter(|&&t| t == 0).count();
    println!(
        "# {} seed {}: {} jobs over {} {}-bit moduli ({on_tile0} homed on tile 0), {} cores",
        w.name,
        args.seed,
        inputs.jobs.len(),
        w.moduli,
        w.bits,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (metrics, totals) = if args.trace {
        traced(w, &inputs, args.seconds)
    } else {
        untraced(w, &inputs, args.seconds)
    };
    let failed = totals.attempted - totals.completed;
    println!(
        "# error_rate {} ({failed} of {} attempted: {} failed, {} oracle mismatches)",
        failed as f64 / totals.attempted.max(1) as f64,
        totals.attempted,
        totals.failed,
        totals.mismatched
    );
    let correct = failed == 0 && totals.attempted > 0;
    emit(correct, totals.attempted, failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}

/// Warm-up, then the timed window, over already-built fronts.
fn measure<F: Front + Send>(
    w: &Workload,
    inputs: &Inputs,
    fronts: &mut [F],
    warm: Duration,
    seconds: f64,
    totals: &mut LoopOut,
) -> LoopOut {
    let mut positions = vec![0; fronts.len()];
    let mut recs: Vec<Recorder> = fronts.iter().map(|_| Recorder::off()).collect();
    let (warm_out, _) = run_phase(
        fronts,
        &mut positions,
        inputs,
        w.drive,
        (warm, 1),
        &mut recs,
        CALLS,
    );
    totals.merge(warm_out);
    let window = (Duration::from_secs_f64(seconds), SEGMENTS);
    run_phase(
        fronts,
        &mut positions,
        inputs,
        w.drive,
        window,
        &mut recs,
        CALLS,
    )
    .0
}

/// Builds the stack `SETUP_REPS` times, timing each build, and stops
/// all but the last; returns it with the median build time.
fn set_up<S>(mut build: impl FnMut() -> S, mut stop: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let stack = build();
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(stack) {
            stop(old);
        }
    }
    (kept.expect("SETUP_REPS is positive"), median(times))
}

/// The end-to-end run: the served stack exactly as a user drives it.
fn untraced(w: &Workload, inputs: &Inputs, seconds: f64) -> (Metrics, LoopOut) {
    let warm = Duration::from_secs_f64((seconds / 10.0).clamp(0.2, 1.0));
    let mut totals = LoopOut::default();
    let (out, setup) = if w.wire {
        let ((stack, mut fronts), setup) = set_up(
            || {
                let (stack, mut fronts) = WireStack::start(w.engine, w.threads, inputs);
                first_touch(&mut fronts[0], inputs).expect("first-touch jobs");
                (stack, fronts)
            },
            |(stack, fronts)| {
                stack.stop(fronts);
            },
        );
        let out = measure(w, inputs, &mut fronts, warm, seconds, &mut totals);
        stack.stop(fronts);
        (out, setup)
    } else {
        let (cluster, setup) = set_up(
            || {
                let cluster = w.engine.cluster();
                first_touch(&mut cluster_fronts(&cluster, 1, inputs)[0], inputs)
                    .expect("first-touch jobs");
                cluster
            },
            |cluster| {
                cluster.shutdown();
            },
        );
        let mut fronts = cluster_fronts(&cluster, w.threads, inputs);
        let out = measure(w, inputs, &mut fronts, warm, seconds, &mut totals);
        drop(fronts);
        cluster.shutdown();
        (out, setup)
    };
    let mut m = Metrics::default();
    // Median over the window's segments: a stall in one segment moves
    // the figure far less than it moves the window's mean.
    let width = seconds / f64::from(SEGMENTS);
    let rates: Vec<f64> = (0..SEGMENTS as usize)
        .map(|i| out.segments.get(i).copied().unwrap_or(0) as f64 / width)
        .collect();
    println!("# jobs/s per {width} s segment: {rates:.0?}");
    m.push("jobs_per_s", median(rates), "1/s");
    m.push("latency_p50_us", out.latencies.percentile(0.50) / 1e3, "us");
    // Reported, not gated: on a shared 2-core host the p99 of one run
    // does not repeat within any usable bound.
    println!(
        "# latency_p99_us {} us (ungated; {} samples)",
        out.latencies.percentile(0.99) / 1e3,
        out.latencies.len()
    );
    m.push("setup_s", setup, "s");
    let sample = DeviceSample::run(w, inputs);
    m.push(
        "modelled_cycles_per_mul",
        sample.cycles as f64 / sample.muls as f64,
        "cycles",
    );
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    totals.merge(out);
    totals.merge(sample.outcome());
    (m, totals)
}

/// The per-layer run; spans go to `perfbench/out/trace-<workload>.jsonl`.
fn traced(w: &Workload, inputs: &Inputs, seconds: f64) -> (Metrics, LoopOut) {
    // Eight stage passes (the kernel's batch and scalar figures, pool,
    // dispatch, service, cluster, net, and the untraced top stage),
    // each split over the interleaved rounds.
    let slice = Duration::from_secs_f64(seconds / 8.0 / layers::ROUNDS as f64);
    let mut run = Traced {
        w,
        inputs,
        warm: slice / 4,
        slice,
        trace: Trace::new(),
        totals: LoopOut::default(),
    };
    let metrics = run.run();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name));
    match run.trace.write(&path) {
        Ok(()) => println!(
            "# trace: {} spans ({} over the per-thread cap, not kept) in {}",
            run.trace.len(),
            run.trace.dropped(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    (metrics, run.totals)
}
