//! `paper-batch`: the production native engine (`hinch::run_native`,
//! default policy = work stealing) at the paper's scale and pipeline
//! depth 5. One repetition runs PiP-1, JPiP-1, Blur-3x3 and PiP-12 back
//! to back; the first repetition is a warm-up. Every run's captured
//! output is checked against `hinch::run_reference`.
//!
//! Frame counts bound each run's capture buffers (one frame copy per
//! retired frame: ~1.2 MB for PiP, ~2.7 MB for JPiP, ~0.1 MB for Blur),
//! so peak RSS stays bounded and shows that growth.

use crate::common::{
    admissible, build_app, frame_digests, median_of, Opts, Outcome, Rng, Samples, Seeded,
};
use apps::experiment::{App, Scale};
use conformance::fingerprint::{digest_ports, Digest};
use hinch::engine::{run_native, run_reference, RunConfig};
use hinch::trace::{Clock, Recorder, TraceEvent};
use hinch::RunReport;
use std::time::{Duration, Instant};

/// `(app, frames per run)`. PiP-12 toggles its second picture every 12
/// frames, so 96 frames cross eight reconfigurations (Fig. 10's path).
pub const APPS: [(App, u64); 4] = [
    (App::Pip1, 96),
    (App::Jpip1, 24),
    (App::Blur3, 480),
    (App::Pip12, 96),
];

const DEPTH: usize = 5;

/// What a run's output must match.
enum Expect {
    Exact(Digest),
    /// Reconfiguring at depth > 1: per-frame digests of each static
    /// counterpart (the conformance admissibility rule).
    Admissible(Vec<Vec<u64>>),
}

struct Prepared {
    app: App,
    frames: u64,
    built: Seeded,
    expect: Expect,
}

/// Generate the seeded paper-scale inputs and compile all four apps.
fn setup(seed: u64) -> Vec<(App, u64, Seeded, u64)> {
    let mut rng = Rng::new(seed);
    APPS.iter()
        .map(|&(app, frames)| {
            let app_seed = rng.fork();
            (
                app,
                frames,
                build_app(app, Scale::Paper, app_seed, None, false),
                app_seed,
            )
        })
        .collect()
}

fn reference_output(app: App, seed: u64, inputs: &Seeded, frames: u64) -> Vec<Vec<Vec<u8>>> {
    let r = build_app(app, Scale::Paper, seed, Some(&inputs.assets), false);
    run_reference(&r.spec, &RunConfig::new(frames)).expect("reference run");
    r.take_output()
}

/// Set up `repeats` times (the median is the reported set-up time),
/// then compute the expected outputs.
fn prepare(opts: &Opts, repeats: usize) -> (f64, Vec<Prepared>) {
    let mut times = Vec::new();
    let mut built = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        built = setup(opts.seed);
        times.push(t.elapsed().as_secs_f64());
    }
    let prepared = built
        .into_iter()
        .map(|(app, frames, built, seed)| {
            let expect = if app == App::Pip12 {
                let variants = [App::Pip1, App::Pip2]
                    .iter()
                    .map(|&c| {
                        let mut d = frame_digests(&reference_output(c, seed, &built, frames));
                        if opts.corrupt_reference {
                            d.iter_mut().for_each(|x| *x ^= 1);
                        }
                        d
                    })
                    .collect();
                Expect::Admissible(variants)
            } else {
                Expect::Exact(
                    opts.expect(digest_ports(&reference_output(app, seed, &built, frames))),
                )
            };
            Prepared {
                app,
                frames,
                built,
                expect,
            }
        })
        .collect();
    (median_of(&times), prepared)
}

fn run_once(p: &Prepared, workers: usize, trace: Option<&Recorder>) -> (Duration, RunReport) {
    let mut cfg = RunConfig::new(p.frames)
        .workers(workers)
        .pipeline_depth(DEPTH);
    if let Some(r) = trace {
        cfg = cfg.trace(r.sink());
    }
    let t = Instant::now();
    let report = run_native(&p.built.spec, &cfg).expect("native run");
    (t.elapsed(), report)
}

fn check(p: &Prepared, report: &RunReport, out: &mut Outcome) {
    out.attempted += p.frames;
    let output = p.built.take_output();
    let ok = report.iterations == p.frames
        && match &p.expect {
            Expect::Exact(d) => digest_ports(&output) == *d,
            Expect::Admissible(variants) => {
                output.iter().all(|port| port.len() as u64 == p.frames)
                    && admissible(&frame_digests(&output), variants)
            }
        };
    if !ok {
        out.fail(format!(
            "{}: output of a {}-frame native run differs from run_reference",
            p.app.id(),
            p.frames
        ));
    }
}

/// Per-app accumulators of one pass.
#[derive(Default, Clone)]
struct AppAcc {
    frames: u64,
    time: Duration,
    jobs: u64,
    busy: Duration,
    idle: Duration,
    wall: Duration,
    reconfigs: u64,
    quiesce: Duration,
}

struct Pass {
    acc: Vec<AppAcc>,
    reps: Samples,
    frames: u64,
    time: Duration,
}

fn pass(prepared: &[Prepared], opts: &Opts, budget: f64, traced: bool, out: &mut Outcome) -> Pass {
    let mut p = Pass {
        acc: vec![AppAcc::default(); prepared.len()],
        reps: Samples::new(),
        frames: 0,
        time: Duration::ZERO,
    };
    let start = Instant::now();
    let mut warm = true;
    while warm || start.elapsed().as_secs_f64() < budget || p.reps.len() < 2 {
        let mut rep = Duration::ZERO;
        for (i, app) in prepared.iter().enumerate() {
            let rec = traced.then(|| Recorder::new(Clock::WallNanos));
            let (dt, report) = run_once(app, opts.workers, rec.as_ref());
            check(app, &report, out);
            if warm {
                continue;
            }
            rep += dt;
            let a = &mut p.acc[i];
            a.frames += app.frames;
            a.time += dt;
            a.jobs += report.jobs_executed;
            a.busy += report.core_busy.iter().sum::<Duration>();
            a.idle += report.core_idle.iter().sum::<Duration>();
            a.wall += report.elapsed * report.workers as u32;
            a.reconfigs += report.reconfigs;
            if let Some(rec) = rec {
                a.quiesce += quiesce_time(&rec.events());
            }
        }
        if !warm {
            p.reps.push(rep.as_secs_f64());
            p.frames += prepared.iter().map(|a| a.frames).sum::<u64>();
            p.time += rep;
        }
        warm = false;
    }
    p
}

/// Total time between `QuiesceBegin` and the following `QuiesceEnd`.
fn quiesce_time(events: &[TraceEvent]) -> Duration {
    let mut open = None;
    let mut total = 0u64;
    let mut sorted: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::QuiesceBegin { .. } | TraceEvent::QuiesceEnd { .. }
            )
        })
        .collect();
    sorted.sort_by_key(|e| e.at());
    for e in sorted {
        match e {
            TraceEvent::QuiesceBegin { at } => open = Some(*at),
            TraceEvent::QuiesceEnd { at } => {
                if let Some(b) = open.take() {
                    total += at.saturating_sub(b);
                }
            }
            _ => {}
        }
    }
    Duration::from_nanos(total)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, prepared) = prepare(opts, 5);
    out.metrics.set("setup_s", setup_s, "s");
    let mut p = pass(&prepared, opts, opts.seconds, false, &mut out);
    for (i, a) in prepared.iter().enumerate() {
        let acc = &p.acc[i];
        out.notes.push(format!(
            "  {} fps = {:.1} ({} frames in {:.3} s)",
            a.app.id(),
            acc.frames as f64 / acc.time.as_secs_f64(),
            acc.frames,
            acc.time.as_secs_f64()
        ));
    }
    out.metrics.set(
        "throughput_per_s",
        p.frames as f64 / p.time.as_secs_f64(),
        "1/s",
    );
    out.metrics
        .set_q("latency_p50_ms", p.reps.quantile(0.5), 1e3, "ms");
    out.metrics
        .set_q("latency_p90_ms", p.reps.quantile(0.9), 1e3, "ms");
    out
}

/// The layer pass: an untraced and a traced half of equal budget,
/// per-app engine fractions from the traced `RunReport`s, and a
/// one-worker run per app for `speedup_nproc`.
pub fn layers(opts: &Opts, budget: f64) -> Outcome {
    let mut out = Outcome::default();
    let (_, prepared) = prepare(opts, 1);
    let plain = pass(&prepared, opts, budget / 2.0, false, &mut out);
    let traced = pass(&prepared, opts, budget / 2.0, true, &mut out);
    let fps = |p: &Pass| p.frames as f64 / p.time.as_secs_f64();
    out.metrics.set(
        "trace.overhead_pct.paper-batch",
        (fps(&plain) / fps(&traced) - 1.0) * 100.0,
        "%",
    );
    for (i, a) in prepared.iter().enumerate() {
        let id = a.app.id();
        let u = &plain.acc[i];
        let t = &traced.acc[i];
        let app_fps = u.frames as f64 / u.time.as_secs_f64();
        // One worker: the median of three runs.
        let mut one = Samples::new();
        for _ in 0..3 {
            let (dt, r) = run_once(a, 1, None);
            check(a, &r, &mut out);
            one.push(dt.as_secs_f64());
        }
        let fps1 = a.frames as f64 / one.median();
        let m = &mut out.metrics;
        m.set(format!("batch.{id}.fps"), app_fps, "1/s");
        let wall = t.wall.as_secs_f64();
        let busy = t.busy.as_secs_f64() / wall;
        let idle = t.idle.as_secs_f64() / wall;
        m.set(format!("engine.{id}.busy_frac"), busy, "ratio");
        m.set(format!("engine.{id}.idle_frac"), idle, "ratio");
        m.set(
            format!("engine.{id}.rts_frac"),
            (1.0 - busy - idle).max(0.0),
            "ratio",
        );
        m.set(
            format!("engine.{id}.jobs_per_frame"),
            t.jobs as f64 / t.frames as f64,
            "count",
        );
        m.set(
            format!("engine.{id}.speedup_nproc"),
            app_fps / fps1,
            "ratio",
        );
        if a.app == App::Pip12 {
            m.set(
                "reconfig.pip12_quiesce_us_per_toggle",
                t.quiesce.as_secs_f64() * 1e6 / t.reconfigs.max(1) as f64,
                "us",
            );
        }
    }
    out
}
