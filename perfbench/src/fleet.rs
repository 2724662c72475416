//! `fleet-openloop`: one in-process `hinch::Runtime` (rings on, as
//! shipped) serving 16 small-scale tenants — PiP-1, Blur-3x3 and PiP-12
//! in turn, pipeline depth 3, `max_backlog` 8 — fed by one generator
//! thread with seeded Poisson arrivals of one frame each, spread
//! uniformly over the tenants.
//!
//! Two phases: a fixed-rate phase (about a third of capacity on a
//! 2-worker host) whose frame latency runs from when each arrival was
//! *due* to the frame's `RingEvent::Retire` timestamp, mapped onto the
//! generator clock through `telemetry().uptime_ns`; a shed arrival counts
//! as infinite latency. Then an overload phase whose goodput is frames
//! completed per second. Small-scale kernels are cheap, so the scheduler
//! (pool, core, admission) is a large share of job time here.

use crate::common::{build_app, median_of, Opts, Outcome, Quantile, Rng, Samples, Seeded};
use apps::experiment::{App, Scale};
use hinch::engine::{run_reference, RunConfig};
use hinch::trace::ring::{Cursor, RingEvent};
use hinch::trace::StallCause;
use hinch::{GraphId, PoolTelemetry, Runtime, RuntimeConfig, SpawnOpts};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
const MIX: [App; 3] = [App::Pip1, App::Blur3, App::Pip12];
const DEPTH: usize = 3;
const BACKLOG: u64 = 8;
/// Offered load of the fixed-rate phase, frames/s.
const FIXED_RATE: f64 = 12_000.0;
/// Offered load of the overload phase, frames/s.
const OVERLOAD_RATE: f64 = 60_000.0;
/// Share of the budget spent in the fixed-rate phase.
const FIXED_SHARE: f64 = 0.5;
/// Fixed-rate latency is summarized per window of this many due-time
/// seconds; the reported quantiles are medians over windows.
const WINDOW_S: f64 = 0.5;
/// Ring snapshot cadence: well inside the time a 4096-slot ring takes to
/// wrap at the fixed rate.
const DRAIN_EVERY: Duration = Duration::from_millis(2);
/// One tenant's captured frames are checked (and released) per tick.
const CHECK_EVERY: Duration = Duration::from_millis(3);
/// Reference frames per app: a multiple of the small-scale inputs'
/// distinct-frame count (output frame k equals reference frame k mod
/// this).
const REF_FRAMES: usize = 12;

/// Expected output frames of one app: `variants[v][frame][port]`. A
/// static app has one variant; PiP-12 at depth > 1 may show either
/// counterpart per frame.
struct Expected {
    variants: Vec<Vec<Vec<Vec<u8>>>>,
}

struct Tenant {
    id: GraphId,
    app: usize,
    built: Seeded,
    /// Due time (ns on the generator clock) of every accepted frame.
    due: Vec<f64>,
    /// Frames whose output has been checked.
    checked: usize,
    bad: bool,
}

struct Fleet {
    rt: Runtime,
    tenants: Vec<Tenant>,
    by_graph: HashMap<u32, usize>,
    expected: Vec<Expected>,
    cursors: Vec<Cursor>,
    /// Generator clock origin.
    base: Instant,
    /// Runtime uptime (ns) at `base`.
    uptime_at_base: f64,
}

fn reference(app: App, seed: u64, inputs: &Seeded) -> Vec<Vec<Vec<u8>>> {
    let r = build_app(app, Scale::Small, seed, Some(&inputs.assets), false);
    run_reference(&r.spec, &RunConfig::new(REF_FRAMES as u64)).expect("reference run");
    let ports = r.take_output();
    (0..REF_FRAMES)
        .map(|f| ports.iter().map(|p| p[f].clone()).collect())
        .collect()
}

fn setup(opts: &Opts) -> (Fleet, Vec<u64>) {
    let mut rng = Rng::new(opts.seed);
    let seeds: Vec<u64> = MIX.iter().map(|_| rng.fork()).collect();
    let rt = Runtime::new(RuntimeConfig::new(opts.workers));
    let inputs: Vec<Seeded> = MIX
        .iter()
        .zip(&seeds)
        .map(|(&app, &s)| build_app(app, Scale::Small, s, None, false))
        .collect();
    let mut tenants = Vec::new();
    let mut by_graph = HashMap::new();
    for t in 0..TENANTS {
        let app = t % MIX.len();
        let built = build_app(
            MIX[app],
            Scale::Small,
            seeds[app],
            Some(&inputs[app].assets),
            false,
        );
        let opts = SpawnOpts::new(MIX[app].id())
            .pipeline_depth(DEPTH)
            .max_backlog(BACKLOG);
        let id = rt.spawn(&built.spec, opts).expect("spawn tenant");
        by_graph.insert(id.0, t);
        tenants.push(Tenant {
            id,
            app,
            built,
            due: Vec::new(),
            checked: 0,
            bad: false,
        });
    }
    let cursors = rt
        .rings()
        .expect("rings are on in the shipped config")
        .cursors();
    let fleet = Fleet {
        rt,
        tenants,
        by_graph,
        expected: Vec::new(),
        cursors,
        base: Instant::now(),
        uptime_at_base: 0.0,
    };
    (fleet, seeds)
}

/// Build the fleet `repeats` times (the median is `setup_s`), keep the last,
/// then compute expected outputs and pin the clock mapping.
fn prepare(opts: &Opts, repeats: usize) -> (f64, Fleet) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(opts));
        times.push(t.elapsed().as_secs_f64());
    }
    let (mut fleet, seeds) = last.expect("at least one set-up");
    for (i, &app) in MIX.iter().enumerate() {
        let inputs = &fleet.tenants[i].built;
        let mut variants = if app == App::Pip12 {
            vec![
                reference(App::Pip1, seeds[i], inputs),
                reference(App::Pip2, seeds[i], inputs),
            ]
        } else {
            vec![reference(app, seeds[i], inputs)]
        };
        if opts.corrupt_reference {
            for v in &mut variants {
                v[0][0][0] ^= 1;
            }
        }
        fleet.expected.push(Expected { variants });
    }
    let a = Instant::now();
    let up = fleet.rt.telemetry().uptime_ns;
    let b = Instant::now();
    fleet.base = a + (b - a) / 2;
    fleet.uptime_at_base = up as f64;
    (median_of(&times), fleet)
}

/// Per-phase observations.
#[derive(Default)]
struct Phase {
    offered: u64,
    accepted: u64,
    shed: u64,
    /// `(due ns, latency ns)`: every arrival of the fixed-rate phase
    /// (shed = infinite), the admitted frames of the overload phase.
    latency: Vec<(f64, f64)>,
    /// Accept → retire (the runtime's own latency field), ns.
    accept_to_retire: Samples,
    late: Samples,
    submit_ns: Samples,
    snapshot_us: Samples,
    dropped: u64,
    jobs: u64,
    job_ns: Samples,
    retired: u64,
    stall_ns: [u64; 4],
    tel_start: PoolTelemetry,
    tel_end: PoolTelemetry,
    seconds: f64,
    completed: u64,
    /// Runtime latency-histogram counts gained during the phase.
    hist: HashMap<(u64, u64), u64>,
}

impl Fleet {
    fn ns(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.base).as_nanos() as f64
    }

    /// The runtime's bucketed frame-latency histograms, merged over
    /// tenants: `(low, high) → count`.
    fn histogram(&self) -> HashMap<(u64, u64), u64> {
        let mut buckets = HashMap::new();
        for s in self.rt.all_stats() {
            for (lo, hi, n) in s.latency_buckets {
                *buckets.entry((lo, hi)).or_default() += n;
            }
        }
        buckets
    }

    fn completed(&self) -> u64 {
        self.rt.all_stats().iter().map(|s| s.completed).sum()
    }

    fn accepted(&self) -> u64 {
        self.tenants.iter().map(|t| t.due.len() as u64).sum()
    }

    /// Drain the flight recorder; fold `Retire` records (and, traced,
    /// `Job`/`Stall` records) into `ph`.
    fn drain(&mut self, ph: &mut Phase, record: bool, traced: bool) {
        let rings = self.rt.rings().expect("rings on");
        let t = Instant::now();
        let snap = rings.snapshot(&mut self.cursors);
        if traced {
            ph.snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        ph.dropped += snap.dropped;
        for (_, ev) in snap.events {
            match ev {
                RingEvent::Retire {
                    graph,
                    iter,
                    at,
                    latency,
                } => {
                    let Some(&ti) = self.by_graph.get(&graph) else {
                        continue;
                    };
                    ph.retired += 1;
                    if !record {
                        continue;
                    }
                    let due = self.tenants[ti].due[iter as usize];
                    let retired = at as f64 - self.uptime_at_base;
                    ph.latency.push((due, retired - due));
                    ph.accept_to_retire.push(latency as f64);
                }
                RingEvent::Job { start, end, .. } if traced => {
                    ph.jobs += 1;
                    ph.job_ns.push(end.saturating_sub(start) as f64);
                }
                RingEvent::Stall {
                    cause, start, end, ..
                } if traced => {
                    ph.stall_ns[cause.index()] += end.saturating_sub(start);
                }
                _ => {}
            }
        }
    }

    /// Compare (and release) the frames tenant `t` captured so far.
    fn check(&mut self, t: usize, out: &mut Outcome) {
        let tenant = &mut self.tenants[t];
        let caps = tenant.built.assets.capture_set("out", tenant.built.ports);
        let mut guards: Vec<_> = caps.iter().map(|c| c.lock()).collect();
        let n = guards.iter().map(|g| g.len()).min().unwrap_or(0);
        let expected = &self.expected[tenant.app];
        for f in 0..n {
            let k = (tenant.checked + f) % REF_FRAMES;
            let ok = expected
                .variants
                .iter()
                .any(|v| guards.iter().enumerate().all(|(p, g)| g[f] == v[k][p]));
            if !ok && !tenant.bad {
                tenant.bad = true;
                out.fail(format!(
                    "tenant {} ({}): frame {} differs from run_reference",
                    tenant.id,
                    MIX[tenant.app].id(),
                    tenant.checked + f
                ));
            }
        }
        for g in &mut guards {
            g.drain(..n);
        }
        tenant.checked += n;
    }

    /// Drive `mode`'s rate for `seconds` of due time.
    fn generate(
        &mut self,
        rng: &mut Rng,
        mode: Mode,
        seconds: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Phase {
        let record = mode != Mode::Warm;
        let rate = if mode == Mode::Overload {
            OVERLOAD_RATE
        } else {
            FIXED_RATE
        };
        let mut ph = Phase::default();
        // Discard what the rings hold from before this phase.
        self.drain(&mut ph, false, false);
        ph = Phase::default();
        ph.tel_start = self.rt.telemetry();
        let hist_start = if traced {
            self.histogram()
        } else {
            HashMap::new()
        };
        let completed0 = self.completed();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut next = start + rng.exp_gap(rate);
        let mut last_drain = start;
        let mut last_check = start;
        let mut check_turn = 0;
        while next < end {
            let now = Instant::now();
            if now - last_drain >= DRAIN_EVERY {
                self.drain(&mut ph, record, traced);
                last_drain = now;
                continue;
            }
            if now >= next {
                let t = rng.below(TENANTS as u64) as usize;
                let id = self.tenants[t].id;
                let s0 = Instant::now();
                let accepted = match self.rt.submit(id, 1) {
                    Ok(n) => n,
                    Err(e) => {
                        out.fail(format!("submit to tenant {id}: {e}"));
                        0
                    }
                };
                if traced {
                    ph.submit_ns.push(s0.elapsed().as_nanos() as f64);
                }
                ph.offered += 1;
                let due = self.ns(next);
                if record {
                    ph.late.push(self.ns(s0) - due);
                }
                if accepted == 1 {
                    ph.accepted += 1;
                    self.tenants[t].due.push(due);
                } else {
                    ph.shed += 1;
                    if mode == Mode::Fixed {
                        ph.latency.push((due, f64::INFINITY));
                    }
                }
                next += rng.exp_gap(rate);
                continue;
            }
            if now - last_check >= CHECK_EVERY {
                self.check(check_turn, out);
                check_turn = (check_turn + 1) % TENANTS;
                last_check = now;
                continue;
            }
            let gap = next - now;
            if gap > Duration::from_micros(20) {
                std::thread::sleep(gap.min(DRAIN_EVERY));
            } else {
                std::thread::yield_now();
            }
        }
        ph.seconds = start.elapsed().as_secs_f64();
        ph.completed = self.completed() - completed0;
        ph.tel_end = self.rt.telemetry();
        // Let every accepted frame retire so its record is folded here.
        let target = self.accepted();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            self.drain(&mut ph, record, traced);
            if self.completed() >= target {
                self.drain(&mut ph, record, traced);
                break;
            }
            if Instant::now() > deadline {
                out.fail("accepted frames did not retire within 30 s".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if traced {
            ph.hist = self
                .histogram()
                .into_iter()
                .map(|(k, n)| (k, n - hist_start.get(&k).copied().unwrap_or(0)))
                .collect();
        }
        ph
    }

    /// Drain every tenant: completed == accepted, no failed graph, every
    /// frame's output checked.
    fn finish(mut self, out: &mut Outcome) {
        for t in 0..self.tenants.len() {
            self.check(t, out);
        }
        for tenant in &self.tenants {
            let accepted = tenant.due.len() as u64;
            out.attempted += accepted;
            match self.rt.drain(tenant.id) {
                Ok(s) if s.completed == accepted && s.submitted == accepted => {}
                Ok(s) => out.fail(format!(
                    "tenant {}: accepted {accepted}, submitted {}, completed {}",
                    tenant.id, s.submitted, s.completed
                )),
                Err(e) => out.fail(format!("tenant {}: {e}", tenant.id)),
            }
            if tenant.checked != tenant.due.len() {
                out.fail(format!(
                    "tenant {}: {} of {accepted} frames produced output",
                    tenant.id, tenant.checked
                ));
            }
        }
        self.rt.shutdown();
    }
}

/// Quantile of a phase's latency per window of due time, then the median
/// over windows (robust to one bad window); also the exact quantile over
/// the whole phase.
fn windowed(latency: &[(f64, f64)], q: f64) -> (f64, Quantile) {
    let mut all = Samples::new();
    let mut windows: HashMap<u64, Samples> = HashMap::new();
    for &(due, l) in latency {
        all.push(l);
        windows
            .entry((due / (WINDOW_S * 1e9)) as u64)
            .or_default()
            .push(l);
    }
    let per: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() >= 200)
        .map(|mut w| w.quantile(q).value)
        .collect();
    let exact = all.quantile(q);
    let med = if per.is_empty() {
        exact.value
    } else {
        median_of(&per)
    };
    (med, exact)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fixed rate, nothing recorded.
    Warm,
    /// Fixed rate; a shed arrival counts as infinite latency.
    Fixed,
    /// Overload: admission sheds a large share, and the latency of the
    /// admitted frames is bounded by the backlog.
    Overload,
}

struct Run {
    fixed: Phase,
    overload: Phase,
}

fn drive(fleet: &mut Fleet, opts: &Opts, budget: f64, traced: bool, out: &mut Outcome) -> Run {
    let mut rng = Rng::new(opts.seed ^ 0xf1ee7);
    // Warm-up at the fixed rate, not recorded.
    fleet.generate(&mut rng, Mode::Warm, 0.3, false, out);
    let fixed = fleet.generate(&mut rng, Mode::Fixed, budget * FIXED_SHARE, traced, out);
    if fixed.dropped > 0 {
        out.fail(format!(
            "flight recorder dropped {} events in the fixed-rate phase",
            fixed.dropped
        ));
    }
    let overload = fleet.generate(
        &mut rng,
        Mode::Overload,
        budget * (1.0 - FIXED_SHARE),
        traced,
        out,
    );
    Run { fixed, overload }
}

/// Windowed latency quantiles (ns) and overload goodput (frames/s).
struct Latency {
    /// Fixed-rate phase, shed = infinite.
    p50: f64,
    p90: f64,
    p99: f64,
    goodput: f64,
    /// Overload phase, admitted frames only.
    admitted_p50: f64,
    admitted_p90: f64,
}

fn latency_metrics(run: &Run, prefix: &str, notes: &mut Vec<String>) -> Latency {
    let (p50, e50) = windowed(&run.fixed.latency, 0.5);
    let (p90, e90) = windowed(&run.fixed.latency, 0.9);
    let (p99, e99) = windowed(&run.fixed.latency, 0.99);
    let goodput = run.overload.completed as f64 / run.overload.seconds;
    let (o50, _) = windowed(&run.overload.latency, 0.5);
    let (o90, _) = windowed(&run.overload.latency, 0.9);
    notes.push(format!(
        "  {prefix}fixed phase: offered {} accepted {} shed {}; exact p50 {:.4} ms, p90 {:.4} ms (beyond {}), p99 {:.4} ms (beyond {}), n={}",
        run.fixed.offered,
        run.fixed.accepted,
        run.fixed.shed,
        e50.value / 1e6,
        e90.value / 1e6,
        e90.beyond,
        e99.value / 1e6,
        e99.beyond,
        e99.n,
    ));
    notes.push(format!(
        "  {prefix}overload phase: offered {} accepted {} shed {} completed {} in {:.3} s; admitted p50 {:.4} ms p90 {:.4} ms",
        run.overload.offered,
        run.overload.accepted,
        run.overload.shed,
        run.overload.completed,
        run.overload.seconds,
        o50 / 1e6,
        o90 / 1e6,
    ));
    Latency {
        p50,
        p90,
        p99,
        goodput,
        admitted_p50: o50,
        admitted_p90: o90,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut fleet) = prepare(opts, 9);
    out.metrics.set("setup_s", setup_s, "s");
    let mut run = drive(&mut fleet, opts, opts.seconds, false, &mut out);
    let l = latency_metrics(&run, "", &mut out.notes);
    let a50 = run.fixed.accept_to_retire.quantile(0.5);
    let a90 = run.fixed.accept_to_retire.quantile(0.9);
    out.notes.push(format!(
        "  accept to retire: p50 {:.4} ms p90 {:.4} ms",
        a50.value / 1e6,
        a90.value / 1e6
    ));
    let late50 = run.fixed.late.quantile(0.5);
    let late99 = run.fixed.late.quantile(0.99);
    out.notes.push(format!(
        "  generator lateness: p50 {:.4} ms p99 {:.4} ms (n={} beyond={})",
        late50.value / 1e6,
        late99.value / 1e6,
        late99.n,
        late99.beyond
    ));
    out.metrics
        .set("latency_p50_ms", l.admitted_p50 / 1e6, "ms");
    out.metrics
        .set("latency_p90_ms", l.admitted_p90 / 1e6, "ms");
    out.metrics.set("throughput_per_s", l.goodput, "1/s");
    fleet.finish(&mut out);
    out
}

/// Pool counters between two telemetry samples.
fn pool_metrics(m: &mut crate::common::Metrics, phase: &str, ph: &Phase, workers: usize) {
    let (a, b) = (&ph.tel_start, &ph.tel_end);
    let sum = |t: &PoolTelemetry, f: fn(&hinch::WorkerTelemetry) -> u64| -> u64 {
        t.workers.iter().map(f).sum()
    };
    let span = (b.uptime_ns - a.uptime_ns) as f64 * workers as f64;
    let busy = (sum(b, |w| w.busy_ns) - sum(a, |w| w.busy_ns)) as f64 / span;
    let idle = (sum(b, |w| w.idle_ns) - sum(a, |w| w.idle_ns)) as f64 / span;
    let jobs = (sum(b, |w| w.jobs) - sum(a, |w| w.jobs)).max(1) as f64;
    let parks = (sum(b, |w| w.parks) - sum(a, |w| w.parks)) as f64;
    let steals = (sum(b, |w| w.steals) - sum(a, |w| w.steals)) as f64;
    m.set(format!("pool.{phase}.busy_frac"), busy, "ratio");
    m.set(format!("pool.{phase}.idle_frac"), idle, "ratio");
    m.set(
        format!("pool.{phase}.parks_per_kjob"),
        parks / jobs * 1e3,
        "count",
    );
    m.set(
        format!("pool.{phase}.steals_per_kjob"),
        steals / jobs * 1e3,
        "count",
    );
}

/// The layer pass: an untraced and a traced half; the traced half folds
/// ring `Job`/`Stall` events, times each `submit` and samples
/// `telemetry()` at the phase boundaries.
pub fn layers(opts: &Opts, budget: f64) -> Outcome {
    let mut out = Outcome::default();
    let (_, mut fleet) = prepare(opts, 1);
    let plain = drive(&mut fleet, opts, budget / 2.0, false, &mut out);
    let mut traced = drive(&mut fleet, opts, budget / 2.0, true, &mut out);
    let plain_goodput = latency_metrics(&plain, "untraced ", &mut out.notes).goodput;
    let l = latency_metrics(&traced, "traced ", &mut out.notes);
    fleet.finish(&mut out);
    let m = &mut out.metrics;
    m.set("fleet.frame_p50_ms", l.p50 / 1e6, "ms");
    m.set("fleet.frame_p90_ms", l.p90.min(f64::MAX) / 1e6, "ms");
    // Infinite when over 1% of arrivals were shed: printed as f64::MAX.
    m.set("fleet.frame_p99_ms", l.p99.min(f64::MAX) / 1e6, "ms");
    m.set("fleet.goodput_fps", l.goodput, "1/s");
    m.set(
        "trace.overhead_pct.fleet-openloop",
        (plain_goodput / l.goodput - 1.0) * 100.0,
        "%",
    );
    let f = &mut traced.fixed;
    m.set_q(
        "admission.submit_ns_p50",
        f.submit_ns.quantile(0.5),
        1.0,
        "ns",
    );
    m.set_q(
        "admission.submit_ns_p99",
        f.submit_ns.quantile(0.99),
        1.0,
        "ns",
    );
    m.set(
        "admission.shed_frac_overload",
        traced.overload.shed as f64 / traced.overload.offered.max(1) as f64,
        "ratio",
    );
    pool_metrics(m, "fixed", &traced.fixed, opts.workers);
    pool_metrics(m, "overload", &traced.overload, opts.workers);
    let f = &mut traced.fixed;
    for cause in StallCause::ALL {
        m.set(
            format!("pool.stall_ms_per_s.{}", cause.as_str()),
            f.stall_ns[cause.index()] as f64 / 1e6 / f.seconds,
            "ms/s",
        );
    }
    m.set(
        "core.jobs_per_frame",
        f.jobs as f64 / f.retired.max(1) as f64,
        "count",
    );
    m.set_q("compute.job_us_p50", f.job_ns.quantile(0.5), 1e-3, "us");
    m.set_q(
        "runtime.accept_to_retire_p50_ms",
        f.accept_to_retire.quantile(0.5),
        1e-6,
        "ms",
    );
    let a99 = f.accept_to_retire.quantile(0.99);
    m.set_q("runtime.accept_to_retire_p99_ms", a99, 1e-6, "ms");
    m.set_q("gen.late_p50_ms", f.late.quantile(0.5), 1e-6, "ms");
    m.set_q("gen.late_p99_ms", f.late.quantile(0.99), 1e-6, "ms");
    m.set_q(
        "trace.snapshot_us_p50",
        f.snapshot_us.quantile(0.5),
        1.0,
        "us",
    );
    m.set("trace.ring_dropped", f.dropped as f64, "count");
    // The runtime's bucketed p99 (power-of-two LogHistogram, merged over
    // tenants) against the exact p99 of the same phase's accept → retire
    // latencies.
    let mut sorted: Vec<_> = f.hist.iter().map(|(&k, &n)| (k, n)).collect();
    sorted.sort();
    let total: u64 = sorted.iter().map(|b| b.1).sum();
    let rank = (0.99 * total as f64).ceil() as u64;
    let mut seen = 0;
    let mut bucket_p99 = 0;
    for ((_, hi), n) in sorted {
        seen += n;
        if seen >= rank {
            bucket_p99 = hi;
            break;
        }
    }
    m.set(
        "trace.hist_p99_ratio",
        bucket_p99 as f64 / a99.value,
        "ratio",
    );
    out
}
