//! `sim-sweep`: the SpaceCAKE simulator at the paper's frame sizes, in a
//! fixed order: PiP-1, JPiP-1 and Blur-3x3 at 1 and 9 simulated cores,
//! plus each app's hand-written sequential baseline. Scaling past the
//! host's cores, the cache model and the paper's §4.2 compute / memory /
//! run-time-system split exist only here.
//!
//! Every pass runs in a child process of its own: `hinch::meter::sim_alloc`
//! is a process-global bump pointer, so simulated addresses (and with
//! them cache-set mapping and cycle counts) depend on everything the
//! process allocated before. A fresh process per pass, in a fixed order,
//! makes each pass a pure function of the seed; the parent checks that
//! every pass reports identical simulated numbers. Making each run own
//! its simulated address space will legitimately move these numbers.

use crate::common::{build_app, median_of, Opts, Outcome, Rng, Samples};
use apps::experiment::{run_baseline, App, AppConfig, Scale};
use conformance::fingerprint::digest_ports;
use hinch::engine::{run_reference, run_sim, RunConfig};
use hinch::trace::{Clock, Recorder};
use hinch::SimReport;
use spacecake::{Machine, Solo, TileConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub const CHILD_FLAG: &str = "--sim-pass";

const APPS: [App; 3] = [App::Pip1, App::Jpip1, App::Blur3];

/// Simulated frames per app. The timed passes run an eighth of the
/// paper's counts, so a pass takes under a second of host time and a run
/// holds several; the layer pass runs the paper's 96/24/96, so its
/// speedups are the Fig. 9 configuration.
fn frames(app: App, paper: bool) -> u64 {
    let n = app.paper_frames();
    if paper {
        n
    } else {
        n / 8
    }
}
const CORES: [usize; 2] = [1, 9];
const DEPTH: usize = 5;

type Values = BTreeMap<String, f64>;

/// Child entry: `--sim-pass <seed> <traced 0|1> <corrupt 0|1> <paper 0|1>`. Prints
/// `sim <key> <value>` lines; keys under `host.` are host measurements,
/// every other key is a simulated number.
pub fn child_main(args: &[String]) {
    let arg = |i: usize| {
        args.get(i)
            .and_then(|a| a.parse::<u64>().ok())
            .expect("sim-pass args")
    };
    let (seed, traced, corrupt, paper) = (arg(0), arg(1) == 1, arg(2) == 1, arg(3) == 1);
    let mut v = Values::new();
    let mut rng = Rng::new(seed);
    let t = Instant::now();
    let inputs: Vec<_> = APPS
        .iter()
        .map(|&app| {
            let s = rng.fork();
            (s, build_app(app, Scale::Paper, s, None, false))
        })
        .collect();
    v.insert("host.setup_s".into(), t.elapsed().as_secs_f64());

    let mut sim_s = 0.0;
    let mut total_frames = 0u64;
    let mut jobs = 0u64;
    let mut jpip_seq_misses = 1.0;
    for (&app, (s, input)) in APPS.iter().zip(&inputs) {
        let id = app.id();
        let n = frames(app, paper);
        let reference = {
            let r = build_app(app, Scale::Paper, *s, Some(&input.assets), false);
            run_reference(&r.spec, &RunConfig::new(n)).expect("reference run");
            let d = digest_ports(&r.take_output()).0;
            if corrupt {
                d ^ 1
            } else {
                d
            }
        };
        let t = Instant::now();
        let mut reports = Vec::new();
        for cores in CORES {
            let b = build_app(app, Scale::Paper, *s, Some(&input.assets), false);
            let rec = traced.then(|| Recorder::new(Clock::VirtualCycles));
            let mut cfg = RunConfig::new(n).pipeline_depth(DEPTH);
            if let Some(r) = &rec {
                cfg = cfg.trace(r.sink());
            }
            let mut machine = Machine::new(TileConfig::with_cores(cores));
            let r = run_sim(&b.spec, &cfg, &mut machine).expect("sim run");
            let ok = digest_ports(&b.take_output()).0 == reference && r.iterations == n;
            v.insert(format!("check.{id}.c{cores}"), ok as u64 as f64);
            total_frames += n;
            jobs += r.jobs_executed;
            split(&mut v, &format!("sim.{id}.c{cores}"), &r);
            reports.push(r);
        }
        let cfg = AppConfig::paper(app).frames(n);
        let mut solo = Solo::new();
        let (_, seq) = solo.run(|meter| run_baseline(cfg, &input.assets, meter));
        sim_s += t.elapsed().as_secs_f64();
        let (c1, c9) = (&reports[0], &reports[1]);
        // Fig. 9: speedup over the fastest sequential version.
        let reference_cycles = seq.min(c1.cycles);
        v.insert(format!("sim.{id}.seq_cycles"), seq as f64);
        v.insert(
            format!("sim.{id}.speedup9"),
            reference_cycles as f64 / c9.cycles as f64,
        );
        v.insert(
            format!("spacecake.{id}.l1_miss_ratio"),
            c1.stats.l1_miss_ratio(),
        );
        if app == App::Jpip1 {
            jpip_seq_misses = solo.stats().l1_misses.max(1) as f64;
            v.insert(
                "spacecake.jpip1_fig8_l1_ratio".into(),
                c1.stats.l1_misses as f64 / jpip_seq_misses,
            );
        }
        if traced {
            // The Fig. 1 prediction tool, calibrated from the 1-core
            // profile, against the 9-core simulation.
            let mut db = predict::CostDb::new();
            db.absorb_profile(&c1.per_node);
            let mut pcfg = predict::PredictConfig::new(9, n);
            pcfg.overhead.job_base = 0;
            let p = predict::predict(&input.spec, &db, &pcfg);
            v.insert(
                format!("predict.{id}.err_pct_c9"),
                (p.makespan / c9.cycles as f64 - 1.0) * 100.0,
            );
        }
    }
    if traced {
        // Fused JPiP-1 last, so it shifts no address the sweep above sees.
        let (s, input) = &inputs[1];
        let n = frames(App::Jpip1, paper);
        let f = build_app(App::Jpip1, Scale::Paper, *s, Some(&input.assets), true);
        let mut machine = Machine::new(TileConfig::with_cores(1));
        let r = run_sim(
            &f.spec,
            &RunConfig::new(n).pipeline_depth(DEPTH),
            &mut machine,
        )
        .expect("fused sim run");
        v.insert(
            "spacecake.jpip1_fig8_l1_ratio_fused".into(),
            r.stats.l1_misses as f64 / jpip_seq_misses,
        );
    }
    v.insert("host.sim_s".into(), sim_s);
    v.insert("host.frames".into(), total_frames as f64);
    v.insert("host.ns_per_job".into(), sim_s * 1e9 / jobs as f64);
    v.insert("host.rss_mb".into(), crate::common::peak_rss_mb());
    for (k, x) in &v {
        println!("sim {k} {x:?}");
    }
}

/// The §4.2 split of a simulated run: compute, memory stall and
/// run-time-system shares of all core-cycles, plus idle.
fn split(v: &mut Values, prefix: &str, r: &SimReport) {
    let total = (r.cycles * r.core_busy.len() as u64) as f64;
    let busy = r.core_busy.iter().sum::<u64>() as f64;
    let idle = r.core_idle.iter().sum::<u64>() as f64;
    let compute = r.stats.compute_cycles as f64;
    let mem = r.stats.mem_cycles as f64;
    v.insert(format!("{prefix}.compute_frac"), compute / total);
    v.insert(format!("{prefix}.mem_frac"), mem / total);
    v.insert(format!("{prefix}.rts_frac"), (busy - compute - mem) / total);
    v.insert(format!("{prefix}.idle_frac"), idle / total);
    v.insert(format!("{prefix}.cycles"), r.cycles as f64);
}

/// Run one pass in a fresh process and parse what it reports.
fn spawn_pass(opts: &Opts, traced: bool, paper: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let output = std::process::Command::new(exe)
        .args([
            CHILD_FLAG,
            &opts.seed.to_string(),
            flag(traced),
            flag(opts.corrupt_reference),
            flag(paper),
        ])
        .output()
        .map_err(|e| format!("sim pass: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "sim pass exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut v = Values::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut f = line.split_whitespace();
        if let (Some("sim"), Some(k), Some(x)) = (f.next(), f.next(), f.next()) {
            let x = x
                .parse::<f64>()
                .map_err(|e| format!("sim pass value {k}: {e}"))?;
            v.insert(k.to_string(), x);
        }
    }
    Ok(v)
}

/// The simulated (non-host) part of a pass.
fn simulated(v: &Values) -> Vec<(&String, &f64)> {
    v.iter().filter(|(k, _)| !k.starts_with("host.")).collect()
}

fn checks(v: &Values, out: &mut Outcome) {
    out.attempted += (APPS.len() * CORES.len()) as u64;
    for (k, ok) in v.iter().filter(|(k, _)| k.starts_with("check.")) {
        if *ok != 1.0 {
            out.fail(format!(
                "{}: simulated output differs from run_reference",
                &k[6..]
            ));
        }
    }
}

struct Passes {
    first: Option<Values>,
    setup: Vec<f64>,
    pass_s: Samples,
    frames: f64,
    rss: f64,
}

fn passes(
    opts: &Opts,
    budget: f64,
    traced: bool,
    paper: bool,
    min: usize,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes {
        first: None,
        setup: Vec::new(),
        pass_s: Samples::new(),
        frames: 0.0,
        rss: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget || p.pass_s.len() < min {
        let v = match spawn_pass(opts, traced, paper) {
            Ok(v) => v,
            Err(msg) => {
                out.fail(msg);
                break;
            }
        };
        checks(&v, out);
        if let Some(first) = &p.first {
            if simulated(first) != simulated(&v) {
                out.fail("two passes of the same seed gave different simulated numbers".into());
            }
        }
        p.setup.push(v["host.setup_s"]);
        p.pass_s.push(v["host.sim_s"]);
        p.frames += v["host.frames"];
        p.rss = p.rss.max(v["host.rss_mb"]);
        p.first.get_or_insert(v);
    }
    p
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut p = passes(opts, opts.seconds, false, false, 2, &mut out);
    out.child_rss_mb = p.rss;
    out.metrics.set("setup_s", median_of(&p.setup), "s");
    out.metrics
        .set("throughput_per_s", p.frames / p.pass_s.sum(), "1/s");
    out.metrics
        .set_q("latency_p50_ms", p.pass_s.quantile(0.5), 1e3, "ms");
    out.metrics
        .set_q("latency_p90_ms", p.pass_s.quantile(0.9), 1e3, "ms");
    out
}

/// The layer pass: one untraced and one traced pass (flight recorder on
/// every simulated run, plus the fused Fig. 8 run and the predictor).
pub fn layers(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let plain = passes(opts, 0.0, false, true, 1, &mut out);
    let traced = passes(opts, 0.0, true, true, 1, &mut out);
    out.child_rss_mb = plain.rss.max(traced.rss);
    let (Some(pv), Some(tv)) = (&plain.first, &traced.first) else {
        return out;
    };
    for (k, x) in simulated(tv) {
        if !k.starts_with("check.") && !k.ends_with("cycles") {
            let unit = if k.ends_with("err_pct_c9") {
                "%"
            } else {
                "ratio"
            };
            out.metrics.set(k.clone(), *x, unit);
        }
        if let Some(y) = pv.get(k) {
            if y != x && !k.starts_with("check.") {
                out.fail(format!("tracing changed simulated value {k}: {y} vs {x}"));
            }
        }
    }
    out.metrics
        .set("sim.host_ns_per_job", tv["host.ns_per_job"], "ns");
    out.metrics.set(
        "trace.overhead_pct.sim-sweep",
        (tv["host.sim_s"] / pv["host.sim_s"] - 1.0) * 100.0,
        "%",
    );
    out
}
