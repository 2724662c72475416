//! `wire-sessions`: an in-process `serve::Server` on loopback, driven
//! through the shipped `serve::Client` exactly as shipped (no socket
//! options). One generator thread runs sessions back to back, each on a
//! fresh connection: spawn by name → submit F frames honouring
//! backpressure (an `Inject` on the app's manager queue halfway for
//! reconfigurable apps) → `Stats` → `Drain`. Apps and F come from the
//! seed. Structure changes (spawn, quiesce, teardown) run beside frames
//! here, and the wire protocol, `analyze::check_spec`,
//! `apps::build_isolated`, instantiate and flatten sit on every session's
//! path.

use crate::common::{median_of, Opts, Outcome, Rng, Samples};
use apps::experiment::{build_isolated, reconfig_handle, App, AppConfig, Scale};
use apps::registry::registry;
use hinch::graph::flatten::flatten;
use hinch::graph::instance::instantiate_graph_sized;
use serve::{Client, Server, ServerConfig, FORMAT_JSON};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Instant;

const APPS: [App; 4] = [App::Pip1, App::Jpip1, App::Blur3, App::Pip12];
const DEPTH: u32 = 3;
const BACKLOG: u64 = 8;

/// Frames per session: two backlogs' worth, so submits meet
/// backpressure.
const FRAMES: u64 = 16;

struct Plan {
    app: App,
    frames: u64,
}

/// Sessions come in rounds that hold every app once, in a seeded order,
/// so every run sees the same mix.
fn round(rng: &mut Rng) -> Vec<Plan> {
    let mut apps = APPS.to_vec();
    for i in (1..apps.len()).rev() {
        apps.swap(i, rng.below(i as u64 + 1) as usize);
    }
    apps.into_iter()
        .map(|app| Plan {
            app,
            frames: FRAMES,
        })
        .collect()
}

/// Per-op round-trip times of the traced pass, seconds.
#[derive(Default)]
struct OpTimes {
    ping: Samples,
    spawn: Samples,
    submit: Samples,
    inject: Samples,
    stats: Samples,
    drain: Samples,
    telemetry: Samples,
}

struct Live {
    addr: SocketAddr,
    server: JoinHandle<()>,
}

fn start(workers: usize) -> Live {
    let server = Server::bind(
        ServerConfig {
            workers,
            scale: Scale::Small,
        },
        "127.0.0.1:0",
        None,
    )
    .expect("bind loopback server");
    let addr = server.tcp_addr().expect("server address");
    let server = std::thread::spawn(move || server.run().expect("server run"));
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("first ping");
    Live { addr, server }
}

fn stop(live: Live) {
    let mut c = Client::connect(live.addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    drop(c);
    live.server.join().expect("server thread");
}

/// Run one timed closure into `samples` when tracing.
fn timed<T>(samples: Option<&mut Samples>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    if let Some(s) = samples {
        s.push(t.elapsed().as_secs_f64());
    }
    v
}

/// One session; `Err` describes a failed op or a failed output check.
fn session(
    addr: SocketAddr,
    p: &Plan,
    opts: &Opts,
    mut ops: Option<&mut OpTimes>,
) -> Result<(), String> {
    let e = |what: &'static str| move |err: serve::ClientError| format!("{what}: {err}");
    let mut c = Client::connect(addr).map_err(|err| format!("connect: {err}"))?;
    let g = timed(ops.as_mut().map(|o| &mut o.spawn), || {
        c.spawn(p.app.id(), DEPTH, BACKLOG)
    })
    .map_err(e("spawn"))?;
    let mut accepted = 0;
    let mut injected = false;
    while accepted < p.frames {
        if !injected && accepted >= p.frames / 2 {
            if let Some(h) = reconfig_handle(p.app) {
                timed(ops.as_mut().map(|o| &mut o.inject), || {
                    c.inject(g, h.queue, h.event, h.full_payload)
                })
                .map_err(e("inject"))?;
            }
            injected = true;
        }
        let want = if injected { p.frames } else { p.frames / 2 } - accepted;
        accepted += timed(ops.as_mut().map(|o| &mut o.submit), || c.submit(g, want))
            .map_err(e("submit"))?;
    }
    let stats = timed(ops.as_mut().map(|o| &mut o.stats), || c.stats(g)).map_err(e("stats"))?;
    let drained = timed(ops.as_mut().map(|o| &mut o.drain), || c.drain(g)).map_err(e("drain"))?;
    // The self-test's wrong expectation: one frame more than accepted.
    let expected = accepted + opts.corrupt_reference as u64;
    let want = format!("\"submitted\":{accepted},\"completed\":{expected},");
    let healthy = |json: &str| json.contains("\"failure\":null");
    if !healthy(&stats) || !healthy(&drained) || !drained.contains(&want) {
        return Err(format!(
            "{} session: accepted {accepted}, drain reported {drained}",
            p.app.id()
        ));
    }
    Ok(())
}

struct Pass {
    sessions: Samples,
    wall: f64,
}

fn pass(
    live: &Live,
    opts: &Opts,
    budget: f64,
    mut ops: Option<&mut OpTimes>,
    out: &mut Outcome,
) -> Pass {
    let mut rng = Rng::new(opts.seed ^ 0x5e55);
    let mut sessions = Samples::new();
    let mut tried = 0;
    let mut probe = ops.is_some().then(|| {
        let mut c = Client::connect(live.addr).expect("connect probe");
        let g = c
            .spawn(App::Pip12.id(), DEPTH, BACKLOG)
            .expect("spawn probe graph");
        (c, g)
    });
    let start = Instant::now();
    let mut queue = Vec::new();
    while start.elapsed().as_secs_f64() < budget || tried < 3 {
        tried += 1;
        if queue.is_empty() {
            queue = round(&mut rng);
        }
        let p = queue.pop().expect("a planned session");
        if let (Some(o), Some((c, g))) = (ops.as_mut(), probe.as_mut()) {
            // Probe ops outside the session's own timing, on a
            // long-lived PiP-12 graph.
            let h = reconfig_handle(App::Pip12).expect("PiP-12 reconfigures");
            timed(Some(&mut o.ping), || c.ping()).expect("ping");
            timed(Some(&mut o.inject), || c.inject(*g, h.queue, h.event, 0)).expect("inject");
            timed(Some(&mut o.telemetry), || c.telemetry(FORMAT_JSON)).expect("telemetry");
        }
        out.attempted += 1;
        let t = Instant::now();
        match session(live.addr, &p, opts, ops.as_deref_mut()) {
            Ok(()) => sessions.push(t.elapsed().as_secs_f64()),
            Err(msg) => out.fail(msg),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    if let Some((mut c, g)) = probe {
        if let Err(err) = c.drain(g) {
            out.fail(format!("probe graph drain: {err}"));
        }
    }
    Pass { sessions, wall }
}

/// Bind, serve and answer a first ping `repeats` times (median = `setup_s`);
/// keep the last server and warm every app family once.
fn prepare(opts: &Opts, repeats: usize, out: &mut Outcome) -> (f64, Live) {
    let mut times = Vec::new();
    let mut live = None;
    for _ in 0..repeats {
        if let Some(l) = live.take() {
            stop(l);
        }
        let t = Instant::now();
        live = Some(start(opts.workers));
        times.push(t.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one set-up");
    for app in APPS {
        if let Err(msg) = session(live.addr, &Plan { app, frames: 8 }, opts, None) {
            out.fail(msg);
        }
    }
    (median_of(&times), live)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, live) = prepare(opts, 5, &mut out);
    out.metrics.set("setup_s", setup_s, "s");
    let mut p = pass(&live, opts, opts.seconds, None, &mut out);
    stop(live);
    out.metrics
        .set("throughput_per_s", p.sessions.len() as f64 / p.wall, "1/s");
    out.metrics
        .set_q("latency_p50_ms", p.sessions.quantile(0.5), 1e3, "ms");
    out.metrics
        .set_q("latency_p90_ms", p.sessions.quantile(0.9), 1e3, "ms");
    out
}

/// In-process timings of the spawn path the server runs per `Spawn`,
/// median over every app of the session mix.
fn spawn_path(m: &mut crate::common::Metrics) {
    let mut build = Samples::default();
    let mut compile = Samples::default();
    let mut check = Samples::default();
    let mut inst = Samples::default();
    let mut flat = Samples::default();
    for _ in 0..10 {
        for app in APPS {
            let cfg = AppConfig {
                app,
                scale: Scale::Small,
                frames: 0,
            };
            let built = timed(Some(&mut build), || build_isolated(cfg));
            let reg = registry(&built.assets);
            timed(Some(&mut compile), || {
                xspcl::compile(&built.xml, &reg).expect("shipped app compiles")
            });
            let diags = timed(Some(&mut check), || analyze::check_spec(&built.spec));
            assert!(
                !diags.has_errors(),
                "shipped app {} is analyze-clean",
                app.id()
            );
            let g = timed(Some(&mut inst), || {
                instantiate_graph_sized(&built.spec, DEPTH as usize)
            });
            timed(Some(&mut flat), || flatten(&g.root, &g.streams, 0));
        }
    }
    m.set_q("apps.build_isolated_ms", build.quantile(0.5), 1e3, "ms");
    m.set_q("xspcl.compile_us", compile.quantile(0.5), 1e6, "us");
    m.set_q("analyze.check_spec_us", check.quantile(0.5), 1e6, "us");
    m.set_q("graph.instantiate_us", inst.quantile(0.5), 1e6, "us");
    m.set_q("graph.flatten_us", flat.quantile(0.5), 1e6, "us");
}

/// The layer pass: untraced sessions, then sessions with every client op
/// timed, plus the in-process spawn-path timings.
pub fn layers(opts: &Opts, budget: f64) -> Outcome {
    let mut out = Outcome::default();
    let (_, live) = prepare(opts, 1, &mut out);
    let mut plain = pass(&live, opts, budget / 2.0, None, &mut out);
    let mut ops = OpTimes::default();
    let mut traced = pass(&live, opts, budget / 2.0, Some(&mut ops), &mut out);
    stop(live);
    let m = &mut out.metrics;
    let p50 = traced.sessions.quantile(0.5);
    m.set_q("wire.session_p50_ms", p50, 1e3, "ms");
    m.set(
        "wire.sessions_per_s",
        traced.sessions.len() as f64 / traced.wall,
        "1/s",
    );
    m.set(
        "trace.overhead_pct.wire-sessions",
        (p50.value / plain.sessions.median() - 1.0) * 100.0,
        "%",
    );
    m.set_q("serve.ping_rtt_us_p50", ops.ping.quantile(0.5), 1e6, "us");
    m.set_q("serve.spawn_ms_p50", ops.spawn.quantile(0.5), 1e3, "ms");
    m.set_q(
        "serve.submit_rtt_us_p50",
        ops.submit.quantile(0.5),
        1e6,
        "us",
    );
    m.set_q(
        "serve.inject_rtt_us_p50",
        ops.inject.quantile(0.5),
        1e6,
        "us",
    );
    m.set_q("serve.stats_rtt_us_p50", ops.stats.quantile(0.5), 1e6, "us");
    m.set_q("serve.drain_ms_p50", ops.drain.quantile(0.5), 1e3, "ms");
    m.set_q(
        "serve.telemetry_rtt_ms_p50",
        ops.telemetry.quantile(0.5),
        1e3,
        "ms",
    );
    spawn_path(m);
    out
}
