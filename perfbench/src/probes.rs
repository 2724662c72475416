//! Layer probes timed from outside through public entry points: one
//! `media` kernel call on a paper-scale plane, and the run-time system's
//! per-job glue cost (a 16-wide task of spin components through
//! `hinch::run_native`, where scheduling dominates).

use crate::common::{Opts, Outcome, Rng, Samples};
use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, RunConfig};
use hinch::graph::factory;
use hinch::{ComponentSpec, GraphSpec};
use media::jpeg::quant::Channel;
use media::jpeg::{decode_scan, encode_plane, idct_block_rows};
use media::video::{RawVideo, VideoSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time per call: repeat `f` for at least `budget`, median of calls.
fn per_call(budget: Duration, mut f: impl FnMut()) -> crate::common::Quantile {
    let mut s = Samples::new();
    let start = Instant::now();
    while start.elapsed() < budget || s.len() < 5 {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64());
    }
    s.quantile(0.5)
}

fn plane(w: usize, h: usize, seed: u64) -> Vec<u8> {
    RawVideo::generate(VideoSpec::new(w, h, 1, seed))
        .field(0, 0)
        .to_vec()
}

fn media(out: &mut Outcome, seed: u64) {
    let budget = Duration::from_millis(150);
    let m = &mut out.metrics;
    // PiP at paper scale: 720x576 background, picture scaled down by 4.
    let (w, h, k) = (720, 576, 4);
    let (pw, ph) = (w / k, h / k);
    let bg = plane(w, h, seed);
    let pic = plane(w, h, seed + 1);
    let mut small = vec![0u8; pw * ph];
    let q = per_call(budget, || {
        black_box(media::scale::downscale_rows(
            black_box(&pic),
            w,
            h,
            k,
            0..ph,
            &mut small,
        ));
    });
    m.set_q("media.downscale_us", q, 1e6, "us");
    let mut dst = vec![0u8; w * h];
    let q = per_call(budget, || {
        black_box(media::blend::blend_rows(
            black_box(&bg),
            w,
            &small,
            pw,
            ph,
            16,
            16,
            0..h,
            &mut dst,
        ));
    });
    m.set_q("media.blend_us", q, 1e6, "us");
    // Blur at paper scale: 360x288, 3x3 kernel, both phases.
    let (bw, bh) = (360, 288);
    let src = plane(bw, bh, seed + 2);
    let (mut tmp, mut blurred) = (vec![0u8; bw * bh], vec![0u8; bw * bh]);
    let q = per_call(budget, || {
        media::blur::blur_h_rows(black_box(&src), bw, bh, 3, 0..bh, &mut tmp);
        media::blur::blur_v_rows(&tmp, bw, bh, 3, 0..bh, &mut blurred);
        black_box(&blurred);
    });
    m.set_q("media.blur_us", q, 1e6, "us");
    // JPiP at paper scale: one 1280x720 luma plane.
    let (jw, jh) = (1280, 720);
    let scan = encode_plane(&plane(jw, jh, seed + 3), jw, jh, Channel::Luma, 75);
    let mut coefs = vec![0i16; jw * jh];
    let q = per_call(budget, || {
        black_box(decode_scan(
            black_box(&scan),
            jw,
            jh,
            Channel::Luma,
            75,
            &mut coefs,
        ));
    });
    m.set_q("media.jpeg_decode_us", q, 1e6, "us");
    let mut pixels = vec![0u8; jw * jh];
    let q = per_call(budget, || {
        black_box(idct_block_rows(black_box(&coefs), jw / 8, &mut pixels));
    });
    m.set_q("media.idct_us", q, 1e6, "us");
}

struct Spin(u64);

impl Component for Spin {
    fn class(&self) -> &'static str {
        "spin"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let mut x = self.0;
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        self.0 = black_box(x);
        ctx.charge(16);
    }
}

const GLUE_WIDTH: usize = 16;
const GLUE_ITERS: u64 = 2_000;

fn glue_spec(seed: u64) -> GraphSpec {
    GraphSpec::task(
        (0..GLUE_WIDTH)
            .map(|i| {
                let s = seed + i as u64;
                GraphSpec::Leaf(ComponentSpec::new(
                    format!("spin{i}"),
                    "spin",
                    factory(
                        move |_p: &Params| -> Box<dyn Component> { Box::new(Spin(s)) },
                        Params::new(),
                    ),
                ))
            })
            .collect(),
    )
}

/// Wall time per job of the spin task, median of 5 runs.
fn glue(spec: &GraphSpec, workers: usize, out: &mut Outcome) -> crate::common::Quantile {
    let mut s = Samples::new();
    for _ in 0..5 {
        let t = Instant::now();
        let r = run_native(spec, &RunConfig::new(GLUE_ITERS).workers(workers)).expect("glue run");
        let dt = t.elapsed();
        out.attempted += 1;
        if r.iterations != GLUE_ITERS || r.jobs_executed < GLUE_ITERS * GLUE_WIDTH as u64 {
            out.fail(format!(
                "glue run retired {} iterations, {} jobs",
                r.iterations, r.jobs_executed
            ));
        }
        s.push(dt.as_secs_f64() / r.jobs_executed.max(1) as f64);
    }
    s.quantile(0.5)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let seed = Rng::new(opts.seed).fork();
    media(&mut out, seed);
    let spec = glue_spec(seed);
    let q = glue(&spec, opts.workers, &mut out);
    out.metrics.set_q("engine.glue_ns_per_job", q, 1e9, "ns");
    let q = glue(&spec, 1, &mut out);
    out.metrics.set_q("engine.glue_ns_per_job_1w", q, 1e9, "ns");
    out
}
