//! Building and running the paper's applications, for the benchmark
//! harness, the serving runtime and the examples.
//!
//! The paper's nine measured applications are enumerated by [`App`], and
//! [`AppConfig`] selects between the paper's full-size setup and a
//! reduced one for quick runs. As in the paper, where an application is
//! one XSPCL document whose slice counts and reconfiguration options are
//! parameters, every build goes through one entry, [`build_variant`]: a
//! [`Variant`] sets the slice count, JPiP fusion, externally driven
//! reconfiguration and whether the assets are private. [`build`] and
//! [`build_isolated`] are its two common defaults. [`run_sim`] executes
//! an app on a simulated SpaceCAKE tile with a given core count, and
//! [`sequential_cycles`] measures its hand-written sequential baseline on
//! the same cache model.
//!
//! Input videos are generated once per (app family, scale) and cached
//! process-wide — the generation and JPEG encoding are by far the most
//! expensive host-side steps.

use crate::registry::AppAssets;
use crate::{blur, jpip, pip};
use hinch::engine::{run_native, run_sim as hinch_run_sim, RunConfig};
use hinch::meter::Meter;
use hinch::report::{RunReport, SimReport};
use hinch::trace;
use parking_lot::Mutex;
use spacecake::{Machine, Solo, TileConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// The nine applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    Pip1,
    Pip2,
    Jpip1,
    Jpip2,
    Blur3,
    Blur5,
    /// PiP-12: second picture toggled every 12 frames.
    Pip12,
    /// JPiP-12.
    Jpip12,
    /// Blur-35: kernel switched every 12 frames.
    Blur35,
}

impl App {
    /// The six static applications of Fig. 8 / Fig. 9, in paper order.
    pub const STATIC: [App; 6] = [
        App::Pip1,
        App::Pip2,
        App::Jpip1,
        App::Jpip2,
        App::Blur3,
        App::Blur5,
    ];

    /// The three reconfigurable applications of Fig. 10.
    pub const RECONFIG: [App; 3] = [App::Pip12, App::Jpip12, App::Blur35];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            App::Pip1 => "PiP-1",
            App::Pip2 => "PiP-2",
            App::Jpip1 => "JPiP-1",
            App::Jpip2 => "JPiP-2",
            App::Blur3 => "Blur-3x3",
            App::Blur5 => "Blur-5x5",
            App::Pip12 => "PiP-12",
            App::Jpip12 => "JPiP-12",
            App::Blur35 => "Blur-35",
        }
    }

    /// Frames processed in the paper (§4: PiP and Blur process 96 frames;
    /// JPiP 24 because of limited simulation speed).
    pub fn paper_frames(&self) -> u64 {
        match self {
            App::Jpip1 | App::Jpip2 | App::Jpip12 => 24,
            _ => 96,
        }
    }

    /// All nine applications, static then reconfigurable.
    pub const ALL: [App; 9] = [
        App::Pip1,
        App::Pip2,
        App::Jpip1,
        App::Jpip2,
        App::Blur3,
        App::Blur5,
        App::Pip12,
        App::Jpip12,
        App::Blur35,
    ];

    /// Stable lower-case identifier (CLI / wire format).
    pub fn id(&self) -> &'static str {
        match self {
            App::Pip1 => "pip1",
            App::Pip2 => "pip2",
            App::Jpip1 => "jpip1",
            App::Jpip2 => "jpip2",
            App::Blur3 => "blur3",
            App::Blur5 => "blur5",
            App::Pip12 => "pip12",
            App::Jpip12 => "jpip12",
            App::Blur35 => "blur35",
        }
    }

    /// Parse an [`App::id`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<App> {
        let s = s.to_ascii_lowercase();
        App::ALL.into_iter().find(|a| a.id() == s)
    }

    /// The static applications whose average the paper divides a
    /// reconfigurable run by (Fig. 10).
    pub fn static_counterparts(&self) -> &'static [App] {
        match self {
            App::Pip12 => &[App::Pip1, App::Pip2],
            App::Jpip12 => &[App::Jpip1, App::Jpip2],
            App::Blur35 => &[App::Blur3, App::Blur5],
            _ => &[],
        }
    }
}

/// Scale of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's dimensions and slice counts.
    Paper,
    /// Reduced dimensions for tests and quick demos.
    Small,
}

/// One experiment: an app at a scale, for some number of frames.
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    pub app: App,
    pub scale: Scale,
    pub frames: u64,
}

impl AppConfig {
    /// The paper's configuration for `app`.
    pub fn paper(app: App) -> Self {
        Self {
            app,
            scale: Scale::Paper,
            frames: app.paper_frames(),
        }
    }

    /// A fast configuration for tests/demos.
    pub fn small(app: App) -> Self {
        Self {
            app,
            scale: Scale::Small,
            frames: 8,
        }
    }

    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }
}

#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
enum Family {
    Pip,
    Jpip,
    Blur,
}

impl App {
    fn family(&self) -> Family {
        match self {
            App::Pip1 | App::Pip2 | App::Pip12 => Family::Pip,
            App::Jpip1 | App::Jpip2 | App::Jpip12 => Family::Jpip,
            App::Blur3 | App::Blur5 | App::Blur35 => Family::Blur,
        }
    }
}

/// Process-wide input cache: videos are generated/encoded once per
/// (family, scale).
fn cached_assets(app: App, scale: Scale) -> Arc<AppAssets> {
    type AssetCache = HashMap<(Family, Scale), Arc<AppAssets>>;
    static CACHE: Mutex<Option<AssetCache>> = Mutex::new(None);
    let mut guard = CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((app.family(), scale)).or_default().clone()
}

/// A built application, ready to run. Its outputs land in the capture
/// set `"out"`.
pub struct Built {
    pub spec: hinch::GraphSpec,
    pub assets: Arc<AppAssets>,
    pub xml: String,
    /// Captured plane ports (3 for PiP/JPiP, 1 for Blur).
    pub capture_ports: usize,
}

/// How to build an app beyond its [`AppConfig`]: the XSPCL document's
/// parameters and where its assets live. The default is the paper's
/// document on the shared asset cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Data-parallel slice count; `None` keeps the scale's default
    /// ([`default_slices`]). The adaptation controller respawns a graph
    /// at a different parallelization this way.
    pub slices: Option<usize>,
    /// Tile-granular decode+IDCT fusion. JPiP apps only — fusion is the
    /// JPiP cache-tax fix; other families have no decode/IDCT boundary to
    /// fuse.
    pub fused: bool,
    /// Externally driven reconfiguration: the manager, options and event
    /// rules of a reconfig app are wired exactly as usual, but the
    /// in-graph injector's cadence is parked past any real run
    /// ([`EXTERNAL_RECONFIG_CADENCE`]), so the only reconfigurations are
    /// events delivered from outside (`Runtime::inject`). Static apps
    /// build unchanged.
    pub external_reconfig: bool,
    /// Build on a *private* asset set: the expensive generated input
    /// videos are adopted (refcount-only) from the process-wide cache, but
    /// captures are fresh and unshared, so any number of isolated
    /// instances can run concurrently — the serving runtime's mode.
    /// Otherwise the build shares the cache's capture buffers (cleared
    /// first): concurrent runs of the same family would clobber each
    /// other's outputs, so callers serialize (the conformance harness
    /// takes a run lock).
    pub isolated: bool,
}

/// Build `cfg.app` on the shared asset cache (the default [`Variant`]).
pub fn build(cfg: AppConfig) -> Built {
    build_variant(cfg, Variant::default())
}

/// Build `cfg.app` on a private asset set ([`Variant::isolated`]).
pub fn build_isolated(cfg: AppConfig) -> Built {
    build_variant(
        cfg,
        Variant {
            isolated: true,
            ..Variant::default()
        },
    )
}

/// Build `cfg.app` as variant `v`, reusing cached inputs.
pub fn build_variant(cfg: AppConfig, v: Variant) -> Built {
    let shared = cached_assets(cfg.app, cfg.scale);
    let assets = if v.isolated {
        // Warm the process-wide input cache once: generation/encoding is
        // the expensive step; the discarded spec elaboration is cheap.
        // Generation runs under the asset-map lock, so concurrent warms
        // don't duplicate.
        let _ = build_on(cfg, Variant::default(), shared.clone());
        let assets = AppAssets::new();
        assets.adopt_inputs(&shared);
        assets
    } else {
        // Fresh capture contents per build/run.
        shared.clear_captures();
        shared
    };
    build_on(cfg, v, assets)
}

/// Injector cadence that never fires within a real run (see
/// [`Variant::external_reconfig`]).
pub const EXTERNAL_RECONFIG_CADENCE: u64 = u64::MAX / 2;

/// How to reconfigure `app` from outside the graph: the manager queue,
/// the event kind, and the payloads that select the degraded / full
/// variant.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigHandle {
    pub queue: &'static str,
    pub event: &'static str,
    /// Payload selecting the cheap variant (ignored by toggle rules).
    pub degraded_payload: i64,
    /// Payload selecting the expensive variant.
    pub full_payload: i64,
    /// `true` if the manager rule *toggles* option state (send one event
    /// per change of mind), `false` if the payload *sets* it
    /// (idempotent).
    pub toggles: bool,
}

/// The external-reconfiguration handle of `app`, `None` for static apps.
/// Reconfig graphs spawn in their degraded variant (second picture
/// disabled / 3×3 kernel).
pub fn reconfig_handle(app: App) -> Option<ReconfigHandle> {
    match app {
        App::Pip12 | App::Jpip12 => Some(ReconfigHandle {
            queue: "mq",
            event: "flip",
            degraded_payload: 0,
            full_payload: 0,
            toggles: true,
        }),
        App::Blur35 => Some(ReconfigHandle {
            queue: "mq",
            event: "switch",
            degraded_payload: 3,
            full_payload: 5,
            toggles: false,
        }),
        _ => None,
    }
}

/// `app`'s family configuration at `scale`, before any [`Variant`]
/// applies: pictures (PiP-1 one, the others two) or kernel size (Blur-5x5
/// five, the others three). Reconfig apps start degraded and carry no
/// cadence yet.
enum FamilyConfig {
    Pip(pip::PipConfig),
    Jpip(jpip::JpipConfig),
    Blur(blur::BlurConfig),
}

fn family_config(app: App, scale: Scale) -> FamilyConfig {
    let paper = scale == Scale::Paper;
    match app.family() {
        Family::Pip => {
            let pips = if app == App::Pip1 { 1 } else { 2 };
            FamilyConfig::Pip(if paper {
                pip::PipConfig::paper(pips)
            } else {
                pip::PipConfig::small(pips)
            })
        }
        Family::Jpip => {
            let pips = if app == App::Jpip1 { 1 } else { 2 };
            FamilyConfig::Jpip(if paper {
                jpip::JpipConfig::paper(pips)
            } else {
                jpip::JpipConfig::small(pips)
            })
        }
        Family::Blur => {
            let ksize = if app == App::Blur5 { 5 } else { 3 };
            FamilyConfig::Blur(if paper {
                blur::BlurConfig::paper(ksize)
            } else {
                blur::BlurConfig::small(ksize)
            })
        }
    }
}

/// The scale's default data-parallel slice count for `app`'s family
/// (the reference point for slice-resizing candidates).
pub fn default_slices(app: App, scale: Scale) -> usize {
    match family_config(app, scale) {
        FamilyConfig::Pip(c) => c.slices,
        FamilyConfig::Jpip(c) => c.slices,
        FamilyConfig::Blur(c) => c.slices,
    }
}

/// Compile `cfg.app` as variant `v` against `assets` (`v.isolated` is
/// [`build_variant`]'s business).
fn build_on(cfg: AppConfig, v: Variant, assets: Arc<AppAssets>) -> Built {
    assert!(
        !v.fused || cfg.app.family() == Family::Jpip,
        "fusion applies to JPiP apps only"
    );
    // The paper's 12-frame stimulus, or parked for externally driven
    // graphs.
    let cadence = App::RECONFIG
        .contains(&cfg.app)
        .then_some(if v.external_reconfig {
            EXTERNAL_RECONFIG_CADENCE
        } else {
            12
        });
    let (spec, assets, xml, capture_ports) = match family_config(cfg.app, cfg.scale) {
        FamilyConfig::Pip(mut c) => {
            c.reconfig_every = cadence;
            c.slices = v.slices.unwrap_or(c.slices);
            let app = pip::build_on(&c, assets).expect("PiP compiles");
            (app.elaborated.spec, app.assets, app.xml, 3)
        }
        FamilyConfig::Jpip(mut c) => {
            c.reconfig_every = cadence;
            c.slices = v.slices.unwrap_or(c.slices);
            c.fuse = v.fused;
            let app = jpip::build_on(&c, assets).expect("JPiP compiles");
            (app.elaborated.spec, app.assets, app.xml, 3)
        }
        FamilyConfig::Blur(mut c) => {
            c.reconfig_every = cadence;
            c.slices = v.slices.unwrap_or(c.slices);
            let app = blur::build_on(&c, assets).expect("Blur compiles");
            (app.elaborated.spec, app.assets, app.xml, 1)
        }
    };
    Built {
        spec,
        assets,
        xml,
        capture_ports,
    }
}

/// Run `cfg.app` on a simulated tile with `cores` cores (the paper's
/// measurement mode). Pipeline depth 5, as in §4.
pub fn run_sim(cfg: AppConfig, cores: usize) -> SimReport {
    let built = build(cfg);
    let mut machine = Machine::new(TileConfig::with_cores(cores));
    let run_cfg = RunConfig::new(cfg.frames).pipeline_depth(5);
    hinch_run_sim(&built.spec, &run_cfg, &mut machine).expect("sim run")
}

/// Like [`run_sim`], but with a flight recorder attached: returns the
/// report plus the [`trace::Recorder`] holding the run's trace (virtual
/// cycles). Feed it to `hinch::trace::export` for Chrome-trace JSON, CSV
/// or a per-core utilization summary.
pub fn run_sim_traced(cfg: AppConfig, cores: usize) -> (SimReport, trace::Recorder) {
    let built = build(cfg);
    let mut machine = Machine::new(TileConfig::with_cores(cores));
    let recorder = trace::Recorder::new(trace::Clock::VirtualCycles);
    let run_cfg = RunConfig::new(cfg.frames)
        .pipeline_depth(5)
        .trace(recorder.sink());
    let report = hinch_run_sim(&built.spec, &run_cfg, &mut machine).expect("sim run");
    (report, recorder)
}

/// Run `cfg.app` on native worker threads (wall-clock mode) with a
/// flight recorder attached (wall-clock nanoseconds).
pub fn run_threads_traced(cfg: AppConfig, workers: usize) -> (RunReport, trace::Recorder) {
    let built = build(cfg);
    let recorder = trace::Recorder::new(trace::Clock::WallNanos);
    let run_cfg = RunConfig::new(cfg.frames)
        .pipeline_depth(5)
        .workers(workers)
        .trace(recorder.sink());
    let report = run_native(&built.spec, &run_cfg).expect("native run");
    (report, recorder)
}

/// Cycles of the hand-written sequential baseline of `cfg.app` on the
/// same (single-core) cache model. For Blur-35 the baseline switches
/// kernels on the paper's schedule; PiP-12/JPiP-12 have no dedicated
/// baseline (Fig. 10 normalizes against the static apps instead).
pub fn sequential_cycles(cfg: AppConfig) -> u64 {
    let built = build(cfg); // ensures the inputs exist
    let mut solo = Solo::new();
    let (_, cycles) = solo.run(|meter| run_baseline(cfg, &built.assets, meter));
    cycles
}

/// Execute the sequential baseline of `cfg.app` against `assets`,
/// charging `meter` (exposed for the benchmark harness).
pub fn run_baseline(cfg: AppConfig, assets: &Arc<AppAssets>, meter: &mut dyn Meter) {
    match family_config(cfg.app, cfg.scale) {
        FamilyConfig::Pip(c) => {
            let _ = pip::sequential(&c, assets, cfg.frames, meter);
        }
        FamilyConfig::Jpip(c) => {
            let _ = jpip::sequential(&c, assets, cfg.frames, meter);
        }
        FamilyConfig::Blur(c) if cfg.app == App::Blur35 => {
            let schedule = |i| blur::baseline_ksize(i, 12, 3);
            let _ = blur::sequential(&c, assets, cfg.frames, schedule, meter);
        }
        FamilyConfig::Blur(c) => {
            let ksize = c.ksize;
            let _ = blur::sequential(&c, assets, cfg.frames, |_| ksize, meter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_frames() {
        assert_eq!(App::Pip1.label(), "PiP-1");
        assert_eq!(App::Jpip2.paper_frames(), 24);
        assert_eq!(App::Blur3.paper_frames(), 96);
        assert_eq!(App::Pip12.static_counterparts(), &[App::Pip1, App::Pip2]);
    }

    #[test]
    fn sim_runs_every_small_app() {
        for app in App::STATIC {
            let cfg = AppConfig::small(app).frames(4);
            let r = run_sim(cfg, 2);
            assert_eq!(r.iterations, 4, "{}", app.label());
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn reconfig_apps_reconfigure_in_sim() {
        for app in App::RECONFIG {
            // reconfig every 12 frames; run 30 to see at least 2
            let cfg = AppConfig::small(app).frames(30);
            let r = run_sim(cfg, 2);
            assert_eq!(r.iterations, 30, "{}", app.label());
            assert!(
                r.reconfigs >= 1,
                "{} reconfigs = {}",
                app.label(),
                r.reconfigs
            );
            // Externally driven: the parked injector never fires.
            let external = Variant {
                external_reconfig: true,
                ..Variant::default()
            };
            let built = build_variant(cfg, external);
            let mut machine = Machine::new(TileConfig::with_cores(2));
            let run_cfg = RunConfig::new(cfg.frames).pipeline_depth(5);
            let r = hinch_run_sim(&built.spec, &run_cfg, &mut machine).unwrap();
            assert_eq!(r.iterations, 30, "{} external", app.label());
            assert_eq!(r.reconfigs, 0, "{} external", app.label());
        }
    }

    #[test]
    fn baseline_is_cheaper_or_similar_to_xspcl_at_one_core() {
        for app in [App::Pip1, App::Blur3] {
            let cfg = AppConfig::small(app).frames(6);
            let seq = sequential_cycles(cfg);
            let xspcl = run_sim(cfg, 1).cycles;
            assert!(seq > 0);
            // XSPCL carries the RTS overhead; it should not be faster by
            // much, nor absurdly slower.
            assert!(
                (xspcl as f64) > (seq as f64) * 0.8,
                "{}: xspcl {} vs seq {}",
                app.label(),
                xspcl,
                seq
            );
            assert!(
                (xspcl as f64) < (seq as f64) * 2.5,
                "{}: xspcl {} vs seq {}",
                app.label(),
                xspcl,
                seq
            );
        }
    }

    #[test]
    fn traced_sim_records_a_well_formed_trace() {
        let cfg = AppConfig::small(App::Pip1).frames(4);
        let (r, rec) = run_sim_traced(cfg, 2);
        assert_eq!(r.iterations, 4);
        assert!(!rec.is_empty());
        let events = rec.events();
        trace::check_invariants(&events).expect("trace invariants hold");
        let spans = events
            .iter()
            .filter(|e| matches!(e, trace::TraceEvent::JobSpan { .. }))
            .count();
        assert_eq!(spans as u64, r.jobs_executed);
    }

    #[test]
    fn more_cores_do_not_slow_down_much() {
        let cfg = AppConfig::small(App::Pip1).frames(6);
        let one = run_sim(cfg, 1).cycles;
        let four = run_sim(cfg, 4).cycles;
        assert!(four < one, "4 cores ({four}) should beat 1 core ({one})");
    }
}
