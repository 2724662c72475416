//! Shared pieces: seeded randomness, exact sample statistics, the
//! metric sink, seeded application builds and host provenance.

use apps::experiment::{App, Scale};
use apps::registry::AppAssets;
use apps::{blur, jpip, pip};
use conformance::fingerprint::{fnv1a64, Digest};
use hinch::GraphSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: the benchmark derives every input and arrival schedule
/// from `--seed` through this generator, so one seed is one input set.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }

    /// A derived seed for an independent stream (per app, per tenant).
    pub fn fork(&mut self) -> u64 {
        self.next_u64() >> 2
    }
}

/// Exact quantiles over raw samples (nearest rank: every reported
/// quantile is one of the samples, never a histogram bucket bound).
#[derive(Default)]
pub struct Samples(Vec<f64>);

/// One quantile with the sample support it stands on.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the quantile's rank.
    pub beyond: usize,
}

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn quantile(&mut self, q: f64) -> Quantile {
        let n = self.0.len();
        assert!(n > 0, "quantile of an empty sample set");
        self.0.sort_by(f64::total_cmp);
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Quantile {
            value: self.0[rank - 1],
            n,
            beyond: n - rank,
        }
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5).value
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Median of a small set of measurements (set-up repeats, window p99s).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples(values.to_vec());
    s.median()
}

/// Ordered metric sink. Once every output check has passed, each value
/// is printed on its own line with its unit (and, for a quantile, its
/// sample count and the count beyond it) before the final JSON object
/// carries the same values.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, Entry>,
}

struct Entry {
    value: f64,
    unit: &'static str,
    /// `(samples, beyond)` for a quantile.
    support: Option<(usize, usize)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let support = None;
        self.values.insert(
            name.into(),
            Entry {
                value,
                unit,
                support,
            },
        );
    }

    /// A quantile metric, kept with its sample support.
    pub fn set_q(&mut self, name: &str, q: Quantile, scale: f64, unit: &'static str) {
        let (value, support) = (q.value * scale, Some((q.n, q.beyond)));
        self.values.insert(
            name.to_string(),
            Entry {
                value,
                unit,
                support,
            },
        );
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(k, e)| {
                let (v, u) = (e.value, e.unit);
                match e.support {
                    Some((n, beyond)) => format!("metric {k} = {v} {u} (n={n} beyond={beyond})"),
                    None => format!("metric {k} = {v} {u}"),
                }
            })
            .collect()
    }

    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, e)| {
                let (v, u) = (num(e.value), e.unit);
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// JSON number with every digit `f64` carries.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v:?}")
}

/// What one workload pass hands back: its metrics plus the op counts
/// that feed the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (wrong digest, lost frame, failed graph).
    pub errors: Vec<String>,
    /// Peak RSS of child processes the pass ran, MB.
    pub child_rss_mb: f64,
    /// Human-readable findings, printed only when every check passed.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.failed += 1;
        self.errors.push(msg);
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.merge(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.child_rss_mb = self.child_rss_mb.max(other.child_rss_mb);
        self.notes.extend(other.notes);
    }
}

/// Global run options shared by every workload.
#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub workers: usize,
    /// Self-test hook: perturb every expected digest so the output
    /// checks must fail.
    pub corrupt_reference: bool,
}

impl Opts {
    /// The expected digest, perturbed under `corrupt_reference`.
    pub fn expect(&self, d: Digest) -> Digest {
        if self.corrupt_reference {
            Digest(d.0 ^ 1)
        } else {
            d
        }
    }
}

/// A seeded application build: the spec plus the asset set its capture
/// buffers live in.
pub struct Seeded {
    pub spec: GraphSpec,
    pub assets: Arc<AppAssets>,
    pub ports: usize,
}

/// Build `app` at `scale` with inputs generated from `seed`. With
/// `inputs`, the generated videos of an earlier build are adopted
/// (refcount only) and the captures stay private to this build.
pub fn build_app(
    app: App,
    scale: Scale,
    seed: u64,
    inputs: Option<&AppAssets>,
    fused: bool,
) -> Seeded {
    let assets = AppAssets::new();
    if let Some(src) = inputs {
        assets.adopt_inputs(src);
    }
    let paper = scale == Scale::Paper;
    match app {
        App::Pip1 | App::Pip2 | App::Pip12 => {
            let pips = if app == App::Pip1 { 1 } else { 2 };
            let mut c = if paper {
                pip::PipConfig::paper(pips)
            } else {
                pip::PipConfig::small(pips)
            };
            c.seed = seed;
            if app == App::Pip12 {
                c.reconfig_every = Some(12);
            }
            let a = pip::build_on(&c, assets).expect("PiP compiles");
            Seeded {
                spec: a.elaborated.spec,
                assets: a.assets,
                ports: 3,
            }
        }
        App::Jpip1 => {
            let mut c = if paper {
                jpip::JpipConfig::paper(1)
            } else {
                jpip::JpipConfig::small(1)
            };
            c.seed = seed;
            c.fuse = fused;
            let a = jpip::build_on(&c, assets).expect("JPiP compiles");
            Seeded {
                spec: a.elaborated.spec,
                assets: a.assets,
                ports: 3,
            }
        }
        App::Blur3 => {
            let mut c = if paper {
                blur::BlurConfig::paper(3)
            } else {
                blur::BlurConfig::small(3)
            };
            c.seed = seed;
            let a = blur::build_on(&c, assets).expect("Blur compiles");
            Seeded {
                spec: a.elaborated.spec,
                assets: a.assets,
                ports: 1,
            }
        }
        other => panic!("{} is not part of the benchmark", other.label()),
    }
}

impl Seeded {
    /// Take (and clear) everything captured so far, as `ports[p][frame]`.
    pub fn take_output(&self) -> Vec<Vec<Vec<u8>>> {
        self.assets
            .capture_set("out", self.ports)
            .iter()
            .map(|c| std::mem::take(&mut *c.lock()))
            .collect()
    }
}

/// One FNV-1a digest per output frame, over every port's bytes (the
/// per-frame form of `digest_ports`, for the admissibility rule).
pub fn frame_digests(ports: &[Vec<Vec<u8>>]) -> Vec<u64> {
    let frames = ports.first().map_or(0, Vec::len);
    (0..frames)
        .map(|i| {
            ports.iter().fold(ports.len() as u64, |h, p| {
                h.wrapping_mul(0x0000_0100_0000_01b3) ^ p.get(i).map_or(0, |f| fnv1a64(f))
            })
        })
        .collect()
}

/// The conformance admissibility rule for reconfiguring apps at
/// pipeline depth > 1: every frame equals the same frame of one static
/// counterpart (compared by per-frame digest).
pub fn admissible(output: &[u64], variants: &[Vec<u64>]) -> bool {
    output
        .iter()
        .enumerate()
        .all(|(i, d)| variants.iter().any(|v| v.get(i) == Some(d)))
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM readable from /proc/self/status")
}

/// Host and build provenance, printed before any number.
pub fn provenance(workload: &str, seed: u64, workers: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    println!("provenance available_parallelism={nproc}");
    println!("provenance cpu_model={cpu}");
    println!("provenance rustc={}", cmd("rustc", &["-V"]));
    println!("provenance git_head={}", cmd("git", &["rev-parse", "HEAD"]));
    println!("provenance workload={workload} seed={seed} workers={workers}");
}
