//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper-batch|fleet-openloop|wire-sessions|sim-sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]
//! ```
//!
//! `--trace 0` runs the named workload untraced and prints its end-to-end
//! metrics. `--trace 1` runs the layer pass of every workload (an
//! untraced and a traced half each) and prints the per-layer metrics.
//! Output checks run before any number is printed; a failed check makes
//! the run fail instead of producing a figure.

mod batch;
mod common;
mod fleet;
mod probes;
mod sim;
mod wire;

use common::{peak_rss_mb, provenance, Opts, Outcome};

const WORKLOADS: [&str; 4] = [
    "paper-batch",
    "fleet-openloop",
    "wire-sessions",
    "sim-sweep",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(sim::CHILD_FLAG) {
        sim::child_main(&args[1..]);
        return;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok(),
            "--trace" => trace = Some(val()),
            "--corrupt-reference" => corrupt_reference = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    let traced = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    // Worker counts are the host's parallelism: no oversubscribed points.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed,
        seconds,
        workers,
        corrupt_reference,
    };
    provenance(&workload, seed, workers);

    let mut out = if traced {
        layer_pass(&opts)
    } else {
        let mut out = match workload.as_str() {
            "paper-batch" => batch::run(&opts),
            "fleet-openloop" => fleet::run(&opts),
            "wire-sessions" => wire::run(&opts),
            _ => sim::run(&opts),
        };
        let rss = peak_rss_mb().max(out.child_rss_mb);
        out.metrics.set("peak_rss_mb", rss, "MB");
        out
    };
    if out.attempted == 0 {
        out.fail("no operation was attempted".into());
    }
    let correct = out.errors.is_empty();
    let metrics = if correct {
        for line in out.notes.iter().chain(&out.metrics.lines()) {
            println!("{line}");
        }
        out.metrics.json()
    } else {
        "{}".to_string()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Every layer's numbers, whichever workload is named: the per-layer
/// metric set is the same in every traced run.
fn layer_pass(opts: &Opts) -> Outcome {
    let share = opts.seconds / 4.0;
    let mut out = Outcome::default();
    out.absorb(probes::run(opts));
    out.absorb(batch::layers(opts, share));
    out.absorb(fleet::layers(opts, share));
    out.absorb(wire::layers(opts, share));
    out.absorb(sim::layers(opts));
    out
}
