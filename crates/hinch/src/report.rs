//! Run reports returned by the engines.

use crate::meter::PlatformStats;
use std::collections::HashMap;
use std::time::Duration;

/// Result of a wall-clock run on the native engine.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Iterations completed.
    pub iterations: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Total jobs executed (components + manager invocations).
    pub jobs_executed: u64,
    /// Reconfigurations applied.
    pub reconfigs: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Busy time per worker (time inside job execution). With a trace
    /// sink attached, it equals the sum of the worker's job spans.
    pub core_busy: Vec<Duration>,
    /// Idle time per worker (time blocked waiting for a ready job);
    /// cross-checks the `insight` crate's stall attribution.
    pub core_idle: Vec<Duration>,
}

impl RunReport {
    /// Mean wall-clock time per iteration.
    pub fn per_iteration(&self) -> Duration {
        if self.iterations == 0 {
            Duration::ZERO
        } else {
            // Divide in nanoseconds: `Duration / u32` would silently
            // truncate iteration counts above `u32::MAX`.
            Duration::from_nanos((self.elapsed.as_nanos() / self.iterations as u128) as u64)
        }
    }
}

/// Per-node profile entry: how many jobs a graph node executed and the
/// cycles they cost (dispatch overhead included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeProfile {
    pub jobs: u64,
    pub cycles: u64,
}

impl NodeProfile {
    /// Mean cycles per invocation.
    pub fn mean(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cycles as f64 / self.jobs as f64
        }
    }
}

/// Result of a virtual-time run on the simulation engine.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Makespan in simulated cycles.
    pub cycles: u64,
    /// Iterations completed.
    pub iterations: u64,
    /// Total jobs executed.
    pub jobs_executed: u64,
    /// Reconfigurations applied.
    pub reconfigs: u64,
    /// Busy cycles per virtual core.
    pub core_busy: Vec<u64>,
    /// Idle cycles per virtual core. The engine maintains the identity
    /// `core_busy[c] + core_idle[c] == cycles` for every core, which the
    /// `insight` crate's stall attribution must reproduce exactly.
    pub core_idle: Vec<u64>,
    /// Cache / memory statistics from the platform.
    pub stats: PlatformStats,
    /// Cycles per graph node (instance label → profile). Feeds the
    /// performance predictor's calibration.
    pub per_node: HashMap<String, NodeProfile>,
}

impl SimReport {
    /// Fraction of core-cycles spent busy, in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.core_busy.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.core_busy.iter().sum();
        busy as f64 / (self.cycles as f64 * self.core_busy.len() as f64)
    }

    /// Speedup of this run relative to a reference cycle count.
    pub fn speedup_vs(&self, reference_cycles: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        reference_cycles as f64 / self.cycles as f64
    }

    /// Aggregate the per-node profile by a key function (e.g. component
    /// class prefixes), descending by cycles.
    pub fn profile_by<K: FnMut(&str) -> String>(&self, mut key: K) -> Vec<(String, NodeProfile)> {
        let mut agg: HashMap<String, NodeProfile> = HashMap::new();
        for (label, p) in &self.per_node {
            let e = agg.entry(key(label)).or_default();
            e.jobs += p.jobs;
            e.cycles += p.cycles;
        }
        let mut out: Vec<_> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_iteration_handles_zero() {
        let r = RunReport {
            iterations: 0,
            elapsed: Duration::from_secs(1),
            jobs_executed: 0,
            reconfigs: 0,
            workers: 1,
            core_busy: Vec::new(),
            core_idle: Vec::new(),
        };
        assert_eq!(r.per_iteration(), Duration::ZERO);
    }

    #[test]
    fn per_iteration_survives_huge_iteration_counts() {
        let r = RunReport {
            iterations: 10_000_000_000, // > u32::MAX
            elapsed: Duration::from_secs(100),
            jobs_executed: 0,
            reconfigs: 0,
            workers: 1,
            core_busy: Vec::new(),
            core_idle: Vec::new(),
        };
        assert_eq!(r.per_iteration(), Duration::from_nanos(10));
    }

    #[test]
    fn per_iteration_mean() {
        let r = RunReport {
            iterations: 4,
            elapsed: Duration::from_millis(100),
            jobs_executed: 12,
            reconfigs: 0,
            workers: 2,
            core_busy: Vec::new(),
            core_idle: Vec::new(),
        };
        assert_eq!(r.per_iteration(), Duration::from_millis(25));
    }

    #[test]
    fn utilization_and_speedup() {
        let r = SimReport {
            cycles: 100,
            iterations: 10,
            jobs_executed: 30,
            reconfigs: 0,
            core_busy: vec![100, 50],
            core_idle: vec![0, 50],
            stats: PlatformStats::default(),
            per_node: HashMap::new(),
        };
        assert!((r.utilization() - 0.75).abs() < 1e-12);
        assert!((r.speedup_vs(200) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn profile_aggregation() {
        let mut per_node = HashMap::new();
        per_node.insert(
            "main/a#0".to_string(),
            NodeProfile {
                jobs: 2,
                cycles: 10,
            },
        );
        per_node.insert(
            "main/a#1".to_string(),
            NodeProfile {
                jobs: 2,
                cycles: 30,
            },
        );
        per_node.insert(
            "main/b".to_string(),
            NodeProfile {
                jobs: 4,
                cycles: 15,
            },
        );
        let r = SimReport {
            cycles: 55,
            iterations: 2,
            jobs_executed: 8,
            reconfigs: 0,
            core_busy: vec![55],
            core_idle: vec![0],
            stats: PlatformStats::default(),
            per_node,
        };
        let agg = r.profile_by(|label| label.split('#').next().unwrap().to_string());
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].0, "main/a");
        assert_eq!(agg[0].1.jobs, 4);
        assert_eq!(agg[0].1.cycles, 40);
        assert_eq!(agg[1].1.mean(), 3.75);
    }
}
