//! The worker pool: one shared, long-lived pool of threads multiplexing
//! graph instances ("tenants"), each with its own lifecycle. It is the
//! only threaded engine — the serving front-end spawns many tenants on
//! it, and [`super::run_native`] spawns one, runs it to a fixed
//! iteration count and shuts the pool down:
//!
//! * **graph lifecycle** — [`Runtime::spawn`] instantiates a graph and
//!   registers it as a tenant, [`Runtime::submit`] feeds it frames,
//!   [`Runtime::drain`] blocks until every accepted frame retired and
//!   then tears the instance down, verifying that all stream ring slots
//!   were released;
//! * **work stealing** — per-worker bounded deques
//!   ([`super::pool::LocalQueue`]) with a global overflow
//!   [`super::pool::Injector`]: a worker pushes the jobs its completions
//!   ready onto its own ring and steals (oldest first) from a peer when it
//!   runs dry. The deques carry [`MJob`]s (graph id + [`JobRef`]) and
//!   stealing is oblivious to graph boundaries, so a backlogged tenant's
//!   jobs are picked up by whichever worker runs dry first;
//! * **atomic dependency tracking** ([`super::core::GraphCore`]) —
//!   publishing successors after a completion takes no lock;
//! * **event-count parking** ([`super::pool::EventCount`]) with one
//!   wake-up per published job, gated on spare hardware parallelism;
//! * **direct handoff** — a completion keeps one readied component job
//!   as its own next job, so the steady-state hot path runs whole
//!   iterations with no queue traffic and no wake-ups;
//! * **admission control** — each tenant bounds its in-flight frames
//!   (`max_backlog`); [`Runtime::submit`] accepts at most the spare
//!   backlog and reports how many frames it took, which is the
//!   backpressure signal a front-end propagates to clients (shed, buffer
//!   or slow down — never an unbounded internal queue);
//! * **reconfiguration over the wire** — [`Runtime::inject`] drops an
//!   [`Event`] into a named manager queue of a tenant; the manager's next
//!   entry invocation polls it and the quiesce/re-flatten machinery of
//!   [`super::core::GraphCore`] applies the reconfiguration;
//! * **failure isolation** — a panicking component marks *its* graph
//!   failed (structured lease-conflict reporting included); queued jobs of
//!   the failed graph are discarded and every other tenant keeps running;
//! * **schedule perturbation** — a tenant spawned by `run_native` under a
//!   seeded [`SchedPolicy`] orders each completion's readied jobs by
//!   [`SchedPolicy::key`] and publishes them all (no direct handoff);
//!   `Shuffle`/`Perturb` also start the steal sweep at a seeded victim.
//!   The conformance matrices thereby push this same scheduler into
//!   different corners of the schedule space;
//! * **one recording point** — `worker_loop` times each job and each park
//!   once. That one measurement feeds the worker's counters, the
//!   flight-recorder ring and, under `run_native` with a trace sink, the
//!   `JobSpan` or `CoreStall` event. Ring and trace share the pool's
//!   epoch. A park is classified only when a ring or a sink records it.

use super::core::{GraphCore, RetireHook, Window};
use super::pool::{EventCount, Injector, LocalQueue};
use crate::event::Event;
use crate::graph::flatten::flatten;
use crate::graph::instance::instantiate_graph_sized;
use crate::graph::GraphSpec;
use crate::sched::{splitmix64, JobRef, SchedPolicy};
use crate::sharedbuf::LeaseConflict;
use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Condvar, Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;
use trace::metrics::LogHistogram;
use trace::ring::{Ring, RingEvent, RingSet};
use trace::{StallCause, TraceEvent, TraceSink};

/// Handle to a spawned graph instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphId(pub u32);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Serving-runtime errors (distinct from [`crate::HinchError`]: these are
/// lifecycle/tenancy conditions, not graph-construction problems).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The graph id is unknown (never spawned, or already drained).
    UnknownGraph(u32),
    /// A [`Runtime::drain`] is in progress: admission is closed and the
    /// instance is on its way out.
    Draining(u32),
    /// No manager in the graph owns an event queue with this name.
    UnknownQueue(String),
    /// The graph failed mid-run; the payload is the failure description.
    GraphFailed(String),
    /// The runtime is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownGraph(id) => write!(f, "unknown graph g{id}"),
            ServeError::Draining(id) => write!(f, "graph g{id} is draining"),
            ServeError::UnknownQueue(q) => write!(f, "no manager queue named '{q}'"),
            ServeError::GraphFailed(msg) => write!(f, "graph failed: {msg}"),
            ServeError::Shutdown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Default per-worker flight-recorder capacity (slots). 4096 events at
/// 40 bytes/slot is 160 KiB per worker — cheap enough to stay always on.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Pool configuration for [`Runtime::new`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads shared by every tenant.
    pub workers: usize,
    /// Per-worker flight-recorder ring capacity (slots, rounded up to a
    /// power of two). 0 disables ring recording entirely — the
    /// telemetry-off baseline the serve bench compares against. The
    /// default is on ([`DEFAULT_RING_CAPACITY`]): the serving runtime's
    /// flight recorder is an always-on facility.
    pub ring_capacity: usize,
}

impl RuntimeConfig {
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    pub fn ring_capacity(mut self, slots: usize) -> Self {
        self.ring_capacity = slots;
        self
    }
}

/// Per-tenant configuration for [`Runtime::spawn`].
#[derive(Debug, Clone)]
pub struct SpawnOpts {
    /// Iterations kept in flight inside the graph (stream ring depth).
    pub pipeline_depth: usize,
    /// Maximum accepted-but-not-retired frames. [`Runtime::submit`]
    /// accepts at most the spare backlog — the backpressure bound.
    pub max_backlog: u64,
    /// Human-readable tenant label (app name), reported in [`GraphStats`].
    pub label: String,
}

impl SpawnOpts {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            pipeline_depth: 5,
            max_backlog: 32,
            label: label.into(),
        }
    }

    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    pub fn max_backlog(mut self, frames: u64) -> Self {
        self.max_backlog = frames.max(1);
        self
    }
}

/// Point-in-time snapshot of one tenant.
#[derive(Debug, Clone)]
pub struct GraphStats {
    pub id: GraphId,
    pub label: String,
    /// Frames accepted so far.
    pub submitted: u64,
    /// Frames retired so far.
    pub completed: u64,
    /// Accepted-but-not-retired frames.
    pub inflight: u64,
    /// Reconfiguration batches applied.
    pub reconfigs: u64,
    pub jobs_executed: u64,
    /// Frame latency (accept → retire), nanoseconds.
    pub latency_mean_ns: f64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
    /// Non-empty latency histogram buckets `(low, high, count)` — same
    /// power-of-two layout as [`LogHistogram`], so per-tenant histograms
    /// merge exactly into an aggregate (the load harness does this for a
    /// fleet-wide p99).
    pub latency_buckets: Vec<(u64, u64, u64)>,
    /// Frames offered to [`Runtime::submit`] but refused by admission
    /// control (the tenant's backlog was full) — the shed/rejection
    /// counter a front-end exports.
    pub shed: u64,
    /// Failure description, if the graph died.
    pub failure: Option<String>,
}

/// A job token in the shared pool: which graph, which job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MJob {
    graph: u32,
    job: JobRef,
}

/// Frame-latency clock and drain signalling, shared between the tenant
/// and its retire hook (separate struct to avoid an `Arc` cycle through
/// [`GraphCore`]'s hook).
struct FrameClock {
    /// Whether frames are timed at all: without it, `times` stays empty
    /// and `latency` records nothing.
    timed: bool,
    /// Accept timestamps, FIFO — retirements are processed in iteration
    /// order, which is exactly submit order (both advance under the
    /// tenant's admit lock).
    times: Mutex<VecDeque<Instant>>,
    /// Accept → retire latency per frame.
    latency: LogHistogram,
    /// Retired-frame count a blocked [`Runtime::drain`] waits for
    /// (`u64::MAX` while nobody drains). The retire hook wakes the drain
    /// only when retirement reaches it, not on every frame.
    target: AtomicU64,
    /// Guards the drain condition re-check. Lost-wakeup free: the drain
    /// stores `target` and then loads `completed` while holding this lock;
    /// the hook bumps `completed` before it loads `target` (all `SeqCst`),
    /// so at least one side sees the other, and a hook that sees the
    /// target notifies under this lock.
    gate: Mutex<()>,
    cv: Condvar,
}

impl FrameClock {
    fn new(timed: bool) -> Self {
        Self {
            timed,
            times: Mutex::new(VecDeque::new()),
            latency: LogHistogram::default(),
            target: AtomicU64::new(u64::MAX),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        let _g = self.gate.lock();
        self.cv.notify_all();
    }
}

/// Why a tenant failed: a component panic, kept structured when it is a
/// shared-buffer lease conflict (the scheduling-bug detector).
#[derive(Debug, Clone)]
pub(crate) enum Failure {
    LeaseConflict(LeaseConflict),
    Panic(String),
}

impl Failure {
    fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast::<LeaseConflict>() {
            Ok(conflict) => Failure::LeaseConflict(*conflict),
            Err(p) => Failure::Panic(match p.downcast::<String>() {
                Ok(msg) => *msg,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .unwrap_or(&"component panicked")
                    .to_string(),
            }),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::LeaseConflict(c) => write!(f, "{c}"),
            Failure::Panic(msg) => f.write_str(msg),
        }
    }
}

/// `run_native`'s per-tenant state: the policy that orders its schedule.
struct Solo {
    sched: SchedPolicy,
    /// Readiness sequence number fed to [`SchedPolicy::key`].
    seq: AtomicU64,
}

impl Solo {
    /// Order one completion's readied jobs by the policy's key.
    fn order(&self, jobs: &mut Vec<JobRef>) {
        let base = self.seq.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let mut keyed: Vec<_> = jobs
            .drain(..)
            .enumerate()
            .map(|(i, j)| (self.sched.key(j, base + i as u64), j))
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        jobs.extend(keyed.into_iter().map(|(_, j)| j));
    }
}

pub(super) struct Tenant {
    id: u32,
    label: String,
    max_backlog: u64,
    core: GraphCore,
    clock: Arc<FrameClock>,
    failure: Mutex<Option<Failure>>,
    /// Frames offered but refused by admission control.
    shed: AtomicU64,
    /// Set (under the admit lock) when a [`Runtime::drain`] starts:
    /// admission is closed, so the drain's quiescence wait cannot race a
    /// concurrent submit accepting frames into a tenant being torn down.
    draining: AtomicBool,
    /// Present only on `run_native`'s tenant.
    solo: Option<Solo>,
}

impl Tenant {
    /// Multi-tenant failure isolation: mark this graph failed, discard its
    /// queued jobs (the workers drop them on pop), wake drain waiters.
    /// The pool and every other tenant keep running.
    fn fail(&self, failure: Failure) {
        self.core.aborted.store(true, Ordering::SeqCst);
        self.failure.lock().get_or_insert(failure);
        self.clock.notify();
    }

    pub(super) fn failure(&self) -> Option<Failure> {
        self.failure.lock().clone()
    }

    fn stats(&self) -> GraphStats {
        let submitted = self.core.total.load(Ordering::SeqCst);
        let completed = self.core.completed.load(Ordering::SeqCst);
        GraphStats {
            id: GraphId(self.id),
            label: self.label.clone(),
            submitted,
            completed,
            inflight: submitted.saturating_sub(completed),
            reconfigs: self.core.reconfigs(),
            jobs_executed: self.core.jobs_executed.load(Ordering::Relaxed),
            latency_mean_ns: self.clock.latency.mean(),
            latency_p50_ns: self.clock.latency.quantile(0.50),
            latency_p99_ns: self.clock.latency.quantile(0.99),
            latency_buckets: self.clock.latency.nonzero_buckets(),
            shed: self.shed.load(Ordering::Relaxed),
            failure: self.failure.lock().as_ref().map(|f| f.to_string()),
        }
    }
}

/// Per-worker telemetry counters: relaxed atomics bumped only by the
/// owning worker (readers get an approximate-but-monotone view). Padded
/// to its own cache lines so neighbouring workers' per-job bumps do not
/// contend.
#[derive(Default)]
#[repr(align(128))]
struct WorkerStats {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    jobs: AtomicU64,
    parks: AtomicU64,
    steals: AtomicU64,
    /// Pool-epoch nanoseconds + 1 at which the current park began; 0
    /// while the worker runs. Lets `run_native` count a park in progress.
    parked_at: AtomicU64,
}

impl WorkerStats {
    /// Idle nanoseconds up to `now_ns` (pool epoch), including a park in
    /// progress. The worker clears `parked_at` before it adds the park to
    /// `idle_ns`, so a `parked_at` unchanged across the `idle_ns` read
    /// means the read saw no half-finished park.
    fn idle_at(&self, now_ns: u64) -> u64 {
        loop {
            let parked = self.parked_at.load(Ordering::SeqCst);
            let idle = self.idle_ns.load(Ordering::SeqCst);
            if self.parked_at.load(Ordering::SeqCst) == parked {
                return idle
                    + parked
                        .checked_sub(1)
                        .map_or(0, |p| now_ns.saturating_sub(p));
            }
        }
    }
}

/// Point-in-time per-worker counters, from [`Runtime::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    /// Time spent executing jobs, nanoseconds.
    pub busy_ns: u64,
    /// Time spent parked, nanoseconds.
    pub idle_ns: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Park (sleep) episodes.
    pub parks: u64,
    /// Jobs obtained by stealing from a peer's deque.
    pub steals: u64,
}

/// Point-in-time pool counters, from [`Runtime::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerTelemetry>,
    /// Jobs visibly queued (injector + local deques).
    pub queued_jobs: usize,
    /// Workers currently parked.
    pub idle_workers: usize,
    /// Nanoseconds since the runtime started (the flight-recorder
    /// timestamps share this epoch).
    pub uptime_ns: u64,
}

struct MultiShared {
    graphs: RwLock<HashMap<u32, Arc<Tenant>>>,
    locals: Box<[LocalQueue<MJob>]>,
    injector: Injector<MJob>,
    ec: EventCount,
    /// Workers not parked. Producers wake sleepers only while this is
    /// below `parallelism` (`min(workers, hardware threads)`): an
    /// oversubscribed wake-up buys no concurrency, it just burns a futex
    /// round-trip and a context switch.
    active: AtomicUsize,
    parallelism: usize,
    shutdown: AtomicBool,
    /// Common time base for flight-recorder timestamps and uptime.
    epoch: Instant,
    /// Always-on per-worker flight recorder (None when
    /// [`RuntimeConfig::ring_capacity`] is 0).
    rings: Option<Arc<RingSet>>,
    /// `run_native`'s trace sink: the workers' job spans and stalls, and
    /// its one tenant's scheduler events. None for a serving pool.
    trace: Option<Arc<dyn TraceSink>>,
    /// Per-worker busy/idle/steal/park counters (one slot per worker).
    wstats: Box<[WorkerStats]>,
}

impl MultiShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    /// The flight-recorder ring owned by the current worker thread, set
    /// on `worker_loop` entry. The per-frame retire hook runs on
    /// whichever worker performs the retirement; routing its events
    /// through this cell upholds the ring's single-writer contract.
    static WORKER_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

/// Record into the current worker's ring, if this thread is a
/// telemetry-enabled worker (no-op on client threads). The event is
/// built only when there is a ring to take it.
fn ring_record(ev: impl FnOnce() -> RingEvent) {
    WORKER_RING.with(|cell| {
        if let Some(ring) = cell.borrow().as_ref() {
            ring.record(ev());
        }
    });
}

/// Classify why a worker is about to park, from the tenants' admission
/// state (cold path — runs once per recorded park, right before the
/// sleep). Quiesce dominates (a reconfiguration is in flight), then
/// backpressure, then starvation; a pool with no unfinished work parks
/// as queue-empty. With one tenant (`run_native`) this is that tenant's
/// own cause.
fn classify_park(shared: &MultiShared) -> StallCause {
    let rank = |c: StallCause| match c {
        StallCause::Quiesce => 3,
        StallCause::Backpressure => 2,
        StallCause::Starvation => 1,
        StallCause::JobQueueEmpty => 0,
    };
    shared
        .graphs
        .read()
        .values()
        .filter(|t| !t.core.aborted.load(Ordering::Relaxed))
        .map(|t| t.core.wait_cause())
        .max_by_key(|&c| rank(c))
        .unwrap_or(StallCause::JobQueueEmpty)
}

impl MultiShared {
    /// Throttled wake for jobs published from *worker* context. Safe to
    /// skip the notify when `spare == 0` only because the pusher is an
    /// awake worker that drains its own ring and the injector before it
    /// parks — the published jobs always have at least one live consumer.
    fn wake(&self, jobs: usize) {
        let spare = self
            .parallelism
            .saturating_sub(self.active.load(Ordering::Relaxed));
        let n = jobs.min(spare);
        if n > 0 {
            self.ec.notify(n);
        }
    }

    /// Wake for jobs published by a *non-worker* thread
    /// ([`Runtime::submit`]). The spare-parallelism throttle above is not
    /// lost-wakeup free here: a client thread has no drain-before-park
    /// backstop, so if every worker sits between its pre-park re-check
    /// and its `active` decrement (`spare == 0`), a throttled wake would
    /// skip the notify and the submitted jobs would sit in the injector
    /// with the whole pool parked. Always bump the epoch so any worker
    /// mid-park re-checks the queues.
    fn wake_external(&self, jobs: usize) {
        self.ec.notify(jobs);
    }
}

/// Local pop → injector → steal sweep over the peers. Stealing is
/// graph-oblivious: the oldest job wins whoever owns it, which is what
/// keeps one backlogged tenant from starving the rest. The sweep starts
/// at the next peer, or at a seeded victim under a perturbing policy
/// (`sweep` holds its seed and attempt count).
fn find_work(shared: &MultiShared, wid: usize, sweep: &mut Option<(u64, u64)>) -> Option<MJob> {
    let me = &shared.locals[wid];
    if let Some(job) = me.pop() {
        return Some(job);
    }
    if let Some(job) = shared.injector.pop() {
        return Some(job);
    }
    let n = shared.locals.len();
    let first = match sweep {
        Some((seed, attempts)) => {
            *attempts += 1;
            splitmix64(*seed ^ splitmix64(*attempts)) as usize % n
        }
        None => wid + 1,
    };
    for off in 0..n {
        // `first + off < 2n`: wrap by subtraction, not division.
        let victim = first + off - if first + off >= n { n } else { 0 };
        if victim == wid {
            continue;
        }
        if let Some(job) = shared.locals[victim].steal() {
            let steals = &shared.wstats[wid].steals;
            steals.store(steals.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: &MultiShared, wid: u32) {
    let me = &shared.locals[wid as usize];
    let ws = &shared.wstats[wid as usize];
    let ring = shared.rings.as_ref().map(|rs| rs.ring(wid as usize));
    if let Some(r) = &ring {
        WORKER_RING.with(|cell| *cell.borrow_mut() = Some(Arc::clone(r)));
    }
    // Whether jobs and parks leave events (the counters are always kept).
    let recorded = ring.is_some() || shared.trace.is_some();
    let mut ready: Vec<JobRef> = Vec::new();
    let mut seeded: Vec<JobRef> = Vec::new();
    // Per-worker caches, borrowed per job and dropped before parking so
    // an idle pool holds no served tenant's references (deterministic
    // teardown — see `Runtime::drain`).
    let mut tcache: Option<(u32, Arc<Tenant>)> = None;
    let mut wcache: Option<(u64, Arc<Window>)> = None;
    let mut handoff: Option<MJob> = None;
    let mut sweep: Option<(u64, u64)> = None;
    loop {
        let mj = if let Some(mj) = handoff.take() {
            mj
        } else {
            loop {
                if let Some(mj) = find_work(shared, wid as usize, &mut sweep) {
                    break mj;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Park: register interest, re-check everything, sleep.
                let epoch = shared.ec.prepare();
                if let Some(mj) = find_work(shared, wid as usize, &mut sweep) {
                    break mj;
                }
                tcache = None;
                wcache = None;
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Telemetry: classify the stall *at park time* (the
                // tenants' admission state explains why there is no
                // work), time the sleep, and record it when it ends.
                let cause = recorded.then(|| classify_park(shared));
                let parked = Instant::now();
                let parked_ns = parked.duration_since(shared.epoch).as_nanos() as u64;
                ws.parked_at.store(parked_ns + 1, Ordering::SeqCst);
                shared.active.fetch_sub(1, Ordering::Relaxed);
                shared.ec.wait(epoch);
                shared.active.fetch_add(1, Ordering::Relaxed);
                let idle = parked.elapsed().as_nanos() as u64;
                ws.parked_at.store(0, Ordering::SeqCst);
                ws.idle_ns.fetch_add(idle, Ordering::SeqCst);
                ws.parks.fetch_add(1, Ordering::Relaxed);
                if let Some(cause) = cause {
                    let (start, end) = (parked_ns, parked_ns + idle);
                    if let Some(r) = &ring {
                        r.record(RingEvent::Stall {
                            worker: wid,
                            cause,
                            start,
                            end,
                        });
                    }
                    if let Some(sink) = &shared.trace {
                        sink.record(TraceEvent::CoreStall {
                            core: wid,
                            cause,
                            start,
                            end,
                        });
                    }
                }
            }
        };
        if tcache.as_ref().map(|(id, _)| *id) != Some(mj.graph) {
            tcache = None;
            wcache = None;
            match shared.graphs.read().get(&mj.graph) {
                Some(t) => {
                    // Shuffle/Perturb start each steal sweep at a seeded victim.
                    sweep = match t.solo.as_ref().map(|s| s.sched) {
                        Some(SchedPolicy::Shuffle(seed) | SchedPolicy::Perturb(seed)) => {
                            Some((seed, 0))
                        }
                        _ => None,
                    };
                    tcache = Some((mj.graph, Arc::clone(t)));
                }
                // Graph already torn down (failed + drained): discard.
                None => continue,
            }
        }
        let Some((_, tenant)) = &tcache else {
            unreachable!("tenant cached above")
        };
        let g = &tenant.core;
        if g.aborted.load(Ordering::Acquire) {
            continue; // failed graph: discard its queued jobs
        }
        // The in-flight job pins its graph's window; re-validate the
        // cached Arc against the per-graph version.
        let version = g.window_version.load(Ordering::Acquire);
        if wcache.as_ref().map(|(v, _)| *v) != Some(version) {
            // SAFETY: holding an in-flight job popped after the swap.
            wcache = Some((version, unsafe { g.load_window() }));
        }
        let Some((_, window)) = &wcache else {
            unreachable!("window cached above")
        };
        // `run_native` under a seeded policy.
        let perturb = tenant
            .solo
            .as_ref()
            .filter(|s| s.sched != SchedPolicy::Default);
        let started = Instant::now();
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| g.execute(window, mj.job, &mut ready)));
        match result {
            Ok(retired) => {
                let busy = started.elapsed().as_nanos() as u64;
                // Single writer (this worker): plain stores, no locked RMW.
                ws.jobs
                    .store(ws.jobs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                let busy_ns = ws.busy_ns.load(Ordering::Relaxed) + busy;
                ws.busy_ns.store(busy_ns, Ordering::Relaxed);
                if recorded {
                    let start = started.duration_since(shared.epoch).as_nanos() as u64;
                    let end = start + busy;
                    if let Some(r) = &ring {
                        r.record(RingEvent::Job {
                            graph: mj.graph,
                            node: mj.job.idx,
                            start,
                            end,
                        });
                    }
                    if let Some(sink) = &shared.trace {
                        let kind = &window.dag.jobs[mj.job.idx as usize].kind;
                        sink.record(TraceEvent::JobSpan {
                            label: kind.label(),
                            kind: kind.span_kind(),
                            iter: mj.job.iter,
                            core: wid,
                            start,
                            end,
                            cycles: 0,
                            cache: None,
                        });
                    }
                }
                match perturb {
                    // Perturbed schedule: publish every readied job in
                    // policy order, hand none off.
                    Some(solo) => solo.order(&mut ready),
                    // Direct handoff of a readied component job —
                    // slice-affine first, else oldest (policy in
                    // `Dag::handoff_pick`); the handoff never crosses a
                    // graph boundary (successors share the completer's
                    // graph).
                    None => {
                        handoff = window.dag.handoff_pick(mj.job.idx, &ready).map(|pos| MJob {
                            graph: mj.graph,
                            job: ready.remove(pos),
                        })
                    }
                }
                let published = ready.len();
                for job in ready.drain(..) {
                    let graph = mj.graph;
                    me.push(MJob { graph, job }, &shared.injector);
                }
                if published > 0 {
                    shared.wake(published);
                }
                if let Some(iter) = retired {
                    g.retire(iter, &mut seeded);
                    if !seeded.is_empty() {
                        if let Some(solo) = perturb {
                            solo.order(&mut seeded);
                        }
                        let n = seeded.len();
                        shared.injector.push_many(seeded.drain(..).map(|job| MJob {
                            graph: mj.graph,
                            job,
                        }));
                        shared.wake(n);
                    }
                }
            }
            Err(payload) => {
                // A panic does not take the pool down: the graph is
                // marked failed and isolated.
                ready.clear();
                handoff = None;
                tenant.fail(Failure::from_panic(payload));
            }
        }
    }
}

/// The shared serving runtime: one worker pool, many graph instances.
pub struct Runtime {
    shared: Arc<MultiShared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    next_id: AtomicU32,
}

impl Runtime {
    /// Start a pool of `cfg.workers` threads. The pool idles (parked, no
    /// CPU) until the first submission.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let rt = Self::unstarted(cfg, None);
        rt.start();
        rt
    }

    /// A pool whose workers are not spawned yet, recording into `trace`
    /// if given. `run_native` queues its run first and then starts the
    /// workers into it, the way a fresh run begins, instead of waking a
    /// pool parked in advance.
    pub(super) fn unstarted(cfg: RuntimeConfig, trace: Option<Arc<dyn TraceSink>>) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(MultiShared {
            graphs: RwLock::new(HashMap::new()),
            locals: (0..workers).map(|_| LocalQueue::new()).collect(),
            injector: Injector::new(),
            ec: EventCount::new(),
            active: AtomicUsize::new(workers),
            parallelism: workers.min(crate::sync::hardware_parallelism(workers)),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            rings: (cfg.ring_capacity > 0)
                .then(|| Arc::new(RingSet::new(workers, cfg.ring_capacity))),
            trace,
            wstats: (0..workers).map(|_| WorkerStats::default()).collect(),
        });
        Self {
            shared,
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
        }
    }

    /// Spawn the worker threads of an [`Runtime::unstarted`] pool.
    pub(super) fn start(&self) {
        let handles = (0..self.shared.locals.len()).map(|i| {
            let shared = Arc::clone(&self.shared);
            thread::Builder::new()
                .name(format!("hinch-serve-{i}"))
                .spawn(move || worker_loop(&shared, i as u32))
                .expect("spawn worker")
        });
        self.workers.lock().extend(handles);
    }

    pub(super) fn get(&self, id: GraphId) -> Result<Arc<Tenant>, ServeError> {
        self.shared
            .graphs
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(ServeError::UnknownGraph(id.0))
    }

    /// Instantiate `spec` as a new tenant. The graph is live immediately
    /// but runs nothing until [`Runtime::submit`] accepts frames.
    pub fn spawn(&self, spec: &GraphSpec, opts: SpawnOpts) -> Result<GraphId, ServeError> {
        self.spawn_tenant(spec, opts, None)
    }

    /// [`Runtime::spawn`], or with `solo` set, `run_native`'s tenant
    /// under that schedule policy.
    pub(super) fn spawn_tenant(
        &self,
        spec: &GraphSpec,
        opts: SpawnOpts,
        solo: Option<SchedPolicy>,
    ) -> Result<GraphId, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let depth = opts.pipeline_depth.max(1);
        let inst = instantiate_graph_sized(spec, depth);
        let dag = Arc::new(flatten(&inst.root, &inst.streams, 0));
        // `run_native` reads no frame latency.
        let clock = Arc::new(FrameClock::new(solo.is_none()));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let hook: RetireHook = {
            let clock = Arc::clone(&clock);
            let epoch = self.shared.epoch;
            Box::new(move |iter| {
                let accepted = clock.timed.then(|| clock.times.lock().pop_front());
                if let Some(at) = accepted.flatten() {
                    let latency = at.elapsed().as_nanos() as u64;
                    clock.latency.record(latency);
                    // The hook runs on the retiring worker's thread, so
                    // this lands on that worker's single-writer ring.
                    ring_record(|| RingEvent::Retire {
                        graph: id,
                        iter: iter as u32,
                        at: epoch.elapsed().as_nanos() as u64,
                        latency,
                    });
                }
                // `completed` is already `iter + 1` (see FrameClock::gate).
                if iter + 1 >= clock.target.load(Ordering::SeqCst) {
                    clock.notify();
                }
            })
        };
        let solo = solo.map(|sched| Solo {
            sched,
            seq: AtomicU64::new(0),
        });
        let trace = self.shared.trace.clone();
        let epoch = self.shared.epoch;
        let core = GraphCore::new(inst, dag, depth as u64, 0, trace, epoch, Some(hook));
        let tenant = Arc::new(Tenant {
            id,
            label: opts.label,
            max_backlog: opts.max_backlog.max(1),
            core,
            clock,
            failure: Mutex::new(None),
            shed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            solo,
        });
        self.shared.graphs.write().insert(id, tenant);
        Ok(GraphId(id))
    }

    /// Offer `n` frames to graph `id`. Accepts at most the tenant's spare
    /// backlog and returns the accepted count — the backpressure signal
    /// (0 means "shed or retry later", never "queued unboundedly").
    pub fn submit(&self, id: GraphId, n: u64) -> Result<u64, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let tenant = self.get(id)?;
        if let Some(failure) = tenant.failure.lock().as_ref() {
            return Err(ServeError::GraphFailed(failure.to_string()));
        }
        if n == 0 {
            return Ok(0);
        }
        let g = &tenant.core;
        let mut seeded = Vec::new();
        let accepted;
        {
            let _st = g.admit.lock();
            // The draining flag is set under this same lock, so either
            // this submit's frames land before the drain's quiescence
            // wait begins (and are waited for), or the submit is refused.
            if tenant.draining.load(Ordering::SeqCst) {
                return Err(ServeError::Draining(id.0));
            }
            let total = g.total.load(Ordering::Relaxed);
            let completed = g.completed.load(Ordering::Relaxed);
            let backlog = total - completed;
            accepted = n.min(tenant.max_backlog.saturating_sub(backlog));
            if accepted < n {
                tenant.shed.fetch_add(n - accepted, Ordering::Relaxed);
            }
            if accepted == 0 {
                return Ok(0);
            }
            if tenant.clock.timed {
                // Timestamps go in *before* the total grows: the retire
                // hook (same admit lock) can then never pop an empty deque.
                let now = Instant::now();
                let mut times = tenant.clock.times.lock();
                for _ in 0..accepted {
                    times.push_back(now);
                }
            }
            g.total.store(total + accepted, Ordering::SeqCst);
            // While halted (mid-quiesce) admission stays closed; the
            // quiesce resume admits from the raised total instead.
            if !g.halted.load(Ordering::SeqCst) {
                // SAFETY: admit lock held.
                let window = unsafe { g.load_window() };
                g.admit_more(&window, &mut seeded);
            }
        }
        if !seeded.is_empty() {
            let jobs = seeded.len();
            self.shared
                .injector
                .push_many(seeded.into_iter().map(|job| MJob { graph: id.0, job }));
            // Model-mode fault regression: with the fault armed, use the
            // worker-context throttled wake here instead — the exact bug
            // `wake_external` exists to fix. The model checker must find
            // the whole-pool-parked stranding (see sync::faults).
            #[cfg(hinch_model)]
            if crate::sync::faults::throttled_submit_wake() {
                self.shared.wake(jobs);
            } else {
                self.shared.wake_external(jobs);
            }
            #[cfg(not(hinch_model))]
            self.shared.wake_external(jobs);
        }
        Ok(accepted)
    }

    /// Drop `event` into the manager queue named `queue` of graph `id`
    /// (reconfiguration over the wire). The event takes effect when the
    /// manager's entry job next polls the queue — i.e. with the next
    /// frame flowing through the graph.
    pub fn inject(&self, id: GraphId, queue: &str, event: Event) -> Result<(), ServeError> {
        let tenant = self.get(id)?;
        let mut mgrs = Vec::new();
        tenant.core.inst.root.collect_managers(&mut mgrs);
        let q = mgrs
            .iter()
            .find(|m| m.queue.name() == queue)
            .map(|m| m.queue.clone())
            .ok_or_else(|| ServeError::UnknownQueue(queue.to_string()))?;
        q.send(event);
        Ok(())
    }

    /// Snapshot one tenant.
    pub fn stats(&self, id: GraphId) -> Result<GraphStats, ServeError> {
        Ok(self.get(id)?.stats())
    }

    /// Snapshot every tenant, ordered by graph id.
    pub fn all_stats(&self) -> Vec<GraphStats> {
        let mut all: Vec<GraphStats> = self
            .shared
            .graphs
            .read()
            .values()
            .map(|t| t.stats())
            .collect();
        all.sort_by_key(|s| s.id.0);
        all
    }

    /// Block until every accepted frame of `id` retired, then tear the
    /// instance down. Verifies on the way out that the drained graph
    /// released every stream ring slot (the stream rings are part of the
    /// tenant, but a leaked BUSY/FULL slot would mean a completer raced
    /// past retirement — the invariant the core's in-order retirement
    /// protocol exists to protect).
    ///
    /// Returns the tenant's final stats. A failed graph is torn down too,
    /// but reported as [`ServeError::GraphFailed`].
    pub fn drain(&self, id: GraphId) -> Result<GraphStats, ServeError> {
        let tenant = self.get(id)?;
        // Close admission first (under the admit lock, which serializes
        // against in-flight submits): any submit that already accepted
        // frames raised `total` before we get here, so the quiescence
        // wait below covers them; any later submit is refused. Without
        // this, a racing submit could accept frames between the
        // quiescence check and the teardown — frames the workers would
        // silently discard once the graph leaves the map.
        // Model-mode fault regression: with the fault armed, leave
        // admission open — the original bug this close exists to fix. The
        // model checker must find the accepted-then-discarded frame (the
        // teardown leak asserts below fire). See sync::faults.
        #[cfg(hinch_model)]
        let close_admission = !crate::sync::faults::drain_skips_admission_close();
        #[cfg(not(hinch_model))]
        let close_admission = true;
        if close_admission {
            let _st = tenant.core.admit.lock();
            tenant.draining.store(true, Ordering::SeqCst);
        }
        {
            let mut gate = tenant.clock.gate.lock();
            loop {
                if tenant.failure.lock().is_some() {
                    break;
                }
                let total = tenant.core.total.load(Ordering::SeqCst);
                // Ask the retire hook for a wake-up at `total`, then
                // re-check (see FrameClock::gate for why none is lost).
                tenant.clock.target.store(total, Ordering::SeqCst);
                let completed = tenant.core.completed.load(Ordering::SeqCst);
                if completed >= total {
                    break;
                }
                tenant.clock.cv.wait(&mut gate);
            }
        }
        // Teardown: unregister first so new submits/stats see a consistent
        // "gone" state, then verify resource release.
        self.shared.graphs.write().remove(&id.0);
        let stats = tenant.stats();
        if let Some(msg) = stats.failure.clone() {
            return Err(ServeError::GraphFailed(msg));
        }
        for stream in tenant.core.inst.streams.lock().values() {
            assert_eq!(
                stream.live_slots(),
                0,
                "drained graph {id} leaked ring slots on stream '{}'",
                stream.name()
            );
        }
        assert!(
            tenant.clock.times.lock().is_empty(),
            "drained graph {id} leaked frame timestamps"
        );
        Ok(stats)
    }

    /// Live tenant count.
    pub fn graph_count(&self) -> usize {
        self.shared.graphs.read().len()
    }

    /// Jobs queued in the pool (injector + local rings). Exact only while
    /// the pool is quiescent; used by teardown/baseline checks.
    pub fn queued_jobs(&self) -> usize {
        self.shared.injector.len() + self.shared.locals.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Per-worker (busy, idle) nanoseconds so far, a park in progress
    /// included (`run_native`'s report).
    pub(super) fn worker_times(&self) -> Vec<(u64, u64)> {
        let now = self.shared.now_ns();
        self.shared
            .wstats
            .iter()
            .map(|w| (w.busy_ns.load(Ordering::Relaxed), w.idle_at(now)))
            .collect()
    }

    /// Workers currently parked.
    pub fn idle_workers(&self) -> usize {
        self.shared.ec.sleepers()
    }

    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// The per-worker flight recorder, when enabled
    /// ([`RuntimeConfig::ring_capacity`] > 0). Consumers keep their own
    /// cursor set (`rings().cursors()`) and call `snapshot` on it —
    /// draining never pauses the workers.
    pub fn rings(&self) -> Option<Arc<RingSet>> {
        self.shared.rings.clone()
    }

    /// Point-in-time per-worker and pool counters (busy/idle time,
    /// jobs, parks, steals, queue depth). Relaxed reads: monotone but
    /// approximate while the pool is running.
    pub fn telemetry(&self) -> PoolTelemetry {
        PoolTelemetry {
            workers: self
                .shared
                .wstats
                .iter()
                .map(|w| WorkerTelemetry {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    jobs: w.jobs.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                    steals: w.steals.load(Ordering::Relaxed),
                })
                .collect(),
            queued_jobs: self.queued_jobs(),
            idle_workers: self.idle_workers(),
            uptime_ns: self.shared.now_ns(),
        }
    }

    /// Stop the pool: no new spawns/submits, workers exit once their
    /// queues run dry (in-flight frames of undrained graphs are
    /// abandoned). Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ec.notify_all();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::graph::testutil::leaf;
    use crate::graph::{GraphSpec, ManagerSpec};
    use crate::manager::EventAction;
    use std::time::Duration;

    fn pipeline_spec() -> GraphSpec {
        GraphSpec::seq(vec![
            leaf("src", &[], &["a"], 1),
            leaf("mid", &["a"], &["b"], 0),
            leaf("snk", &["b"], &[], 0),
        ])
    }

    fn managed_spec(queue: &EventQueue) -> GraphSpec {
        let mgr = ManagerSpec::new("m", queue.clone())
            .on("flip", vec![EventAction::Toggle("extra".into())]);
        GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                leaf("src", &[], &["a"], 1),
                GraphSpec::option("extra", false, leaf("opt", &["a"], &["c"], 0)),
                leaf("snk", &["a"], &[], 0),
            ]),
        )
    }

    #[test]
    fn single_graph_runs_to_completion() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(3))
            .unwrap();
        let accepted = rt.submit(id, 10).unwrap();
        assert_eq!(accepted, 10);
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.jobs_executed, 30);
        assert!(stats.latency_p99_ns > 0);
        assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn admission_control_bounds_backlog() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(
                &pipeline_spec(),
                SpawnOpts::new("pipe").pipeline_depth(2).max_backlog(4),
            )
            .unwrap();
        // A single offer can never exceed the backlog bound.
        let first = rt.submit(id, 100).unwrap();
        assert!(first <= 4, "accepted {first} > max_backlog");
        // Offers keep being accepted as frames retire; the sum converges.
        let mut total = first;
        while total < 20 {
            total += rt.submit(id, 20 - total).unwrap();
            thread::yield_now();
        }
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 20);
        rt.shutdown();
    }

    #[test]
    fn many_graphs_share_the_pool() {
        let rt = Runtime::new(RuntimeConfig::new(4));
        let ids: Vec<GraphId> = (0..8)
            .map(|i| {
                rt.spawn(
                    &pipeline_spec(),
                    SpawnOpts::new(format!("pipe-{i}")).pipeline_depth(2),
                )
                .unwrap()
            })
            .collect();
        for &id in &ids {
            assert_eq!(rt.submit(id, 6).unwrap(), 6);
        }
        for &id in &ids {
            let stats = rt.drain(id).unwrap();
            assert_eq!(stats.completed, 6, "graph {id}");
        }
        assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn inject_reconfigures_over_the_manager_queue() {
        let queue = EventQueue::new("mq");
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&managed_spec(&queue), SpawnOpts::new("managed"))
            .unwrap();
        rt.submit(id, 4).unwrap();
        rt.drain_frames(id, 4);
        rt.inject(id, "mq", Event::new("flip")).unwrap();
        // The event is polled by the next frame's manager entry.
        rt.submit(id, 4).unwrap();
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.reconfigs, 1, "flip applied at quiescence");
        assert!(
            rt.inject(id, "mq", Event::new("flip")).is_err(),
            "drained graph rejects injection"
        );
        rt.shutdown();
    }

    #[test]
    fn unknown_targets_are_reported() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        assert_eq!(rt.submit(GraphId(99), 1), Err(ServeError::UnknownGraph(99)));
        let queue = EventQueue::new("mq");
        let id = rt
            .spawn(&managed_spec(&queue), SpawnOpts::new("managed"))
            .unwrap();
        assert_eq!(
            rt.inject(id, "nope", Event::new("flip")),
            Err(ServeError::UnknownQueue("nope".into()))
        );
        rt.shutdown();
    }

    #[test]
    fn failed_graph_is_isolated_from_the_pool() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let bad = rt
            .spawn(
                &GraphSpec::seq(vec![
                    leaf("src", &[], &["a"], 1),
                    crate::graph::testutil::panicking_leaf("boom", &["a"], &[]),
                ]),
                SpawnOpts::new("bad"),
            )
            .unwrap();
        let good = rt.spawn(&pipeline_spec(), SpawnOpts::new("good")).unwrap();
        rt.submit(bad, 2).unwrap();
        rt.submit(good, 8).unwrap();
        // The panicking tenant fails; the healthy tenant still completes.
        assert!(matches!(rt.drain(bad), Err(ServeError::GraphFailed(_))));
        let stats = rt.drain(good).unwrap();
        assert_eq!(stats.completed, 8);
        // The pool survives for future tenants.
        let again = rt.spawn(&pipeline_spec(), SpawnOpts::new("again")).unwrap();
        rt.submit(again, 3).unwrap();
        assert_eq!(rt.drain(again).unwrap().completed, 3);
        rt.shutdown();
    }

    /// Regression: submissions come from client threads, which have no
    /// drain-before-park backstop — a spare-parallelism-throttled wake
    /// that skips the notify while every worker is mid-park would strand
    /// the frames in the injector with the whole pool parked (the next
    /// wait would time out). See [`MultiShared::wake_external`].
    #[test]
    fn client_thread_submit_wakes_parking_workers() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(1))
            .unwrap();
        for round in 0..300u64 {
            assert_eq!(rt.submit(id, 1).unwrap(), 1);
            rt.drain_frames(id, round + 1);
        }
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 300);
        rt.shutdown();
    }

    /// Regression: drain closes admission (per-tenant draining flag,
    /// set under the admit lock) before its quiescence wait, so a racing
    /// submit can neither trip the teardown leak assertions nor have its
    /// accepted frames silently discarded after the graph leaves the map.
    #[test]
    fn drain_refuses_concurrent_submissions() {
        for _ in 0..20 {
            let rt = Runtime::new(RuntimeConfig::new(2));
            let id = rt.spawn(&pipeline_spec(), SpawnOpts::new("pipe")).unwrap();
            let mut accepted = rt.submit(id, 3).unwrap();
            thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut n = 0u64;
                    loop {
                        match rt.submit(id, 1) {
                            Ok(k) => n += k,
                            Err(e) => {
                                assert!(matches!(
                                    e,
                                    ServeError::Draining(_) | ServeError::UnknownGraph(_)
                                ));
                                break n;
                            }
                        }
                        thread::yield_now();
                    }
                });
                let stats = rt.drain(id).unwrap();
                accepted += submitter.join().unwrap();
                // Every frame the client was told was accepted retired.
                assert_eq!(stats.completed, accepted);
            });
            rt.shutdown();
        }
    }

    /// Satellite regression: 100 spawn/drain cycles return the pool to
    /// baseline — no tenants, no queued jobs, no leaked ring slots (drain
    /// itself asserts slot release per stream) and every worker parked.
    #[test]
    fn teardown_returns_pool_to_baseline() {
        let rt = Runtime::new(RuntimeConfig::new(3));
        for round in 0..100 {
            let id = rt
                .spawn(
                    &pipeline_spec(),
                    SpawnOpts::new(format!("r{round}")).pipeline_depth(2),
                )
                .unwrap();
            assert_eq!(rt.submit(id, 5).unwrap(), 5);
            let stats = rt.drain(id).unwrap();
            assert_eq!(stats.completed, 5, "round {round}");
        }
        assert_eq!(rt.graph_count(), 0);
        assert_eq!(rt.queued_jobs(), 0);
        // Workers drop their tenant caches and park once the pool is dry.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.idle_workers() < rt.workers() {
            assert!(
                Instant::now() < deadline,
                "workers failed to park: {}/{} idle",
                rt.idle_workers(),
                rt.workers()
            );
            thread::sleep(Duration::from_millis(1));
        }
        rt.shutdown();
    }

    #[test]
    fn flight_recorder_captures_jobs_and_retirements() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let rings = rt.rings().expect("flight recorder is on by default");
        let mut curs = rings.cursors();
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(2))
            .unwrap();
        assert_eq!(rt.submit(id, 8).unwrap(), 8);
        rt.drain(id).unwrap();
        let snap = rings.snapshot(&mut curs);
        assert_eq!(snap.dropped, 0);
        let (mut jobs, mut retires) = (0u64, 0u64);
        for (w, ev) in &snap.events {
            assert!((*w as usize) < rt.workers());
            match ev {
                RingEvent::Job {
                    graph, start, end, ..
                } => {
                    assert_eq!(*graph, id.0);
                    assert!(end >= start);
                    jobs += 1;
                }
                RingEvent::Retire { graph, latency, .. } => {
                    assert_eq!(*graph, id.0);
                    assert!(*latency > 0);
                    retires += 1;
                }
                RingEvent::Stall { worker, .. } => {
                    assert!((*worker as usize) < rt.workers());
                }
            }
        }
        assert_eq!(jobs, 24, "8 frames x 3 nodes");
        assert_eq!(retires, 8);
        let t = rt.telemetry();
        assert_eq!(t.workers.len(), 2);
        assert_eq!(t.workers.iter().map(|w| w.jobs).sum::<u64>(), 24);
        assert!(t.workers.iter().map(|w| w.busy_ns).sum::<u64>() > 0);
        assert!(t.uptime_ns > 0);
        rt.shutdown();
    }

    #[test]
    fn ring_capacity_zero_disables_recording() {
        let rt = Runtime::new(RuntimeConfig::new(1).ring_capacity(0));
        assert!(rt.rings().is_none());
        let id = rt.spawn(&pipeline_spec(), SpawnOpts::new("p")).unwrap();
        rt.submit(id, 3).unwrap();
        assert_eq!(rt.drain(id).unwrap().completed, 3);
        rt.shutdown();
    }

    #[test]
    fn shed_counts_refused_frames() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(
                &pipeline_spec(),
                SpawnOpts::new("p").pipeline_depth(1).max_backlog(2),
            )
            .unwrap();
        let accepted = rt.submit(id, 10).unwrap();
        assert!(accepted <= 2);
        assert_eq!(rt.stats(id).unwrap().shed, 10 - accepted);
        rt.drain(id).unwrap();
        rt.shutdown();
    }

    impl Runtime {
        /// Test helper: wait until `id` retired at least `n` frames.
        fn drain_frames(&self, id: GraphId, n: u64) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.stats(id).unwrap().completed < n {
                assert!(Instant::now() < deadline, "timeout waiting for frames");
                thread::yield_now();
            }
        }
    }
}
