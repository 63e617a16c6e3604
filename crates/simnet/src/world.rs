//! The simulation world: the lane coordinator, harness API, and the
//! byte-identity machinery between one-lane and many-lane execution.
//!
//! [`World`] owns a set of [`Lane`]s (machine-affine `Send` execution
//! units, see `crate::lane`) plus everything only the coordinator touches:
//! the harness queue and key stream, the canonical trace recorder, the
//! metrics registry, the queue-stats mirror, and the conservative
//! synchronizer. Two paths drive the lanes, and both replay every lane
//! dispatch the same way:
//!
//! * **the window loop** — `run_until`/`run_for`/`run_until_idle` run
//!   conservative windows: every lane with work dispatches its events up
//!   to the window end (inline on the coordinator with one thread or one
//!   busy lane, on a worker pool otherwise), logging each dispatch, and
//!   the barrier replays the merged logs in canonical `(time, key)` order
//!   against the world-side observers. Harness closures close over
//!   `&mut World`, so they run between windows, one at a time;
//! * **single events** — `step` (and so `run_until_pred` and schedule
//!   oracles) dispatches the globally minimal event on its own, through
//!   the same logged lane dispatch and replay as a window.
//!
//! Both paths and every lane or thread count produce byte-identical
//! traces and [`QueueStats`] — the determinism contract `DESIGN.md` §17
//! spells out and the `scheduler_equiv` suite enforces.

use crate::cost::CostModel;
use crate::lane::{
    debug_hash, DispatchRecord, Event, HarnessFn, HbInfo, Lane, MachineKernel, SharedCore,
};
use crate::machine::MachineState;
use crate::process::{Behavior, ProcEnv, ProcState, RshBinding};
use crate::shard::{ShardStats, Synchronizer};
use rb_proto::{CommandSpec, ExitStatus, MachineAttrs, MachineId, Payload, ProcId, Signal};
use rb_simcore::{
    merge_dispatch_logs, DispatchKey, Duration, EventQueue, Json, KeyStream, MetricsRegistry,
    Profiler, QueueStats, SimTime, SpanId, SpanTracker, TraceRecorder,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

pub use crate::lane::{EventInfo, EventKind, HARNESS};

/// Pluggable tie-break policy over the kernel's equal-time event batches.
///
/// Installed via [`World::set_schedule_oracle`]; consulted only when two or
/// more events share the earliest pending instant. `enabled` lists the
/// batch in key order, `state` is the world's [fingerprint] including the
/// batch itself, and the returned index picks the event to dispatch
/// (clamped; `0` reproduces the plain run exactly).
///
/// [fingerprint]: World::fingerprint
pub trait WorldOracle {
    /// Pick which of the equal-time `enabled` events dispatches next.
    fn choose(&mut self, at: SimTime, state: u64, enabled: &[EventInfo]) -> usize;
}

/// Builder for [`World`].
pub struct WorldBuilder {
    machines: Vec<MachineAttrs>,
    seed: u64,
    cost: CostModel,
    trace: bool,
    trace_ring: Option<usize>,
    trace_stream: Option<(Box<dyn std::io::Write + Send>, usize)>,
    profile: bool,
    metrics_interval: Option<Duration>,
    shards: usize,
    threads: usize,
    hb_trace: bool,
    default_remote_binding: RshBinding,
    factory: Option<Box<dyn crate::factory::ProgramFactory>>,
    rsh_prime: Option<Box<dyn crate::factory::RshPrimeFactory>>,
    sabotage_lane_keys: bool,
}

impl WorldBuilder {
    /// A builder with one-lane, single-threaded, traced defaults.
    pub fn new() -> Self {
        WorldBuilder {
            machines: Vec::new(),
            seed: 1,
            cost: CostModel::default(),
            trace: true,
            trace_ring: None,
            trace_stream: None,
            profile: false,
            metrics_interval: None,
            shards: 1,
            threads: 1,
            hb_trace: false,
            default_remote_binding: RshBinding::Standard,
            factory: None,
            rsh_prime: None,
            sabotage_lane_keys: false,
        }
    }

    /// Add one machine; returns the id it will get.
    pub fn machine(&mut self, attrs: MachineAttrs) -> MachineId {
        let id = MachineId(self.machines.len() as u32);
        self.machines.push(attrs);
        id
    }

    /// Add `n` public Linux machines named `n00`, `n01`, ….
    pub fn standard_lab(&mut self, n: usize) -> Vec<MachineId> {
        (0..n)
            .map(|i| self.machine(MachineAttrs::public_linux(format!("n{i:02}"))))
            .collect()
    }

    /// World seed; every machine's RNG stream is forked from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the default calibrated [`CostModel`].
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Record a structured kernel trace (on by default).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Keep only the most recent `cap` trace events (bounded memory for
    /// long soak runs). Implies tracing on.
    pub fn trace_ring(mut self, cap: usize) -> Self {
        self.trace = true;
        self.trace_ring = Some(cap);
        self
    }

    /// Stream every trace event to `out` as rendered text the moment it
    /// is recorded — the flight-recorder mode for runs whose full trace
    /// would not fit in memory. Only the most recent `tail_cap` events
    /// stay resident (for post-run queries and trace checks); the stream
    /// carries the complete, byte-identical [`TraceRecorder::render`]
    /// output. Hand it a buffered writer — the sink writes one line per
    /// event. Implies tracing on; overrides [`WorldBuilder::trace_ring`].
    pub fn trace_stream(mut self, out: Box<dyn std::io::Write + Send>, tail_cap: usize) -> Self {
        self.trace = true;
        self.trace_stream = Some((out, tail_cap));
        self
    }

    /// Self-profile the kernel: per-behavior and per-message-kind
    /// dispatch wall time plus per-lane load on sharded kernels. Host-side
    /// accounting only — a profiled run replays byte-identical to an
    /// unprofiled one. Costs one `Instant::now()` pair per dispatch.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enable the metrics registry, with gauges sampled every `interval`
    /// of virtual time. Off by default: a world without metrics pays one
    /// `Option` branch per dispatched event and nothing else.
    pub fn metrics(mut self, interval: Duration) -> Self {
        self.metrics_interval = Some(interval);
        self
    }

    /// Partition the machines across `n` lanes under the conservative
    /// time-window synchronizer (see `crate::shard`). `1` (the default)
    /// is one lane; other values are clamped to the machine count at
    /// build time, and a cost model that cannot bound a window (see
    /// [`WorldBuilder::build`]) keeps one lane whatever `n` is. Every lane
    /// count replays byte-identically — lanes change which queue an event
    /// waits in, never the `(time, key)` dispatch order.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Run windows on up to `n` worker threads (default 1: the
    /// coordinator runs every lane's window inline). Windows where only
    /// one lane has work run inline whatever `n` is, so threads only
    /// matter on a world with several lanes. Thread count never affects
    /// results — only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Record happens-before metadata — one `shard.ev` line per dispatch
    /// plus a `shard.window` line per synchronizer window — into the
    /// trace, for the `rbrace hb` race checker. Effective only on a
    /// sharded, traced world; off by default, so the byte-identity
    /// contract between serial and sharded traces is untouched unless a
    /// run opts in.
    pub fn hb_trace(mut self, on: bool) -> Self {
        self.hb_trace = on;
        self
    }

    /// What `rsh` resolves to in the login environment of `rshd`-spawned
    /// processes: `Broker` models a cluster where `rsh'` replaced the
    /// system-wide `rsh`.
    pub fn default_remote_binding(mut self, b: RshBinding) -> Self {
        self.default_remote_binding = b;
        self
    }

    /// Install the program factory (the cluster's binaries).
    pub fn factory(mut self, f: impl crate::factory::ProgramFactory + 'static) -> Self {
        self.factory = Some(Box::new(f));
        self
    }

    /// Install the `rsh'` shim factory (the broker's interposition).
    pub fn rsh_prime(mut self, f: impl crate::factory::RshPrimeFactory + 'static) -> Self {
        self.rsh_prime = Some(Box::new(f));
        self
    }

    /// Test-only fault injection: seed every machine's dispatch-key
    /// stream with `machine_id % shards` instead of `machine_id`, so
    /// machines sharing a lane mint colliding keys. A world built this
    /// way violates the per-origin key-uniqueness invariant the
    /// determinism contract rests on — the `rbrace hb` acceptance tests
    /// use it to prove the reused dispatch identities are caught.
    #[doc(hidden)]
    pub fn sabotage_shared_lane_keys(mut self, on: bool) -> Self {
        self.sabotage_lane_keys = on;
        self
    }

    /// Construct the world. A window must not be wider than the shortest
    /// cross-lane hop: every cross-machine push carries at least
    /// `lan_latency`, except the first hop of a standard `rsh`, which
    /// carries `rsh_connect`. A cost model with `lan_latency` under 1µs or
    /// `rsh_connect` under [`CostModel::lookahead`] cannot bound one, so
    /// its world keeps one lane.
    pub fn build(self) -> World {
        assert!(!self.machines.is_empty(), "a world needs machines");
        let bounded = self.cost.lan_latency >= Duration::from_micros(1)
            && self.cost.rsh_connect >= self.cost.lookahead();
        let shards = if bounded {
            self.shards.clamp(1, self.machines.len())
        } else {
            1
        };
        let mut hosts: Vec<(Box<str>, MachineId)> = self
            .machines
            .iter()
            .enumerate()
            .map(|(i, m)| (m.hostname.clone().into_boxed_str(), MachineId(i as u32)))
            .collect();
        hosts.sort();
        let host_names: Vec<Arc<str>> = self
            .machines
            .iter()
            .map(|m| Arc::from(m.hostname.as_str()))
            .collect();
        let shared = Arc::new(SharedCore {
            cost: self.cost,
            shards,
            hosts,
            host_names,
            attrs: self.machines.clone(),
            up: self
                .machines
                .iter()
                .map(|_| AtomicBool::new(true))
                .collect(),
            default_remote_binding: self.default_remote_binding,
            factory: self.factory,
            rsh_prime: self.rsh_prime,
        });
        let lanes: Vec<Lane> = (0..shards)
            .map(|idx| {
                let mut machines = Vec::new();
                let mut mkern = Vec::new();
                for (i, attrs) in self.machines.iter().enumerate() {
                    if i % shards != idx {
                        continue;
                    }
                    let id = MachineId(i as u32);
                    machines.push(MachineState::new(attrs.clone()));
                    let mut kern = MachineKernel::new(id, self.seed);
                    if self.sabotage_lane_keys {
                        kern.keys = KeyStream::for_machine((i % shards) as u64);
                    }
                    mkern.push(kern);
                }
                let mut queue = EventQueue::new();
                // Typical clusters keep a few hundred events pending;
                // skip the first growth reallocations.
                queue.reserve(256);
                Lane {
                    idx,
                    shards,
                    now: SimTime::ZERO,
                    queue,
                    machines,
                    mkern,
                    rsh_ops: Default::default(),
                    services: Default::default(),
                    disks: Default::default(),
                    trace: if self.trace {
                        TraceRecorder::enabled()
                    } else {
                        TraceRecorder::disabled()
                    },
                    metrics: self.metrics_interval.map(|_| MetricsRegistry::new()),
                    prof: self.profile.then(|| Box::new(Profiler::new())),
                    outbox: Vec::new(),
                    log: Vec::new(),
                    cur: 0,
                    pushed: 0,
                    wall_ns: 0,
                    hb: self.hb_trace && self.trace && shards > 1,
                }
            })
            .collect();
        World {
            now: SimTime::ZERO,
            shared,
            lanes,
            harness_q: EventQueue::new(),
            harness_keys: KeyStream::harness(),
            harness_spans: SpanTracker::new(),
            stats: QueueStats::default(),
            syn: (shards > 1).then(|| Synchronizer::new(shards, self.metrics_interval.is_some())),
            threads: self.threads.max(1),
            pool: None,
            active: Vec::with_capacity(shards),
            trace: match (self.trace, self.trace_stream, self.trace_ring) {
                (true, Some((out, cap)), _) => TraceRecorder::streaming(out, cap),
                (true, None, Some(cap)) => TraceRecorder::ring(cap),
                (true, None, None) => TraceRecorder::enabled(),
                (false, _, _) => TraceRecorder::disabled(),
            },
            prof_enabled: self.profile,
            metrics: self.metrics_interval.map(|interval| MetricsState {
                registry: MetricsRegistry::new(),
                interval,
                next_at: SimTime::ZERO,
            }),
            trace_checks: Vec::new(),
            oracle: None,
            hb_trace: self.hb_trace && self.trace && shards > 1,
            hb_last_window: 0,
        }
    }
}

impl Default for WorldBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A post-run invariant over the recorded trace.
pub type TraceCheck = Box<dyn Fn(&TraceRecorder) -> Result<(), String>>;

/// Metrics registry plus the virtual-time gauge-sampling cursor.
struct MetricsState {
    registry: MetricsRegistry,
    interval: Duration,
    next_at: SimTime,
}

/// One unit of work shipped to a lane worker: the lane itself (by value —
/// explicit ownership handoff), its index, and the window end to run to.
struct Job {
    lane: Lane,
    idx: usize,
    end: (SimTime, u64),
    shared: Arc<SharedCore>,
}

/// The lane worker pool: one channel per worker (lane→worker assignment
/// is static, `lane % workers`, so a lane's cache state tends to stay on
/// one core), one shared result channel back to the coordinator. A
/// worker always sends its lane back, with the panic that ended the
/// lane's window if one did.
struct Pool {
    txs: Vec<mpsc::Sender<Job>>,
    rx: mpsc::Receiver<(usize, Lane, Result<(), LanePanic>)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        let (res_tx, rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, job_rx) = mpsc::channel::<Job>();
            let res = res_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rb-lane-{w}"))
                    .spawn(move || {
                        while let Ok(mut job) = job_rx.recv() {
                            let ran = run_window_caught(&mut job.lane, &job.shared, job.end);
                            if res.send((job.idx, job.lane, ran)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn lane worker"),
            );
            txs.push(tx);
        }
        Pool { txs, rx, handles }
    }
}

/// A behavior panic caught in a lane's window, with the dispatch it
/// struck: the lane's clock and the machine whose event was running.
struct LanePanic {
    at: SimTime,
    machine: MachineId,
    payload: Box<dyn std::any::Any + Send>,
}

/// Run one lane's window, catching a behavior panic so the coordinator
/// can report it instead of waiting forever for the lane to come back.
fn run_window_caught(
    lane: &mut Lane,
    shared: &SharedCore,
    end: (SimTime, u64),
) -> Result<(), LanePanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lane.run_window(shared, end)
    }))
    .map_err(|payload| LanePanic {
        at: lane.now,
        machine: lane.mkern[lane.cur].id,
        payload,
    })
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.txs.clear(); // hang up; workers exit their recv loops
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The simulated network of workstations.
pub struct World {
    pub(crate) now: SimTime,
    pub(crate) shared: Arc<SharedCore>,
    pub(crate) lanes: Vec<Lane>,
    /// Scripted harness actions. They close over `&mut World`, so only
    /// the coordinator may run them, between windows; keeping them out of
    /// lane queues lets every lane run its window without checking.
    harness_q: EventQueue<Event>,
    /// Origin-0 key stream for events pushed from harness context.
    harness_keys: KeyStream,
    /// Span ids for harness-opened spans (machine spans come from the
    /// owning machine's tagged allocator).
    harness_spans: SpanTracker,
    /// Mirror of the global queue counters, maintained in canonical
    /// dispatch order — identical at every lane and thread count, which
    /// per-queue counters would not be.
    stats: QueueStats,
    /// Window cursor + per-lane accounting; `Some` iff `shards > 1`.
    syn: Option<Synchronizer>,
    /// Worker-thread budget for windows (1 = the coordinator runs every
    /// lane inline).
    threads: usize,
    pool: Option<Pool>,
    /// Lanes with work in the running window (reused across windows).
    active: Vec<usize>,
    pub(crate) trace: TraceRecorder,
    prof_enabled: bool,
    metrics: Option<MetricsState>,
    /// Opt-in post-run trace invariants (installed e.g. by `rb-analyze`).
    trace_checks: Vec<(String, TraceCheck)>,
    /// Tie-break oracle for same-time event batches (model checking).
    oracle: Option<Box<dyn WorldOracle>>,
    /// Emit `shard.ev` / `shard.window` happens-before records (sharded,
    /// traced worlds that opted in via [`WorldBuilder::hb_trace`] only).
    hb_trace: bool,
    /// Last window ordinal a `shard.window` record was emitted for.
    hb_last_window: u64,
}

/// Feed the profiler's cumulative totals into the registry as `prof.*`
/// counters (delta-published, so repeated calls never double-count) plus
/// one `prof.dispatch_us` sample per call: the mean dispatch cost over
/// the window since the previous publication, giving the registry a
/// histogram of dispatch-cost trajectory over the run.
fn publish_prof_deltas(prof: &Profiler, reg: &mut MetricsRegistry) {
    let n = prof.total_dispatches();
    let ns = prof.total_wall_ns();
    let prev_n = reg.counter("prof.dispatches", "");
    let prev_ns = reg.counter("prof.wall_ns", "");
    if n > prev_n {
        reg.observe(
            "prof.dispatch_us",
            "",
            (ns - prev_ns) as f64 / (n - prev_n) as f64 / 1e3,
        );
    }
    reg.add("prof.dispatches", "", n - prev_n);
    reg.add("prof.wall_ns", "", ns - prev_ns);
    prof.publish_deltas(reg);
}

impl World {
    // ------------------------------------------------------------------
    // Introspection (harness / tests)
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The canonical trace recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Install a post-run trace invariant. Checks are opt-in: nothing runs
    /// until [`World::run_trace_checks`] is called (typically at the end of
    /// an integration test).
    pub fn add_trace_check(
        &mut self,
        name: impl Into<String>,
        check: impl Fn(&TraceRecorder) -> Result<(), String> + 'static,
    ) {
        self.trace_checks.push((name.into(), Box::new(check)));
    }

    /// Run every installed trace check against the recorded trace,
    /// collecting all failures.
    pub fn run_trace_checks(&self) -> Result<(), String> {
        let failures: Vec<String> = self
            .trace_checks
            .iter()
            .filter_map(|(name, check)| check(&self.trace).err().map(|e| format!("[{name}] {e}")))
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }

    /// The world's timing constants.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Work counters of the kernel's event queues, maintained in the
    /// canonical dispatch order: every execution mode reports the same
    /// trajectory.
    pub fn kernel_stats(&self) -> QueueStats {
        self.stats
    }

    /// How many event lanes the kernel runs.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Worker-thread budget for windows (1 = the coordinator runs every
    /// lane inline).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Synchronizer statistics of a multi-lane kernel: windows, lookahead,
    /// per-lane dispatch/barrier/wall counters. `None` with one lane.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        let syn = self.syn.as_ref()?;
        Some(syn.stats(self.shared.cost.lookahead(), |i| self.lanes[i].wall_ns))
    }

    /// Render the trace with a `#` header carrying the queue counters.
    pub fn render_trace_with_stats(&self) -> String {
        self.trace.render_with_stats(&self.stats)
    }

    // ------------------------------------------------------------------
    // Observability: causal spans + metrics registry
    // ------------------------------------------------------------------

    /// Open a causal span at the current virtual time from harness
    /// context. Returns [`SpanId::NONE`] without formatting anything when
    /// tracing is off. (Behaviors open spans through `Ctx::open_span`,
    /// which draws ids from their machine's allocator instead.)
    pub fn open_span(
        &mut self,
        parent: SpanId,
        name: &'static str,
        detail: impl std::fmt::Display,
    ) -> SpanId {
        self.harness_spans
            .open(&mut self.trace, self.now, parent, name, detail)
    }

    /// Close a span with a free-form outcome (no-op on [`SpanId::NONE`]).
    pub fn close_span(&mut self, id: SpanId, name: &'static str, outcome: impl std::fmt::Display) {
        self.harness_spans
            .close(&mut self.trace, self.now, id, name, outcome);
    }

    /// The metrics registry, when enabled via [`WorldBuilder::metrics`].
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Mutable access to the metrics registry (harness-side counters).
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut().map(|m| &mut m.registry)
    }

    /// Export the registry as JSON, folding in the kernel's `QueueStats`
    /// work counters and the trace recorder's ring-drop count so event
    /// truncation is visible rather than silent. `None` when metrics were
    /// not enabled.
    pub fn metrics_json(&self) -> Option<Json> {
        let m = self.metrics.as_ref()?;
        let stats = self.stats;
        Some(
            m.registry.to_json().set(
                "kernel",
                Json::obj()
                    .set("scheduled", stats.scheduled)
                    .set("dispatched", stats.dispatched)
                    .set("peak_depth", stats.peak_depth)
                    .set("depth", stats.depth)
                    .set("trace_events", self.trace.events().len())
                    .set("trace_dropped", self.trace.dropped_events())
                    .set("profiled", self.prof_enabled),
            ),
        )
    }

    /// The kernel self-profile, when enabled via [`WorldBuilder::profile`]:
    /// a merged snapshot of every lane's cumulative profile. Built on
    /// demand — lanes profile independently so threaded windows need no
    /// shared profiler.
    pub fn profiler(&self) -> Option<Profiler> {
        if !self.prof_enabled {
            return None;
        }
        let mut merged = Profiler::new();
        for lane in &self.lanes {
            if let Some(p) = lane.prof.as_deref() {
                merged.merge(p);
            }
        }
        Some(merged)
    }

    /// Export the self-profile as JSON — the `profile` provenance section
    /// of bench reports. `None` when profiling was not enabled.
    pub fn profile_json(&self) -> Option<Json> {
        self.profiler().map(|p| p.to_json())
    }

    /// Publish profiling counters accumulated since the last metrics
    /// sample into the registry — call before [`World::metrics_json`] so
    /// the final export is current. No-op unless both profiling and
    /// metrics are enabled.
    pub fn flush_profile_metrics(&mut self) {
        if let Some(prof) = self.profiler() {
            if let Some(m) = self.metrics.as_mut() {
                publish_prof_deltas(&prof, &mut m.registry);
            }
        }
    }

    /// Close out a streaming trace: append the stats footer (the same
    /// counters [`World::render_trace_with_stats`] puts in the header)
    /// and flush the downstream writer. No-op for in-memory recorders.
    pub fn finish_trace_stream(&mut self) {
        let stats = self.stats;
        self.trace.finish_stream(&stats);
    }

    /// Sample gauges once the virtual-time cursor is due, at `at`, the
    /// time of the next event to dispatch. The snapshot counts that event
    /// as popped, so every gauge reads as of the first dispatch at or
    /// past the sample point, however windows fall.
    fn sample_metrics_at(&mut self, at: SimTime) {
        let due = match self.metrics.as_ref() {
            Some(m) => at >= m.next_at,
            None => return,
        };
        if !due {
            return;
        }
        let mut stats = self.stats;
        stats.dispatched += 1;
        stats.depth -= 1;
        let mut per_machine = vec![0u32; self.shared.attrs.len()];
        let mut alive = 0u32;
        for lane in &self.lanes {
            for (_, e) in lane.iter_procs() {
                if matches!(e.state, ProcState::Running) {
                    alive += 1;
                    per_machine[e.machine.0 as usize] += 1;
                }
            }
        }
        let trace_dropped = self.trace.dropped_events();
        let prof = self.profiler();
        let stalls = self
            .syn
            .as_mut()
            .map(|s| s.take_pending_stalls())
            .unwrap_or_default();
        let shard_snapshot = self.shard_stats();
        let m = self.metrics.as_mut().expect("checked above");
        m.next_at = at + m.interval;
        m.registry.inc("metrics.samples", "");
        // Latest value as a gauge, plus the same reading folded into a
        // sample set so the export shows the distribution over the run.
        m.registry.gauge_set("queue.depth", "", stats.depth as f64);
        m.registry.observe("queue.depth", "", stats.depth as f64);
        m.registry
            .gauge_set("queue.scheduled", "", stats.scheduled as f64);
        m.registry
            .gauge_set("queue.dispatched", "", stats.dispatched as f64);
        m.registry
            .gauge_set("queue.peak_depth", "", stats.peak_depth as f64);
        m.registry
            .gauge_set("trace.dropped", "", trace_dropped as f64);
        m.registry.gauge_set("procs.alive", "", alive as f64);
        m.registry.observe("procs.alive", "", alive as f64);
        for (i, n) in per_machine.iter().enumerate() {
            m.registry
                .gauge_set("machine.procs", &self.shared.host_names[i], *n as f64);
            m.registry
                .observe("machine.procs", &self.shared.host_names[i], *n as f64);
        }
        if let Some(ss) = shard_snapshot {
            m.registry.gauge_set("shard.windows", "", ss.windows as f64);
            for (i, lane) in ss.per_shard.iter().enumerate() {
                // The synchronizer counts cumulatively; feed the registry
                // the delta so its counters agree at every sample point.
                let label = i.to_string();
                let d = lane.dispatched - m.registry.counter("shard.dispatched", &label);
                m.registry.add("shard.dispatched", i, d);
                let b = lane.barrier_waits - m.registry.counter("shard.barrier_waits", &label);
                m.registry.add("shard.barrier_waits", i, b);
                let w = lane.wall_ns - m.registry.counter("shard.wall_ns", &label);
                m.registry.add("shard.wall_ns", i, w);
            }
            for stall in stalls {
                m.registry.observe("shard.barrier_stall", "", stall);
            }
        }
        if let Some(prof) = prof {
            publish_prof_deltas(&prof, &mut m.registry);
        }
    }

    // ------------------------------------------------------------------
    // Model-checking hooks
    // ------------------------------------------------------------------

    /// Install a schedule oracle; subsequent [`World::step`]s route every
    /// same-time tie through it instead of the key-order default, and the
    /// `run_until*` calls step one event at a time instead of running
    /// windows.
    ///
    /// Oracles reorder same-time batches and requeue the rest, which only
    /// the single-lane kernel supports — model checking explores
    /// interleavings the conservative synchronizer exists to avoid.
    pub fn set_schedule_oracle(&mut self, oracle: Box<dyn WorldOracle>) {
        assert!(
            self.lanes.len() == 1,
            "schedule oracles drive the serial kernel only; build with WorldBuilder::shards(1)"
        );
        self.oracle = Some(oracle);
    }

    /// Remove the installed oracle, restoring plain key-order tie-breaks.
    pub fn clear_schedule_oracle(&mut self) {
        self.oracle = None;
    }

    /// Footprints of every pending event, in unspecified order.
    pub fn pending_event_infos(&self) -> Vec<(SimTime, EventInfo)> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            lane.queue
                .for_each_pending(|at, _, ev| out.push((at, lane.event_info(ev))));
        }
        self.harness_q
            .for_each_pending(|at, _, ev| out.push((at, self.lanes[0].event_info(ev))));
        out
    }

    /// `true` when no events are pending — nothing can ever happen again.
    pub fn quiescent(&self) -> bool {
        self.harness_q.is_empty() && self.lanes.iter().all(|l| l.queue.is_empty())
    }

    /// Alive processes as `(id, behavior name, is system process)`, in
    /// machine-major id order.
    pub fn alive_procs(&self) -> Vec<(ProcId, &'static str, bool)> {
        let mut out = Vec::new();
        for m in 0..self.shared.attrs.len() {
            let lane = &self.lanes[m % self.lanes.len()];
            for (p, e) in lane.procs_on(MachineId(m as u32)) {
                if matches!(e.state, ProcState::Running) {
                    out.push((p, e.name, e.env.system));
                }
            }
        }
        out
    }

    /// Order-independent hash of the kernel-visible simulation state:
    /// virtual time, process tables, machine state, per-machine id/RNG
    /// streams, the pending-event multiset, services, disks, and
    /// in-flight rsh ops.
    ///
    /// Behavior internals are *not* included (they are opaque boxed state
    /// machines), so two states with equal fingerprints could in principle
    /// differ inside a behavior — see DESIGN.md §11 for why visited-set
    /// pruning stays useful regardless.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(&[])
    }

    /// [`World::fingerprint`] extended with events already popped from the
    /// queue but not yet dispatched (the batch an oracle is choosing from),
    /// so the pre-choice state includes them.
    fn fingerprint_with(&self, extra: &[(SimTime, EventInfo)]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rb_simcore::FxHasher::default();
        self.now.0.hash(&mut h);
        // Machines (and their kernels and procs) in global id order.
        for mid in 0..self.shared.attrs.len() {
            let lane = &self.lanes[mid % self.lanes.len()];
            let kern = &lane.mkern[mid / self.lanes.len()];
            kern.next_timer.hash(&mut h);
            kern.next_cpu_token.hash(&mut h);
            kern.next_rsh.hash(&mut h);
            kern.rng.seed().hash(&mut h);
            kern.rng.state_words().hash(&mut h);
            for (p, e) in lane.procs_on(MachineId(mid as u32)) {
                p.hash(&mut h);
                e.name.hash(&mut h);
                e.machine.hash(&mut h);
                e.parent.hash(&mut h);
                debug_hash(&e.state).hash(&mut h);
                e.detached.hash(&mut h);
                e.has_services.hash(&mut h);
                e.env.job.hash(&mut h);
                e.env.appl.hash(&mut h);
                e.env.system.hash(&mut h);
            }
            let m = &lane.machines[mid / self.lanes.len()];
            mid.hash(&mut h);
            m.up.hash(&mut h);
            m.owner_present.hash(&mut h);
            m.users.hash(&mut h);
            m.console_active.hash(&mut h);
            m.app_proc_count().hash(&mut h);
            m.cpu.generation().hash(&mut h);
        }
        // Pending events form a multiset with no stable order across
        // heap layouts or lanes; combine per-event hashes commutatively.
        let mut pending: u64 = 0;
        let mut add = |at: SimTime, info: &EventInfo| {
            let mut eh = rb_simcore::FxHasher::default();
            at.0.hash(&mut eh);
            info.hash(&mut eh);
            pending = pending.wrapping_add(eh.finish());
        };
        for lane in &self.lanes {
            lane.queue
                .for_each_pending(|at, _, ev| add(at, &lane.event_info(ev)));
        }
        self.harness_q
            .for_each_pending(|at, _, ev| add(at, &self.lanes[0].event_info(ev)));
        for (at, info) in extra {
            add(*at, info);
        }
        pending.hash(&mut h);
        let mut side: u64 = 0;
        for lane in &self.lanes {
            for (k, v) in &lane.services {
                let mut eh = rb_simcore::FxHasher::default();
                k.hash(&mut eh);
                v.hash(&mut eh);
                side = side.wrapping_add(eh.finish());
            }
            for (k, v) in &lane.disks {
                let mut eh = rb_simcore::FxHasher::default();
                k.hash(&mut eh);
                v.hash(&mut eh);
                side = side.wrapping_add(eh.finish());
            }
            for kern in &lane.mkern {
                for &t in &kern.cancelled_timers {
                    let mut eh = rb_simcore::FxHasher::default();
                    t.0.hash(&mut eh);
                    side = side.wrapping_add(eh.finish());
                }
            }
            for (key, op) in lane.rsh_ops.iter() {
                let mut eh = rb_simcore::FxHasher::default();
                key.hash(&mut eh);
                op.caller.hash(&mut eh);
                op.target.hash(&mut eh);
                debug_hash(&op.stage).hash(&mut eh);
                debug_hash(&op.cmd).hash(&mut eh);
                side = side.wrapping_add(eh.finish());
            }
        }
        side.hash(&mut h);
        h.finish()
    }

    /// Number of machines in the network.
    pub fn machine_count(&self) -> usize {
        self.shared.attrs.len()
    }

    /// Instantiate a program from the installed factory.
    pub fn build_program(&self, cmd: &CommandSpec) -> Option<Box<dyn Behavior>> {
        self.shared.factory.as_ref()?.build(cmd)
    }

    /// Resolve a host name.
    pub fn machine_by_host(&self, host: &str) -> Option<MachineId> {
        self.shared.machine_by_host(host)
    }

    /// Static attributes of a machine.
    pub fn machine_attrs(&self, m: MachineId) -> &MachineAttrs {
        &self.shared.attrs[m.0 as usize]
    }

    /// Host name of a machine.
    pub fn hostname(&self, m: MachineId) -> &str {
        &self.shared.attrs[m.0 as usize].hostname
    }

    /// Interned host name (cheap to clone and store).
    pub fn hostname_shared(&self, m: MachineId) -> Arc<str> {
        self.shared.host_names[m.0 as usize].clone()
    }

    /// The lane that owns machine `m` (shared, then mutable flavor).
    fn lane_of(&self, m: MachineId) -> &Lane {
        &self.lanes[self.shared.lane_of(m)]
    }

    fn proc_entry(&self, p: ProcId) -> Option<&crate::lane::ProcEntry> {
        let m = p.machine_tag()?;
        self.lane_of(m).proc(p)
    }

    /// Whether a process is alive.
    pub fn alive(&self, p: ProcId) -> bool {
        self.proc_entry(p)
            .map(|e| matches!(e.state, ProcState::Running))
            .unwrap_or(false)
    }

    /// A process's exit status, once exited.
    pub fn exit_status(&self, p: ProcId) -> Option<ExitStatus> {
        match self.proc_entry(p)?.state {
            ProcState::Exited(s) => Some(s),
            ProcState::Running => None,
        }
    }

    /// A process's behavior name.
    pub fn proc_name(&self, p: ProcId) -> Option<&'static str> {
        self.proc_entry(p).map(|e| e.name)
    }

    /// The machine a process runs (or ran) on.
    pub fn proc_machine(&self, p: ProcId) -> Option<MachineId> {
        self.proc_entry(p).map(|e| e.machine)
    }

    /// Ids of all *alive* processes with the given behavior name, in
    /// machine-major id order.
    pub fn procs_named(&self, name: &str) -> Vec<ProcId> {
        let mut out = Vec::new();
        for m in 0..self.shared.attrs.len() {
            let lane = &self.lanes[m % self.lanes.len()];
            for (p, e) in lane.procs_on(MachineId(m as u32)) {
                if e.name == name && matches!(e.state, ProcState::Running) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Alive application (non-system) processes on a machine.
    pub fn app_procs_on(&self, m: MachineId) -> u32 {
        self.lane_of(m).machines[self.lane_of(m).local_of(m)].app_proc_count()
    }

    /// Total CPU-busy time of a machine.
    pub fn busy_time(&self, m: MachineId) -> Duration {
        let lane = self.lane_of(m);
        lane.machines[lane.local_of(m)].cpu.busy_time(self.now)
    }

    /// Total time a machine hosted at least one application process.
    pub fn allocated_time(&self, m: MachineId) -> Duration {
        let lane = self.lane_of(m);
        lane.machines[lane.local_of(m)].allocated_time(self.now)
    }

    /// Whether a machine is up.
    pub fn machine_up(&self, m: MachineId) -> bool {
        let lane = self.lane_of(m);
        lane.machines[lane.local_of(m)].up
    }

    /// Look up a named service on a machine for a user (e.g. the pvmd a
    /// console on that machine would find via `/tmp/pvmd.<uid>`).
    pub fn service_on(&self, m: MachineId, user: &str, name: &str) -> Option<ProcId> {
        self.lane_of(m)
            .services
            .get(&(m, user.to_string(), name.to_string()))
            .copied()
    }

    /// Read a file from a machine's stable storage (harness-side).
    pub fn disk_on(&self, m: MachineId, user: &str, file: &str) -> Option<&[u8]> {
        self.lane_of(m)
            .disks
            .get(&(m, user.to_string(), file.to_string()))
            .map(|v| v.as_slice())
    }

    // ------------------------------------------------------------------
    // Harness-side mutation
    // ------------------------------------------------------------------

    /// Run a lane operation from harness context: position the lane at
    /// the current time with machine `m` as the dispatching context (its
    /// key stream continues without opening a new dispatch — harness
    /// actions happen identically in every execution mode, so the stream
    /// stays deterministic), then fold the lane's staged trace, pushes,
    /// and outbox back into the world.
    fn lane_op<R>(&mut self, m: MachineId, f: impl FnOnce(&mut Lane, &SharedCore) -> R) -> R {
        let li = self.shared.lane_of(m);
        let shared = self.shared.clone();
        let lane = &mut self.lanes[li];
        lane.now = self.now;
        lane.cur = lane.local_of(m);
        lane.pushed = 0;
        let r = f(lane, &shared);
        let pushed = lane.pushed;
        self.note_pushes(pushed);
        self.trace.absorb(&mut self.lanes[li].trace);
        self.drain_outbox(li);
        r
    }

    /// Push an event from harness context under an origin-0 key.
    fn push_harness_event(&mut self, at: SimTime, ev: Event) {
        let key = self.harness_keys.next_key().0;
        self.note_pushes(1);
        if matches!(ev, Event::Harness(_)) {
            self.harness_q.push_seq(at, key, ev);
        } else {
            let li = self.shared.lane_of(ev.machine().unwrap_or(MachineId(0)));
            self.lanes[li].queue.push_seq(at, key, ev);
        }
    }

    /// Spawn a process directly (the harness's analogue of a user typing a
    /// command at a machine's console).
    pub fn spawn_user(
        &mut self,
        machine: MachineId,
        behavior: Box<dyn Behavior>,
        env: ProcEnv,
    ) -> ProcId {
        let p = self.lane_op(machine, |lane, shared| {
            lane.insert_proc(shared, machine, behavior, env, None)
        });
        self.push_harness_event(self.now, Event::Start(p));
        p
    }

    /// Schedule a harness action at an absolute time.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push_harness_event(at, Event::Harness(Box::new(f)));
    }

    /// Schedule a harness action after a delay.
    pub fn schedule_in(&mut self, d: Duration, f: impl FnOnce(&mut World) + Send + 'static) {
        self.schedule(self.now + d, f);
    }

    /// Inject a message from the harness pseudo-process.
    pub fn send_from_harness(&mut self, to: ProcId, msg: Payload) {
        self.push_harness_event(
            self.now + self.shared.cost.local_latency,
            Event::Deliver {
                to,
                from: HARNESS,
                msg,
            },
        );
    }

    /// Deliver a signal from the harness.
    pub fn kill_from_harness(&mut self, to: ProcId, sig: Signal) {
        self.push_harness_event(
            self.now + self.shared.cost.local_latency,
            Event::SigDeliver { proc: to, sig },
        );
    }

    /// Set owner presence on a (private) machine; daemons observe it at
    /// their next poll.
    pub fn set_owner_present(&mut self, m: MachineId, present: bool) {
        let li = self.shared.lane_of(m);
        let local = self.lanes[li].local_of(m);
        self.lanes[li].machines[local].owner_present = present;
        self.lanes[li].machines[local].console_active |= present;
        self.trace.record(
            self.now,
            "machine.owner",
            format_args!("{} present={present}", self.shared.host_names[m.0 as usize]),
        );
    }

    /// Set the interactive-login count on a machine.
    pub fn set_users(&mut self, m: MachineId, users: u32) {
        let li = self.shared.lane_of(m);
        let local = self.lanes[li].local_of(m);
        self.lanes[li].machines[local].users = users;
    }

    /// Record keyboard/mouse activity (one-shot; cleared by daemon polls).
    pub fn touch_console(&mut self, m: MachineId) {
        let li = self.shared.lane_of(m);
        let local = self.lanes[li].local_of(m);
        self.lanes[li].machines[local].console_active = true;
    }

    /// Crash or restore a machine. Crashing SIGKILLs every process on it.
    pub fn set_machine_up(&mut self, m: MachineId, up: bool) {
        let li = self.shared.lane_of(m);
        let local = self.lanes[li].local_of(m);
        if self.lanes[li].machines[local].up == up {
            return;
        }
        let now = self.now;
        self.lanes[li].machines[local].set_up(now, up);
        // Keep the cross-lane liveness mirror coherent: machine power
        // changes only ever happen here, between dispatches.
        self.shared.up[m.0 as usize].store(up, Ordering::Relaxed);
        self.trace.record(
            now,
            "machine.power",
            format_args!("{} up={up}", self.shared.host_names[m.0 as usize]),
        );
        if !up {
            let victims: Vec<ProcId> = self.lanes[li]
                .procs_on(m)
                .filter(|(_, e)| matches!(e.state, ProcState::Running))
                .map(|(p, _)| p)
                .collect();
            self.lane_op(m, |lane, shared| {
                for v in victims {
                    lane.terminate(shared, v, ExitStatus::Killed(Signal::Kill));
                }
            });
        }
    }

    // ------------------------------------------------------------------
    // Queue-stats mirror + cross-lane plumbing
    // ------------------------------------------------------------------

    fn note_pop(&mut self) {
        self.stats.dispatched += 1;
        self.stats.depth -= 1;
    }

    fn note_pushes(&mut self, n: u32) {
        self.stats.scheduled += n as u64;
        self.stats.depth += n as usize;
        if self.stats.depth > self.stats.peak_depth {
            self.stats.peak_depth = self.stats.depth;
        }
    }

    /// Forward lane `li`'s cross-lane pushes to their destination queues.
    fn drain_outbox(&mut self, li: usize) {
        if self.lanes[li].outbox.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.lanes[li].outbox);
        for (dest, at, key, ev) in out.drain(..) {
            self.lanes[dest].queue.push_seq(at, key, ev);
        }
        self.lanes[li].outbox = out; // keep the capacity
    }

    /// Fold lane `li`'s staged metrics into the world registry. Counter
    /// merges are exact; float sums merge in barrier order, which is why
    /// the determinism contract covers traces and `QueueStats` but not
    /// float-valued metric digits across execution modes (§17).
    fn merge_lane_metrics(&mut self, li: usize) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        if let Some(staged) = self.lanes[li].metrics.as_mut() {
            if !staged.is_empty() {
                m.registry.merge(staged);
                *staged = MetricsRegistry::new();
            }
        }
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Earliest pending `(source, time, key)` across all lane queues and
    /// the harness queue (`usize::MAX` = harness).
    fn peek_min(&self) -> Option<(usize, SimTime, u64)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((t, k)) = lane.queue.peek_key() {
                if best.map(|(_, bt, bk)| (t, k) < (bt, bk)).unwrap_or(true) {
                    best = Some((i, t, k));
                }
            }
        }
        if let Some((t, k)) = self.harness_q.peek_key() {
            if best.map(|(_, bt, bk)| (t, k) < (bt, bk)).unwrap_or(true) {
                best = Some((usize::MAX, t, k));
            }
        }
        best
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.peek_min().map(|(_, t, _)| t)
    }

    fn pop_min(&mut self) -> Option<(SimTime, u64, Event)> {
        let (src, t, k) = self.peek_min()?;
        let q = if src == usize::MAX {
            &mut self.harness_q
        } else {
            &mut self.lanes[src].queue
        };
        let (at, ev) = q.pop().expect("peeked head");
        debug_assert_eq!(at, t);
        Some((at, k, ev))
    }

    /// Dispatch one event — the globally minimal one, or the oracle's
    /// pick among the earliest instant's batch. Returns `false` if the
    /// queues are empty. A harness closure runs on the coordinator; a
    /// lane event goes through its lane's logged dispatch and the same
    /// replay, outbox hand-over and metrics fold as a window's barrier.
    pub fn step(&mut self) -> bool {
        let popped = if self.oracle.is_some() {
            self.pop_with_oracle()
        } else {
            self.pop_min()
        };
        let Some((at, key, ev)) = popped else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.sample_metrics_at(at);
        if let Some(syn) = self.syn.as_mut() {
            if at >= syn.window_end() {
                syn.open_window(at, at + self.shared.cost.lookahead());
            }
        }
        match ev {
            Event::Harness(f) => self.dispatch_harness(at, key, f),
            ev => {
                let li = self.shared.lane_of(ev.machine().unwrap_or(MachineId(0)));
                self.lanes[li].dispatch_logged(&self.shared, at, key, ev);
                let mut rec = self.lanes[li].log.pop().expect("just logged");
                self.replay(li, &mut rec);
                self.drain_outbox(li);
                self.merge_lane_metrics(li);
            }
        }
        true
    }

    /// Run a harness closure on the coordinator, between windows.
    fn dispatch_harness(&mut self, at: SimTime, key: u64, f: HarnessFn) {
        self.note_pop();
        self.now = at;
        if let Some(syn) = self.syn.as_mut() {
            syn.note_dispatch(0);
        }
        self.harness_keys.begin_dispatch();
        if self.hb_trace {
            let hb = HbInfo {
                did: (self.harness_keys.origin(), self.harness_keys.dispatch_idx()),
                info: EventInfo {
                    kind: EventKind::Harness,
                    proc: None,
                    other: None,
                    machine: None,
                    payload_hash: 0,
                },
            };
            self.emit_hb(key, 0, &hb);
        }
        f(self);
    }

    /// Emit the happens-before records for one dispatch: a `shard.window`
    /// record whenever the synchronizer opened a new window, then one
    /// `shard.ev` record carrying the popped event's key, the dispatch
    /// identity it ran as, its lane, window ordinal, cause edge (the
    /// origin/dispatch that pushed it), and kernel footprint. Records go
    /// to the canonical recorder ahead of the handler's own staged
    /// records, so they land in dispatch order.
    fn emit_hb(&mut self, key: u64, lane: usize, hb: &HbInfo) {
        let Some(syn) = self.syn.as_ref() else { return };
        let w = syn.windows();
        if w != self.hb_last_window {
            self.hb_last_window = w;
            let detail = format!(
                "w{w} end={}us la={}us",
                syn.window_end().as_micros(),
                self.shared.cost.lookahead().as_micros()
            );
            self.trace.record(self.now, "shard.window", detail);
        }
        let k = DispatchKey(key);
        let cause = if k.origin() == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", k.origin(), k.dispatch_idx())
        };
        let dash = || "-".to_string();
        let info = &hb.info;
        let detail = format!(
            "ev={} did={}/{} lane={} w={} cause={} k={:?} p={} o={} m={}",
            k,
            hb.did.0,
            hb.did.1,
            lane,
            w,
            cause,
            info.kind,
            info.proc.map_or_else(dash, |p| p.to_string()),
            info.other.map_or_else(dash, |p| p.to_string()),
            info.machine.map_or_else(dash, |m| m.to_string()),
        );
        self.trace.record(self.now, "shard.ev", detail);
    }

    /// Oracle-guided pop: drain the earliest instant's batch from the
    /// harness queue and lane 0's queue, let the installed [`WorldOracle`]
    /// pick one entry, and put the rest back with their original keys.
    /// Singleton batches never consult the oracle, so guidance only costs
    /// anything where a real scheduling choice exists.
    fn pop_with_oracle(&mut self) -> Option<(SimTime, u64, Event)> {
        debug_assert_eq!(self.lanes.len(), 1, "oracles require a single lane");
        let at = self.peek_time()?;
        let mut batch = Vec::new();
        for q in [&mut self.harness_q, &mut self.lanes[0].queue] {
            if q.peek_time() == Some(at) {
                batch.extend(q.pop_front_batch().expect("peeked").1);
            }
        }
        // Harness closures carry origin-0 keys, which sort first; only
        // harness-pushed lane events can interleave with them.
        batch.sort_unstable_by_key(|&(key, _)| key);
        if batch.len() == 1 {
            let (key, ev) = batch.pop().expect("len checked");
            return Some((at, key, ev));
        }
        let infos: Vec<EventInfo> = batch
            .iter()
            .map(|(_, ev)| self.lanes[0].event_info(ev))
            .collect();
        let extra: Vec<(SimTime, EventInfo)> = infos.iter().map(|&i| (at, i)).collect();
        let state = self.fingerprint_with(&extra);
        // Take the oracle out so it can borrow the world-free batch data
        // while we still own `self`.
        let mut oracle = self.oracle.take().expect("caller checked");
        let idx = oracle.choose(at, state, &infos).min(batch.len() - 1);
        self.oracle = Some(oracle);
        let (key, chosen) = batch.swap_remove(idx);
        for (k, ev) in batch {
            let q = if matches!(ev, Event::Harness(_)) {
                &mut self.harness_q
            } else {
                &mut self.lanes[0].queue
            };
            q.requeue(at, k, ev);
        }
        Some((at, key, chosen))
    }

    /// Run until virtual time reaches `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_idle(t);
        if self.now < t {
            self.now = t;
        }
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until the queue drains (only terminates for worlds without
    /// self-rearming timers) or `limit` is reached.
    ///
    /// This is the window loop. Each window opens at the earliest pending
    /// lane event and ends, exclusively in `(time, key)`, one lookahead
    /// later, clamped at the limit, the next harness closure and the next
    /// metrics sample point. Every lane with work before the end runs its
    /// window, then the barrier replays the logs. A harness closure due
    /// first runs on its own through [`World::step`]. With a schedule
    /// oracle installed the run steps instead, one event at a time.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        if self.oracle.is_some() {
            self.run_until_pred(limit, |_| false);
            return;
        }
        let past_limit = (SimTime(limit.0.saturating_add(1)), 0);
        while let Some((src, head, key)) = self.peek_min() {
            if head > limit {
                break;
            }
            if src == usize::MAX {
                self.step();
                continue;
            }
            self.sample_metrics_at(head);
            let mut end = past_limit.min((head + self.shared.cost.lookahead(), 0));
            if let Some(h) = self.harness_q.peek_key() {
                end = end.min(h);
            }
            if let Some(m) = self.metrics.as_ref() {
                end = end.min((m.next_at, 0));
            }
            debug_assert!((head, key) < end, "degenerate window");
            if let Some(syn) = self.syn.as_mut() {
                syn.open_window(head, end.0);
            }
            self.active.clear();
            for (li, lane) in self.lanes.iter().enumerate() {
                if lane.queue.peek_key().is_some_and(|k| k < end) {
                    self.active.push(li);
                }
            }
            self.run_lanes(end);
            self.barrier();
        }
    }

    /// Run until `pred(world)` holds, checking after every event, up to
    /// `limit`. Returns `true` if the predicate was satisfied. Steps one
    /// event at a time: the predicate must observe every state the kernel
    /// exposes, including mid-window ones.
    pub fn run_until_pred(&mut self, limit: SimTime, pred: impl Fn(&World) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        while let Some(next) = self.peek_time() {
            if next > limit {
                break;
            }
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Run the window of every active lane up to `end`: inline on the
    /// coordinator when one lane is active or the world has one thread,
    /// on the worker pool otherwise. A behavior panic is re-raised here,
    /// naming the lowest panicking lane, its dispatch and the window.
    fn run_lanes(&mut self, end: (SimTime, u64)) {
        if self.active.len() == 1 || self.threads == 1 {
            for &li in &self.active {
                if let Err(p) = run_window_caught(&mut self.lanes[li], &self.shared, end) {
                    self.lane_panicked(li, end.0, p);
                }
            }
            return;
        }
        let workers = self.threads.min(self.lanes.len());
        let pool = self.pool.get_or_insert_with(|| Pool::new(workers));
        for &li in &self.active {
            let lane = std::mem::replace(&mut self.lanes[li], Lane::placeholder());
            pool.txs[li % workers]
                .send(Job {
                    lane,
                    idx: li,
                    end,
                    shared: Arc::clone(&self.shared),
                })
                .expect("lane worker alive");
        }
        // Collect every lane before re-raising, so the lowest panicking
        // lane is the one reported.
        let mut panicked: Option<(usize, LanePanic)> = None;
        for _ in 0..self.active.len() {
            let (li, lane, ran) = pool.rx.recv().expect("lane worker alive");
            self.lanes[li] = lane;
            if let Err(p) = ran {
                if panicked.as_ref().is_none_or(|&(first, _)| li < first) {
                    panicked = Some((li, p));
                }
            }
        }
        if let Some((li, p)) = panicked {
            self.lane_panicked(li, end.0, p);
        }
    }

    /// Re-raise a panic caught in a lane's window on the coordinator,
    /// naming the lane, the dispatch's time and machine, and the window.
    fn lane_panicked(&self, lane: usize, end: SimTime, p: LanePanic) -> ! {
        let msg = p
            .payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| p.payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let host = &self.shared.host_names[p.machine.0 as usize];
        panic!(
            "lane {lane} panicked at {} on {host} in the window ending at {end}: {msg}",
            p.at
        );
    }

    /// The barrier: replay the active lanes' dispatch logs against the
    /// world-side observers in canonical `(time, key)` order — this is
    /// where byte-identity with a one-lane run is restored — then forward
    /// cross-lane pushes, which always land at least one lookahead past
    /// the window, and fold staged metrics. Every window of every bulk run
    /// ends here.
    fn barrier(&mut self) {
        let active = std::mem::take(&mut self.active);
        if let [li] = active[..] {
            let mut log = std::mem::take(&mut self.lanes[li].log);
            for rec in &mut log {
                self.replay(li, rec);
            }
            log.clear();
            self.lanes[li].log = log;
        } else {
            let mut logs: Vec<Vec<DispatchRecord>> = active
                .iter()
                .map(|&li| std::mem::take(&mut self.lanes[li].log))
                .collect();
            let order = {
                let slices: Vec<&[DispatchRecord]> = logs.iter().map(Vec::as_slice).collect();
                merge_dispatch_logs(&slices, |r| (r.at, DispatchKey(r.key)))
            };
            for (si, pos) in order {
                self.replay(active[si], &mut logs[si][pos]);
            }
            for (&li, mut log) in active.iter().zip(logs) {
                log.clear();
                self.lanes[li].log = log;
            }
        }
        for &li in &active {
            self.drain_outbox(li);
            self.merge_lane_metrics(li);
        }
        self.active = active;
    }

    /// Apply one logged dispatch of lane `li` to the world-side observers.
    fn replay(&mut self, li: usize, rec: &mut DispatchRecord) {
        debug_assert!(rec.at >= self.now, "merged log went backwards");
        self.note_pop();
        self.now = rec.at;
        if let Some(syn) = self.syn.as_mut() {
            syn.note_dispatch(li);
        }
        if let Some(hb) = rec.hb.take() {
            self.emit_hb(rec.key, li, &hb);
        }
        self.trace.absorb_events(std::mem::take(&mut rec.traces));
        self.note_pushes(rec.pushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    /// The compile-time proof behind the threading model: whole lanes
    /// (with their behaviors, queues, and staging state) migrate between
    /// worker threads, and the shared remainder is reachable from any
    /// thread. A non-`Send` field sneaking into either breaks this test
    /// at compile time, not at 2 a.m. in a soak run.
    #[test]
    fn lanes_and_shared_core_cross_threads() {
        assert_send::<Lane>();
        assert_send::<SharedCore>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<SharedCore>();
    }
}
