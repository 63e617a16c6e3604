//! Lanes: the `Send` execution units of the parallel kernel.
//!
//! A [`Lane`] owns every machine `m` with `m % shards == lane`, and with
//! them *all* mutable state a dispatch on those machines can touch: the
//! process tables, CPU schedulers, per-machine id/RNG/key streams, the
//! lane's slice of the event queue, and staging buffers for traces,
//! metrics and profiling. Nothing a behavior can reach during a dispatch
//! is shared mutably with any other lane — the immutable remainder of the
//! world (cost model, host table, factories) lives in [`SharedCore`]
//! behind an `Arc` — so whole lanes migrate between worker threads at
//! window barriers with no locking, and `Lane: Send` is the compile-time
//! proof (see `DESIGN.md` §17).
//!
//! Determinism rests on two per-machine allocation disciplines:
//!
//! * **ids** — ProcIds, rsh handles, timer tokens, CPU tokens and span
//!   ids are allocated from per-machine counters and carry the machine in
//!   their high bits ([`rb_proto::MACHINE_TAG_SHIFT`]), so concurrent
//!   lanes can never mint colliding ids;
//! * **dispatch keys** — every pushed event gets a machine-affine
//!   [`DispatchKey`](rb_simcore::DispatchKey) from the pushing machine's
//!   [`KeyStream`], and all kernels dispatch in lexicographic
//!   `(time, key)` order, which makes the global order a pure function of
//!   the simulation, not of thread interleaving.

use crate::cost::CostModel;
use crate::ctx::Ctx;
use crate::factory::{ProgramFactory, RshPrimeFactory, RshPrimeRequest};
use crate::machine::MachineState;
use crate::process::{Behavior, ProcEnv, ProcState, RshBinding};
use crate::world::World;
use rb_proto::{
    CommandSpec, ExitStatus, HostSpec, MachineAttrs, MachineId, Payload, ProcId, RshError,
    RshHandle, Signal, TimerToken, MACHINE_TAG_SHIFT,
};
use rb_simcore::{
    Duration, EventQueue, FxHashMap, KeyStream, MetricsRegistry, ProfTimer, Profiler, SimRng,
    SimTime, SpanTracker, TraceEvent, TraceRecorder,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Pseudo-sender for messages injected by the test/scenario harness.
pub const HARNESS: ProcId = ProcId(0);

/// A deferred harness action (scenario scripting). `Send` so worlds whose
/// schedules contain harness actions still thread their lanes — the
/// closures themselves only ever run on the coordinator.
pub type HarnessFn = Box<dyn FnOnce(&mut World) + Send>;

pub(crate) enum Event {
    Start(ProcId),
    Deliver {
        to: ProcId,
        from: ProcId,
        msg: Payload,
    },
    Timer {
        proc: ProcId,
        token: TimerToken,
    },
    SigDeliver {
        proc: ProcId,
        sig: Signal,
    },
    CpuRecheck {
        machine: MachineId,
        gen: u64,
    },
    RshAdvance {
        handle: RshHandle,
        target: MachineId,
        /// The in-flight operation itself, carried by the first hop from
        /// the caller's lane to the target's (explicit ownership handoff);
        /// `None` on the target-local Connecting → Forking hop.
        op: Option<Box<RshOp>>,
    },
    RshComplete {
        handle: RshHandle,
        to: ProcId,
        result: Result<ExitStatus, RshError>,
    },
    ChildExit {
        parent: ProcId,
        child: ProcId,
        status: ExitStatus,
    },
    ChildDetach {
        parent: ProcId,
        child: ProcId,
    },
    Harness(HarnessFn),
}

impl Event {
    /// The machine whose lane-owned state this event's handler runs on,
    /// decoded from the target id's machine tag. `None` for harness
    /// closures and deliveries to the untagged harness pseudo-process
    /// (both are routed to lane 0 by the caller).
    pub(crate) fn machine(&self) -> Option<MachineId> {
        match self {
            Event::Start(p) => p.machine_tag(),
            Event::Deliver { to, .. } => to.machine_tag(),
            Event::Timer { proc, .. } => proc.machine_tag(),
            Event::SigDeliver { proc, .. } => proc.machine_tag(),
            Event::CpuRecheck { machine, .. } => Some(*machine),
            Event::RshAdvance { target, .. } => Some(*target),
            Event::RshComplete { to, .. } => to.machine_tag(),
            Event::ChildExit { parent, .. } => parent.machine_tag(),
            Event::ChildDetach { parent, .. } => parent.machine_tag(),
            Event::Harness(_) => None,
        }
    }
}

/// The kind of a pending kernel event, as exposed to schedule oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum EventKind {
    Start,
    Deliver,
    Timer,
    Signal,
    CpuRecheck,
    RshAdvance,
    RshComplete,
    ChildExit,
    ChildDetach,
    /// Scripted harness action; opaque, touches arbitrary state.
    Harness,
}

/// What a pending event touches — the kernel-visible footprint a model
/// checker needs for independence reasoning, without exposing the private
/// [`Event`] payloads themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventInfo {
    /// Which kind of kernel event this is.
    pub kind: EventKind,
    /// Primary target process (the one whose behavior runs).
    pub proc: Option<ProcId>,
    /// Secondary process involved (sender, exiting child, rsh caller).
    pub other: Option<ProcId>,
    /// Machine whose state the event reads or writes.
    pub machine: Option<MachineId>,
    /// Hash of the message payload (0 when the event carries none);
    /// distinguishes same-shaped deliveries in fingerprints.
    pub payload_hash: u64,
}

impl EventInfo {
    /// Dynamic independence: two events commute if they run disjoint
    /// processes *and* touch disjoint machine state. Harness events are
    /// opaque closures over the whole world, so they commute with nothing.
    /// This is deliberately conservative — dependent-but-actually-commuting
    /// pairs only cost extra exploration, never missed interleavings.
    pub fn independent(&self, other: &EventInfo) -> bool {
        if self.kind == EventKind::Harness || other.kind == EventKind::Harness {
            return false;
        }
        let procs_disjoint = [self.proc, self.other]
            .iter()
            .flatten()
            .all(|p| Some(*p) != other.proc && Some(*p) != other.other);
        let machines_disjoint = match (self.machine, other.machine) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        };
        procs_disjoint && machines_disjoint
    }
}

/// `fmt::Write` adapter feeding a hasher, so `Debug` renderings can be
/// hashed without allocating (message payloads don't implement `Hash`).
struct HashWriter<'a>(&'a mut rb_simcore::FxHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        use std::hash::Hasher;
        self.0.write(s.as_bytes());
        Ok(())
    }
}

pub(crate) fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher;
    let mut h = rb_simcore::FxHasher::default();
    write!(HashWriter(&mut h), "{value:?}").expect("hashing never fails");
    h.finish()
}

pub(crate) struct ProcEntry {
    pub behavior: Option<Box<dyn Behavior>>,
    pub name: &'static str,
    pub machine: MachineId,
    pub parent: Option<ProcId>,
    pub env: ProcEnv,
    pub state: ProcState,
    /// `rsh` operation waiting on this process (completion on detach/exit).
    pub waited_rsh: Option<RshHandle>,
    /// Set when this process is an `rsh'` shim: (caller, caller's handle).
    pub rsh_prime_for: Option<(ProcId, RshHandle)>,
    pub detached: bool,
    /// Whether this process ever registered a service (lets `terminate`
    /// skip the registry sweep for the common serviceless process).
    pub has_services: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RshStage {
    /// Handle allocated, operation not yet routed (transient).
    Pending,
    Connecting,
    Forking,
    Waiting(ProcId),
}

/// One in-flight `rsh` operation. Lives in the map of the lane currently
/// responsible for advancing it: the caller's lane while pending, the
/// target's lane once the first [`Event::RshAdvance`] hop ships it over.
pub(crate) struct RshOp {
    pub caller: ProcId,
    pub target: MachineId,
    pub cmd: CommandSpec,
    /// Filled by `standard_rsh` before the op reaches `Forking`.
    pub child_env: Option<ProcEnv>,
    pub stage: RshStage,
}

/// The immutable (or coordinator-written) remainder of the world, shared
/// read-only by every lane. Everything here is either set once at build
/// time or — for the machine-liveness mirror — written only by the
/// coordinator between windows, where every lane and thread count orders
/// it identically.
pub(crate) struct SharedCore {
    pub cost: CostModel,
    pub shards: usize,
    /// Host-name resolution table, sorted for binary search.
    pub hosts: Vec<(Box<str>, MachineId)>,
    /// Interned host names, indexed by machine id.
    pub host_names: Vec<Arc<str>>,
    /// Static machine attributes, indexed by machine id (readable from
    /// any lane; the *dynamic* [`MachineState`] lives in the owning lane).
    pub attrs: Vec<MachineAttrs>,
    /// Cross-lane mirror of machine liveness. The owning lane's
    /// `MachineState::up` stays authoritative for accounting; this mirror
    /// answers the one cross-machine question (`standard_rsh`'s reachability
    /// check) a dispatch may ask about a machine it does not own. Written
    /// only by the harness at the coordinator, hence `Relaxed` suffices.
    pub up: Vec<AtomicBool>,
    pub default_remote_binding: RshBinding,
    pub factory: Option<Box<dyn ProgramFactory>>,
    pub rsh_prime: Option<Box<dyn RshPrimeFactory>>,
}

impl SharedCore {
    pub(crate) fn machine_by_host(&self, host: &str) -> Option<MachineId> {
        self.hosts
            .binary_search_by(|(h, _)| h.as_ref().cmp(host))
            .ok()
            .map(|i| self.hosts[i].1)
    }

    /// Which lane owns a machine.
    #[inline]
    pub(crate) fn lane_of(&self, m: MachineId) -> usize {
        m.0 as usize % self.shards
    }

    /// Cross-lane liveness read (see the `up` field).
    #[inline]
    pub(crate) fn up(&self, m: MachineId) -> bool {
        self.up[m.0 as usize].load(Ordering::Relaxed)
    }
}

/// Per-machine kernel state: the process table and every id/key/RNG
/// stream that machine allocates from. One execution context (the lane
/// that owns the machine) ever touches it, so streams need no
/// synchronization, and because each stream's output is a pure function
/// of the machine's own dispatch history — which the `(time, key)` order
/// makes identical in every execution mode — the ids and keys they mint
/// replay byte-identically however many threads run.
pub(crate) struct MachineKernel {
    pub id: MachineId,
    /// Dense process table: `ProcId::tagged(id, k)` lives at index `k-1`.
    /// Ids are never reused; exited entries stay resident for post-mortem
    /// queries.
    pub procs: Vec<ProcEntry>,
    pub next_timer: u64,
    pub next_cpu_token: u64,
    pub next_rsh: u64,
    /// Pending timer cancellations (usually empty, rarely more than a
    /// handful — a scan beats hashing here).
    pub cancelled_timers: Vec<TimerToken>,
    /// Per-machine RNG stream, forked from the world seed.
    pub rng: SimRng,
    /// Dispatch-key stream (origin `id + 1`).
    pub keys: KeyStream,
    /// Span-id allocator, seeded into this machine's tagged id range.
    pub spans: SpanTracker,
}

impl MachineKernel {
    pub(crate) fn new(id: MachineId, seed: u64) -> Self {
        MachineKernel {
            id,
            procs: Vec::new(),
            next_timer: 1,
            next_cpu_token: 1,
            next_rsh: 1,
            cancelled_timers: Vec::new(),
            rng: SimRng::forked(seed, id.0 as u64 + 1),
            keys: KeyStream::for_machine(id.0 as u64),
            spans: SpanTracker::starting_at(((id.0 as u64 + 1) << MACHINE_TAG_SHIFT) + 1),
        }
    }
}

/// One logged dispatch, replayed by the coordinator at the barrier: when
/// it ran, under which key, how many events it pushed, the trace events
/// it staged, and (when happens-before tracing is on) its footprint. The
/// coordinator applies records in merged `(time, key)` order, which makes
/// every world-side observable — canonical trace, `QueueStats` mirror,
/// synchronizer counters — the same whatever the lane count.
pub(crate) struct DispatchRecord {
    pub at: SimTime,
    pub key: u64,
    pub pushes: u32,
    pub traces: Vec<TraceEvent>,
    pub hb: Option<Box<HbInfo>>,
}

/// Pre-dispatch footprint captured for a `shard.ev` happens-before record.
pub(crate) struct HbInfo {
    /// `(origin, dispatch_idx)` this dispatch ran as.
    pub did: (u64, u64),
    pub info: EventInfo,
}

/// A lane: the machines it owns plus its slice of the event queue and
/// all staging state. See the module docs for the ownership story.
pub(crate) struct Lane {
    pub idx: usize,
    pub shards: usize,
    pub now: SimTime,
    pub queue: EventQueue<Event>,
    /// Dynamic machine state, indexed by local machine index (`m / shards`).
    pub machines: Vec<MachineState>,
    /// Per-machine kernel streams, same indexing.
    pub mkern: Vec<MachineKernel>,
    /// Running processes by behavior name, ids ascending (so
    /// machine-major). Only `insert_proc` and `terminate` move a process
    /// into or out of `Running`, and a name never changes after spawn, so
    /// those two keep it exact; `World::procs_named` reads it instead of
    /// scanning every entry ever spawned.
    pub running: FxHashMap<&'static str, Vec<ProcId>>,
    /// In-flight rsh operations this lane is responsible for advancing.
    pub rsh_ops: FxHashMap<u64, RshOp>,
    /// (machine, user, service-name) -> provider process.
    pub services: FxHashMap<(MachineId, String, String), ProcId>,
    /// Stable storage: (machine, user, file) -> bytes. Survives process
    /// death and machine crashes (it's a disk).
    pub disks: FxHashMap<(MachineId, String, String), Vec<u8>>,
    /// Trace staging: dispatch handlers record here; the coordinator
    /// absorbs into the canonical recorder in dispatch order. Enabled iff
    /// the world traces, so untraced runs pay nothing.
    pub trace: TraceRecorder,
    /// Metrics staging for `Ctx::metric_*` calls, merged at barriers.
    pub metrics: Option<MetricsRegistry>,
    /// Cumulative kernel self-profile for dispatches this lane ran;
    /// `World::profiler` merges the per-lane profiles on demand.
    pub prof: Option<Box<Profiler>>,
    /// Cross-lane pushes made during dispatch: `(dest lane, at, key, ev)`,
    /// forwarded by the coordinator at the barrier.
    pub outbox: Vec<(usize, SimTime, u64, Event)>,
    /// Dispatch log of the running window, replayed and cleared by the
    /// coordinator at the barrier (its capacity is kept).
    pub log: Vec<DispatchRecord>,
    /// Local index of the machine whose dispatch is running (whose key
    /// stream pushes draw from).
    pub cur: usize,
    /// Events pushed by the current dispatch (queue-stats mirror input).
    pub pushed: u32,
    /// Host wall time this lane spent dispatching (profiled runs only).
    pub wall_ns: u64,
    /// Record happens-before footprints into the dispatch log.
    pub hb: bool,
}

impl Lane {
    /// An empty stand-in swapped into the coordinator's lane slot while
    /// the real lane is out on a worker thread. Never dispatched into —
    /// `idx: usize::MAX` makes any accidental use assert immediately.
    pub(crate) fn placeholder() -> Lane {
        Lane {
            idx: usize::MAX,
            shards: 1,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            machines: Vec::new(),
            mkern: Vec::new(),
            running: Default::default(),
            rsh_ops: Default::default(),
            services: Default::default(),
            disks: Default::default(),
            trace: TraceRecorder::disabled(),
            metrics: None,
            prof: None,
            outbox: Vec::new(),
            log: Vec::new(),
            cur: 0,
            pushed: 0,
            wall_ns: 0,
            hb: false,
        }
    }

    /// Local index of one of this lane's machines.
    #[inline]
    pub(crate) fn local_of(&self, m: MachineId) -> usize {
        debug_assert_eq!(
            m.0 as usize % self.shards,
            self.idx,
            "machine not on this lane"
        );
        m.0 as usize / self.shards
    }

    /// Process-table lookup. `None` for untagged ids (the harness
    /// pseudo-process), machines another lane owns, and ids never issued.
    pub(crate) fn proc(&self, p: ProcId) -> Option<&ProcEntry> {
        let m = p.machine_tag()?;
        if m.0 as usize % self.shards != self.idx {
            return None;
        }
        self.mkern
            .get(m.0 as usize / self.shards)?
            .procs
            .get((p.local() as usize).checked_sub(1)?)
    }

    pub(crate) fn proc_mut(&mut self, p: ProcId) -> Option<&mut ProcEntry> {
        let m = p.machine_tag()?;
        if m.0 as usize % self.shards != self.idx {
            return None;
        }
        self.mkern
            .get_mut(m.0 as usize / self.shards)?
            .procs
            .get_mut((p.local() as usize).checked_sub(1)?)
    }

    pub(crate) fn alive(&self, p: ProcId) -> bool {
        self.proc(p)
            .map(|e| matches!(e.state, ProcState::Running))
            .unwrap_or(false)
    }

    /// Ids of every process on machine `m`, in allocation order.
    pub(crate) fn procs_on(&self, m: MachineId) -> impl Iterator<Item = (ProcId, &ProcEntry)> {
        let local = self.local_of(m);
        self.mkern[local]
            .procs
            .iter()
            .enumerate()
            .map(move |(i, e)| (ProcId::tagged(m, i as u64 + 1), e))
    }

    /// All `(id, entry)` pairs this lane owns, machine-major in id order.
    pub(crate) fn iter_procs(&self) -> impl Iterator<Item = (ProcId, &ProcEntry)> {
        self.mkern.iter().flat_map(|k| {
            k.procs
                .iter()
                .enumerate()
                .map(move |(i, e)| (ProcId::tagged(k.id, i as u64 + 1), e))
        })
    }

    /// The kernel-visible footprint of an event pending on (or popped
    /// from) this lane's queue (see [`EventInfo`]).
    pub(crate) fn event_info(&self, ev: &Event) -> EventInfo {
        let (kind, proc, other, machine, payload_hash) = match ev {
            Event::Start(p) => (EventKind::Start, Some(*p), None, p.machine_tag(), 0),
            Event::Deliver { to, from, msg } => (
                EventKind::Deliver,
                Some(*to),
                Some(*from),
                to.machine_tag(),
                debug_hash(msg),
            ),
            Event::Timer { proc, token } => (
                EventKind::Timer,
                Some(*proc),
                None,
                proc.machine_tag(),
                token.0,
            ),
            Event::SigDeliver { proc, sig } => (
                EventKind::Signal,
                Some(*proc),
                None,
                proc.machine_tag(),
                *sig as u64 + 1,
            ),
            Event::CpuRecheck { machine, gen } => {
                (EventKind::CpuRecheck, None, None, Some(*machine), *gen)
            }
            Event::RshAdvance { handle, target, op } => {
                let caller = op
                    .as_ref()
                    .map(|o| o.caller)
                    .or_else(|| self.rsh_ops.get(&handle.0).map(|o| o.caller));
                // Fold the shipped command into the hash so an op that is
                // in flight (invisible to the rsh_ops sweep) still
                // contributes its content to fingerprints.
                let ph = match op {
                    Some(o) => handle.0.wrapping_add(debug_hash(&o.cmd)),
                    None => handle.0,
                };
                (EventKind::RshAdvance, caller, None, Some(*target), ph)
            }
            Event::RshComplete { handle, to, .. } => (
                EventKind::RshComplete,
                Some(*to),
                None,
                to.machine_tag(),
                handle.0,
            ),
            Event::ChildExit { parent, child, .. } => (
                EventKind::ChildExit,
                Some(*parent),
                Some(*child),
                parent.machine_tag(),
                0,
            ),
            Event::ChildDetach { parent, child } => (
                EventKind::ChildDetach,
                Some(*parent),
                Some(*child),
                parent.machine_tag(),
                0,
            ),
            Event::Harness(_) => (EventKind::Harness, None, None, None, 0),
        };
        EventInfo {
            kind,
            proc,
            other,
            machine,
            payload_hash,
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Dispatch one event that belongs to this lane and log it for the
    /// coordinator's replay. Machine-less events (deliveries to the
    /// harness pseudo-process) run as machine 0, which lane 0 owns.
    pub(crate) fn dispatch_logged(
        &mut self,
        shared: &SharedCore,
        at: SimTime,
        key: u64,
        ev: Event,
    ) {
        let info = self.hb.then(|| self.event_info(&ev));
        self.now = at;
        self.pushed = 0;
        let m = ev.machine().unwrap_or(MachineId(0));
        let local = self.local_of(m);
        self.cur = local;
        let keys = &mut self.mkern[local].keys;
        keys.begin_dispatch();
        let did = (keys.origin(), keys.dispatch_idx());
        let t0 = (self.prof.is_some() && self.shards > 1).then(ProfTimer::start);
        self.handle(shared, ev);
        if let Some(t0) = t0 {
            let ns = t0.elapsed_ns();
            self.wall_ns += ns;
            let idx = self.idx;
            if let Some(prof) = self.prof.as_deref_mut() {
                prof.record_lane(idx, ns);
            }
        }
        let traces = self.trace.take_events();
        self.log.push(DispatchRecord {
            at,
            key,
            pushes: self.pushed,
            traces,
            hb: info.map(|info| Box::new(HbInfo { did, info })),
        });
    }

    /// A window's body: dispatch every pending event whose `(time, key)`
    /// lies before `end`. Conservative synchronization guarantees no
    /// cross-lane event inside the window can appear while it runs, so the
    /// lane needs nothing from anyone else.
    pub(crate) fn run_window(&mut self, shared: &SharedCore, end: (SimTime, u64)) {
        while let Some(head) = self.queue.peek_key().filter(|&head| head < end) {
            let (at, ev) = self.queue.pop().expect("peeked head");
            self.dispatch_logged(shared, at, head.1, ev);
        }
    }

    fn handle(&mut self, shared: &SharedCore, ev: Event) {
        match ev {
            Event::Start(p) => self.dispatch(shared, p, |b, ctx| b.on_start(ctx)),
            Event::Deliver { to, from, msg } => {
                if self.alive(to) {
                    let kind = self.prof.as_ref().map(|_| msg.kind_name());
                    let t0 = kind.map(|_| ProfTimer::start());
                    self.dispatch(shared, to, move |b, ctx| b.on_message(ctx, from, msg));
                    if let (Some(kind), Some(t0)) = (kind, t0) {
                        let ns = t0.elapsed_ns();
                        if let Some(prof) = self.prof.as_deref_mut() {
                            prof.record_payload(kind, ns);
                        }
                    }
                } else {
                    self.trace
                        .record(self.now, "msg.drop", format_args!("to dead {to}"));
                }
            }
            Event::Timer { proc, token } => {
                let m = self.cur;
                if let Some(i) = self.mkern[m]
                    .cancelled_timers
                    .iter()
                    .position(|&t| t == token)
                {
                    self.mkern[m].cancelled_timers.swap_remove(i);
                    return;
                }
                self.dispatch(shared, proc, move |b, ctx| b.on_timer(ctx, token));
            }
            Event::SigDeliver { proc, sig } => {
                if !self.alive(proc) {
                    return;
                }
                let name = self.proc(proc).expect("alive").name;
                self.trace.record(
                    self.now,
                    "sig.deliver",
                    format_args!("{proc} {name} {sig:?}"),
                );
                if sig == Signal::Kill {
                    self.terminate(shared, proc, ExitStatus::Killed(Signal::Kill));
                } else {
                    self.dispatch(shared, proc, move |b, ctx| b.on_signal(ctx, sig));
                }
            }
            Event::CpuRecheck { machine, gen } => {
                let local = self.local_of(machine);
                if self.machines[local].cpu.generation() != gen {
                    return; // stale
                }
                let (done, _) = self.machines[local].cpu.take_finished(self.now);
                for (p, token) in done {
                    self.dispatch(shared, p, move |b, ctx| b.on_cpu_done(ctx, token));
                }
                self.reschedule_cpu(shared, machine);
            }
            Event::RshAdvance { handle, target, op } => {
                self.rsh_advance(shared, handle, target, op)
            }
            Event::RshComplete { handle, to, result } => {
                // The op was already retired by whichever lane pushed the
                // completion; this remove only covers defensive paths.
                self.rsh_ops.remove(&handle.0);
                self.trace.record(
                    self.now,
                    "rsh.complete",
                    format_args!("{handle} -> {result:?}"),
                );
                if self.alive(to) {
                    self.dispatch(shared, to, move |b, ctx| {
                        b.on_rsh_result(ctx, handle, result)
                    });
                }
            }
            Event::ChildExit {
                parent,
                child,
                status,
            } => {
                self.dispatch(shared, parent, move |b, ctx| {
                    b.on_child_exit(ctx, child, status)
                });
            }
            Event::Harness(_) => {
                unreachable!("harness events are dispatched by the coordinator")
            }
            Event::ChildDetach { parent, child } => {
                self.dispatch(shared, parent, move |b, ctx| b.on_child_detach(ctx, child));
            }
        }
    }

    fn dispatch(
        &mut self,
        shared: &SharedCore,
        p: ProcId,
        f: impl FnOnce(&mut dyn Behavior, &mut Ctx<'_>),
    ) {
        let Some(entry) = self.proc_mut(p) else {
            return;
        };
        if !matches!(entry.state, ProcState::Running) {
            return;
        }
        let Some(mut behavior) = entry.behavior.take() else {
            return; // re-entrant dispatch cannot happen, but be safe
        };
        let name = entry.name;
        let t0 = self.prof.as_ref().map(|_| ProfTimer::start());
        let mut ctx = Ctx::new(self, shared, p);
        f(behavior.as_mut(), &mut ctx);
        let exit = ctx.take_exit();
        if let (Some(t0), Some(prof)) = (t0, self.prof.as_deref_mut()) {
            prof.record_behavior(name, t0.elapsed_ns());
        }
        if let Some(entry) = self.proc_mut(p) {
            if matches!(entry.state, ProcState::Running) {
                entry.behavior = Some(behavior);
            }
        }
        if let Some(status) = exit {
            self.terminate(shared, p, status);
        }
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    pub(crate) fn insert_proc(
        &mut self,
        shared: &SharedCore,
        machine: MachineId,
        behavior: Box<dyn Behavior>,
        env: ProcEnv,
        parent: Option<ProcId>,
    ) -> ProcId {
        let local = self.local_of(machine);
        let name = behavior.name();
        if !env.system {
            self.machines[local].app_proc_started(self.now);
        }
        let kern = &mut self.mkern[local];
        let p = ProcId::tagged(machine, kern.procs.len() as u64 + 1);
        kern.procs.push(ProcEntry {
            behavior: Some(behavior),
            name,
            machine,
            parent,
            env,
            state: ProcState::Running,
            waited_rsh: None,
            rsh_prime_for: None,
            detached: false,
            has_services: false,
        });
        // `p` is its machine's newest id, but another machine on this lane
        // may hold larger ones.
        let ids = self.running.entry(name).or_default();
        ids.insert(ids.partition_point(|&q| q < p), p);
        self.trace.record(
            self.now,
            "proc.start",
            format_args!("{p} {name} on {}", shared.host_names[machine.0 as usize]),
        );
        p
    }

    pub(crate) fn terminate(&mut self, shared: &SharedCore, p: ProcId, status: ExitStatus) {
        let Some(entry) = self.proc_mut(p) else {
            return;
        };
        if !matches!(entry.state, ProcState::Running) {
            return;
        }
        entry.state = ProcState::Exited(status);
        entry.behavior = None;
        let machine = entry.machine;
        let parent = entry.parent;
        let waited = entry.waited_rsh.take();
        let prime_for = entry.rsh_prime_for.take();
        let system = entry.env.system;
        let had_services = entry.has_services;
        let name = entry.name;
        let ids = self.running.get_mut(name).expect("running name is indexed");
        let at = ids.binary_search(&p).expect("running process is indexed");
        ids.remove(at);

        let local = self.local_of(machine);
        if !system {
            self.machines[local].app_proc_ended(self.now);
        }
        // Free the CPU and wake the machine's scheduler.
        let (_cancelled, _) = self.machines[local].cpu.remove_proc(self.now, p);
        self.reschedule_cpu(shared, machine);
        // Drop services this process provided (skipped for the common
        // serviceless process).
        if had_services {
            self.services.retain(|_, &mut provider| provider != p);
        }

        self.trace
            .record(self.now, "proc.exit", format_args!("{p} {name} {status}"));

        // Parent notification (local, like SIGCHLD).
        if let Some(parent) = parent {
            if self.alive(parent) {
                self.push_event_at(
                    shared,
                    self.now + shared.cost.local_latency,
                    Event::ChildExit {
                        parent,
                        child: p,
                        status,
                    },
                );
            }
        }
        // A standard rsh waiting on this process completes with its status.
        // The op retires here — the completion dispatches on the caller's
        // lane, which cannot reach this lane's map.
        if let Some(handle) = waited {
            if let Some(op) = self.rsh_ops.remove(&handle.0) {
                self.push_event_at(
                    shared,
                    self.now + shared.cost.lan_latency,
                    Event::RshComplete {
                        handle,
                        to: op.caller,
                        result: Ok(status),
                    },
                );
            }
        }
        // An rsh' shim's exit is its caller's rsh result (the op entry was
        // registered at rsh_begin; caller and shim share a machine).
        if let Some((caller, handle)) = prime_for {
            self.rsh_ops.remove(&handle.0);
            self.push_event_at(
                shared,
                self.now + shared.cost.local_latency,
                Event::RshComplete {
                    handle,
                    to: caller,
                    result: Ok(status),
                },
            );
        }
    }

    /// Mark a process as daemonized; any rsh waiting on it completes now.
    pub(crate) fn detach_proc(&mut self, shared: &SharedCore, p: ProcId) {
        let Some(entry) = self.proc_mut(p) else {
            return;
        };
        if entry.detached {
            return;
        }
        entry.detached = true;
        let parent = entry.parent;
        if let Some(handle) = entry.waited_rsh.take() {
            if let Some(op) = self.rsh_ops.remove(&handle.0) {
                self.push_event_at(
                    shared,
                    self.now + shared.cost.lan_latency,
                    Event::RshComplete {
                        handle,
                        to: op.caller,
                        result: Ok(ExitStatus::Success),
                    },
                );
            }
        }
        if let Some(parent) = parent {
            if self.alive(parent) {
                self.push_event_at(
                    shared,
                    self.now + shared.cost.local_latency,
                    Event::ChildDetach { parent, child: p },
                );
            }
        }
        self.trace
            .record(self.now, "proc.detach", format_args!("{p}"));
    }

    pub(crate) fn reschedule_cpu(&mut self, shared: &SharedCore, m: MachineId) {
        let now = self.now;
        let local = self.local_of(m);
        let cpu = &mut self.machines[local].cpu;
        if let Some(at) = cpu.next_completion(now) {
            let gen = cpu.generation();
            self.push_event_at(shared, at, Event::CpuRecheck { machine: m, gen });
        }
    }

    pub(crate) fn fresh_timer(&mut self, m: MachineId) -> TimerToken {
        let local = self.local_of(m);
        let kern = &mut self.mkern[local];
        let t = TimerToken::tagged(m, kern.next_timer);
        kern.next_timer += 1;
        t
    }

    /// Schedule a kernel event from within a dispatch: the key comes from
    /// the dispatching machine's stream, and the event goes to its owning
    /// lane's queue directly (same lane) or through the outbox (handed
    /// over at the next barrier — always at least one LAN latency away,
    /// which is what makes the window safe).
    pub(crate) fn push_event_at(&mut self, shared: &SharedCore, at: SimTime, ev: Event) {
        let key = self.mkern[self.cur].keys.next_key().0;
        self.pushed += 1;
        let dest = shared.lane_of(ev.machine().unwrap_or(MachineId(0)));
        if dest == self.idx {
            self.queue.push_seq(at, key, ev);
        } else {
            self.outbox.push((dest, at, key, ev));
        }
    }

    // ------------------------------------------------------------------
    // rsh machinery
    // ------------------------------------------------------------------

    /// Completion latency an rsh failure charges: local when the caller
    /// sits on the target machine, one LAN hop otherwise. (The legacy
    /// kernel charged zero on some failure paths, which a threaded window
    /// could not tolerate — a cross-lane zero-latency event would land
    /// inside the window that produced it.)
    fn completion_latency(shared: &SharedCore, caller: ProcId, target: MachineId) -> Duration {
        if caller.machine_tag() == Some(target) {
            shared.cost.local_latency
        } else {
            shared.cost.lan_latency
        }
    }

    /// Allocate a fresh rsh handle from the caller's machine stream,
    /// inserting a pending op (used directly by the `rsh'` behavior when
    /// it drives the standard path itself).
    pub(crate) fn rsh_begin_raw(&mut self, caller: ProcId) -> RshHandle {
        let m = caller
            .machine_tag()
            .expect("rsh caller is a machine process");
        let local = self.local_of(m);
        let kern = &mut self.mkern[local];
        let handle = RshHandle::tagged(m, kern.next_rsh);
        kern.next_rsh += 1;
        self.rsh_ops.insert(
            handle.0,
            RshOp {
                caller,
                target: MachineId(0),
                cmd: CommandSpec::Null,
                child_env: None,
                stage: RshStage::Pending,
            },
        );
        handle
    }

    /// Begin an rsh operation for `caller`. `binding` selects the real rsh
    /// or the broker's shim.
    pub(crate) fn rsh_begin(
        &mut self,
        shared: &SharedCore,
        caller: ProcId,
        host: &str,
        cmd: CommandSpec,
        binding: RshBinding,
    ) -> RshHandle {
        let handle = self.rsh_begin_raw(caller);
        let spec = HostSpec::classify(host);
        self.trace.record(
            self.now,
            "rsh.invoke",
            format_args!("{caller} {binding:?} {spec} {}", cmd.name()),
        );

        match binding {
            RshBinding::Broker if shared.rsh_prime.is_some() => {
                // Spawn the rsh' shim locally as a child of the caller.
                let entry = self.proc(caller).expect("caller exists");
                let machine = entry.machine;
                let caller_env = entry.env.clone();
                let req = RshPrimeRequest {
                    caller,
                    handle,
                    host: spec,
                    cmd: cmd.clone(),
                    caller_env: caller_env.clone(),
                };
                let behavior = shared.rsh_prime.as_ref().expect("checked above").build(req);
                let mut env = caller_env;
                env.system = true; // infrastructure shim
                let shim = self.insert_proc(shared, machine, behavior, env, Some(caller));
                self.proc_mut(shim).expect("just inserted").rsh_prime_for = Some((caller, handle));
                // Route the op so RshComplete can reach the caller.
                let op = self.rsh_ops.get_mut(&handle.0).expect("fresh handle");
                op.target = machine;
                op.cmd = cmd;
                op.stage = RshStage::Waiting(shim);
                // The shim replaces the rsh client binary, whose fork/exec
                // cost is already charged inside `rsh_connect` on the
                // standard path; only the classification overhead is extra.
                self.push_event_at(
                    shared,
                    self.now + shared.cost.rsh_prime_overhead,
                    Event::Start(shim),
                );
                handle
            }
            _ => {
                // Standard rsh (also the fallback when no shim is installed).
                self.standard_rsh(shared, caller, handle, spec, cmd);
                handle
            }
        }
    }

    fn rsh_fail(&mut self, shared: &SharedCore, caller: ProcId, handle: RshHandle, err: RshError) {
        self.rsh_ops.remove(&handle.0);
        self.trace
            .record(self.now, "rsh.fail", format_args!("{handle} {err}"));
        self.push_event_at(
            shared,
            self.now + shared.cost.rsh_fail,
            Event::RshComplete {
                handle,
                to: caller,
                result: Err(err),
            },
        );
    }

    /// The standard rsh path: resolve, connect, remote fork, wait. The
    /// handle's pending op is either shipped toward the target machine
    /// inside the `RshAdvance` event or retired on the failure paths.
    pub(crate) fn standard_rsh(
        &mut self,
        shared: &SharedCore,
        caller: ProcId,
        handle: RshHandle,
        host: HostSpec,
        cmd: CommandSpec,
    ) {
        let hostname = match &host {
            // Plain rsh has no notion of symbolic hosts: name lookup fails.
            HostSpec::Symbolic(s) => {
                let err = RshError::UnknownHost(s.to_string());
                self.rsh_fail(shared, caller, handle, err);
                return;
            }
            HostSpec::Real(h) => h.clone(),
        };
        let Some(target) = shared.machine_by_host(&hostname) else {
            self.rsh_fail(shared, caller, handle, RshError::UnknownHost(hostname));
            return;
        };
        if !shared.up(target) {
            self.rsh_fail(shared, caller, handle, RshError::HostDown(hostname));
            return;
        }
        let caller_user = self
            .proc(caller)
            .map(|e| e.env.user.clone())
            .unwrap_or_else(|| Arc::from("unknown"));
        let child_env = Self::rshd_child_env(shared, &cmd, caller_user);
        let mut op = self.rsh_ops.remove(&handle.0).expect("fresh handle");
        op.target = target;
        op.cmd = cmd;
        op.child_env = Some(child_env);
        op.stage = RshStage::Connecting;
        self.push_event_at(
            shared,
            self.now + shared.cost.rsh_connect,
            Event::RshAdvance {
                handle,
                target,
                op: Some(Box::new(op)),
            },
        );
    }

    /// Environment an `rshd`-spawned process gets: the user's login
    /// environment on the remote machine. Real `rsh` does not propagate
    /// environment variables, so `job`/`appl` are unset — except for the
    /// sub-`appl`, whose command line carries its managing `appl` and job
    /// (and which is part of the broker installation, hence `system`).
    fn rshd_child_env(shared: &SharedCore, cmd: &CommandSpec, user: Arc<str>) -> ProcEnv {
        match cmd {
            CommandSpec::SubAppl { appl, job, .. } => ProcEnv {
                job: Some(*job),
                appl: Some(*appl),
                rsh: RshBinding::Standard,
                user,
                system: true,
            },
            CommandSpec::RbDaemon { .. } => ProcEnv {
                job: None,
                appl: None,
                rsh: RshBinding::Standard,
                user,
                system: true,
            },
            _ => ProcEnv {
                job: None,
                appl: None,
                rsh: shared.default_remote_binding,
                user,
                system: false,
            },
        }
    }

    fn rsh_advance(
        &mut self,
        shared: &SharedCore,
        handle: RshHandle,
        target: MachineId,
        shipped: Option<Box<RshOp>>,
    ) {
        if let Some(op) = shipped {
            // First hop onto the target's lane: take ownership of the op.
            self.rsh_ops.insert(handle.0, *op);
        }
        let Some(op) = self.rsh_ops.get(&handle.0) else {
            return;
        };
        debug_assert_eq!(op.target, target, "op shipped to the wrong machine");
        if !self.machines[self.local_of(target)].up {
            let op = self.rsh_ops.remove(&handle.0).expect("present");
            let host = shared.host_names[target.0 as usize].to_string();
            let latency = Self::completion_latency(shared, op.caller, target);
            self.push_event_at(
                shared,
                self.now + latency,
                Event::RshComplete {
                    handle,
                    to: op.caller,
                    result: Err(RshError::HostDown(host)),
                },
            );
            return;
        }
        match op.stage {
            RshStage::Pending => {
                debug_assert!(false, "RshAdvance on an unrouted op");
            }
            RshStage::Connecting => {
                self.rsh_ops.get_mut(&handle.0).expect("present").stage = RshStage::Forking;
                self.push_event_at(
                    shared,
                    self.now + shared.cost.rshd_fork,
                    Event::RshAdvance {
                        handle,
                        target,
                        op: None,
                    },
                );
            }
            RshStage::Forking => {
                let (cmd, env, caller) = {
                    let op = self.rsh_ops.get(&handle.0).expect("present");
                    (
                        op.cmd.clone(),
                        op.child_env.clone().expect("routed via standard_rsh"),
                        op.caller,
                    )
                };
                let Some(factory) = shared.factory.as_ref() else {
                    self.rsh_ops.remove(&handle.0);
                    let latency = Self::completion_latency(shared, caller, target);
                    self.push_event_at(
                        shared,
                        self.now + latency,
                        Event::RshComplete {
                            handle,
                            to: caller,
                            result: Err(RshError::SpawnFailed("no program factory".into())),
                        },
                    );
                    return;
                };
                let Some(behavior) = factory.build(&cmd) else {
                    self.rsh_ops.remove(&handle.0);
                    let latency = Self::completion_latency(shared, caller, target);
                    self.push_event_at(
                        shared,
                        self.now + latency,
                        Event::RshComplete {
                            handle,
                            to: caller,
                            result: Err(RshError::SpawnFailed(format!(
                                "command not found: {}",
                                cmd.name()
                            ))),
                        },
                    );
                    return;
                };
                let child = self.insert_proc(shared, target, behavior, env, None);
                self.proc_mut(child).expect("just inserted").waited_rsh = Some(handle);
                self.rsh_ops.get_mut(&handle.0).expect("present").stage = RshStage::Waiting(child);
                self.trace.record(
                    self.now,
                    "rsh.spawned",
                    format_args!("{handle} -> {child} {}", cmd.name()),
                );
                self.push_event_at(shared, self.now, Event::Start(child));
            }
            RshStage::Waiting(_) => {
                // Completion is driven by the child's detach/exit.
            }
        }
    }
}
