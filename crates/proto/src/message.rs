//! Wire messages exchanged between simulated processes.
//!
//! One top-level [`Payload`] enum with one sub-enum per protocol keeps the
//! dispatch in each behavior a single `match`, and makes illegal
//! cross-protocol traffic unrepresentable at the type level.

use crate::command::CommandSpec;
use crate::ids::{GrowId, JobId, MachineId, ProcId, VmId};
use crate::machine::SymbolicHost;
use crate::status::ExitStatus;
use rb_simcore::SpanId;

/// Periodic report a machine daemon sends to the broker.
///
/// Daemons are responsible for monitoring resources such as the CPU status,
/// the users who are logged on, the number of running jobs, and the
/// keyboard- and mouse-status of the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// The machine this report describes.
    pub machine: MachineId,
    /// Number of runnable application-layer processes (the load signal).
    pub load: u32,
    /// Number of interactively logged-in users.
    pub users: u32,
    /// Keyboard or mouse activity observed since the last report.
    pub console_active: bool,
    /// The machine's private owner is currently present.
    pub owner_present: bool,
}

/// Resource-management layer protocol: broker ↔ daemons, broker ↔ `appl`s.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerMsg {
    // --- daemon -> broker ---
    /// First message from a (re)started daemon.
    DaemonHello {
        /// The machine the daemon runs on.
        machine: MachineId,
    },
    /// Periodic resource report.
    DaemonStatus(DaemonReport),

    // --- broker -> daemon ---
    /// Liveness probe; a daemon that misses replies is restarted.
    DaemonPing {
        /// Monotonic probe sequence number, echoed in the pong.
        seq: u64,
    },
    /// Reply to `DaemonPing`.
    DaemonPong {
        /// The responding daemon's machine.
        machine: MachineId,
        /// The `seq` of the ping being answered.
        seq: u64,
    },

    // --- appl -> broker ---
    /// A user submitted a job through an `appl` process. The broker parses
    /// the RSL itself (`adaptive`, `module`, `count`, machine constraints).
    RegisterJob {
        /// The `appl` process that will manage the job.
        appl: ProcId,
        /// The job's RSL resource specification, unparsed.
        rsl: String,
        /// The submitting user (drives the private-machine policy).
        user: String,
        /// The machine the job was submitted from (its root process and
        /// master daemons live there; it is already part of the job and is
        /// never allocated to it again).
        home: MachineId,
    },
    /// Request one machine, just in time, for a grow attempt.
    AllocRequest {
        /// The requesting job.
        job: JobId,
        /// The grow transaction the machine is for.
        grow: GrowId,
        /// The symbolic host constraint to satisfy.
        constraint: SymbolicHost,
        /// The `alloc` span this request belongs to ([`SpanId::NONE`]
        /// when tracing is off), so the broker's decision span can nest
        /// under the requester's causal tree.
        span: SpanId,
    },
    /// The `appl` finished vacating a machine the broker reclaimed.
    MachineFreed {
        /// The job that vacated the machine.
        job: JobId,
        /// The machine returned to the pool.
        machine: MachineId,
    },
    /// The `appl` could not reach a machine the broker granted it (its
    /// `rshd` did not answer) — the broker should distrust it until its
    /// daemon reports again.
    MachineUnreachable {
        /// The machine that failed to answer.
        machine: MachineId,
    },
    /// The job terminated; all its machines return to the pool.
    JobDone {
        /// The finished job.
        job: JobId,
    },

    // --- broker -> appl ---
    /// Job admitted; the broker assigned it an id.
    JobAccepted {
        /// The id the broker assigned.
        job: JobId,
    },
    /// Job rejected (malformed RSL or unknown module).
    JobRejected {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A machine was selected for the grow attempt.
    AllocGrant {
        /// The grow transaction being answered.
        grow: GrowId,
        /// The granted machine.
        machine: MachineId,
        /// The granted machine's host name (what `rsh` needs).
        hostname: String,
        /// The broker's `alloc.decide` span that produced this grant; the
        /// appl parents its `alloc.grant` span under it.
        span: SpanId,
    },
    /// No machine can be provided (policy or availability).
    AllocDenied {
        /// The grow transaction being answered.
        grow: GrowId,
        /// Why no machine was granted.
        reason: String,
    },
    /// Directive: give the named machine back (eviction / reallocation).
    ReleaseMachine {
        /// The machine to vacate.
        machine: MachineId,
    },
    /// A machine became available and the job's standing desire is unmet;
    /// the broker offers it so the job can grow asynchronously.
    GrowOffer {
        /// The offered machine.
        machine: MachineId,
        /// The offered machine's host name.
        hostname: String,
    },

    // --- user tools -> broker ---
    /// Query machine availability and queued jobs.
    QueryCluster {
        /// Where to send the `ClusterStatus` reply.
        reply_to: ProcId,
    },
    /// Human-readable cluster status.
    ClusterStatus {
        /// One line per machine/job, ready to print.
        lines: Vec<String>,
    },
}

impl BrokerMsg {
    /// `broker.<Variant>`: the profiler's per-message-kind key for this
    /// family, one per variant so daemon reports and allocation requests
    /// are timed apart.
    pub fn kind_name(&self) -> &'static str {
        match self {
            BrokerMsg::DaemonHello { .. } => "broker.DaemonHello",
            BrokerMsg::DaemonStatus(_) => "broker.DaemonStatus",
            BrokerMsg::DaemonPing { .. } => "broker.DaemonPing",
            BrokerMsg::DaemonPong { .. } => "broker.DaemonPong",
            BrokerMsg::RegisterJob { .. } => "broker.RegisterJob",
            BrokerMsg::AllocRequest { .. } => "broker.AllocRequest",
            BrokerMsg::MachineFreed { .. } => "broker.MachineFreed",
            BrokerMsg::MachineUnreachable { .. } => "broker.MachineUnreachable",
            BrokerMsg::JobDone { .. } => "broker.JobDone",
            BrokerMsg::JobAccepted { .. } => "broker.JobAccepted",
            BrokerMsg::JobRejected { .. } => "broker.JobRejected",
            BrokerMsg::AllocGrant { .. } => "broker.AllocGrant",
            BrokerMsg::AllocDenied { .. } => "broker.AllocDenied",
            BrokerMsg::ReleaseMachine { .. } => "broker.ReleaseMachine",
            BrokerMsg::GrowOffer { .. } => "broker.GrowOffer",
            BrokerMsg::QueryCluster { .. } => "broker.QueryCluster",
            BrokerMsg::ClusterStatus { .. } => "broker.ClusterStatus",
        }
    }
}

/// Application-layer protocol: `rsh'` ↔ `appl` ↔ sub-`appl`.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplMsg {
    // --- rsh' -> appl ---
    /// An intercepted `rsh`. The sender is the `rsh'` process; `origin` is
    /// the job process that invoked it.
    Intercepted {
        /// The job process that invoked `rsh`.
        origin: ProcId,
        /// The host argument, as classified by `rsh'`.
        host: crate::machine::HostSpec,
        /// The command the `rsh` asked to run.
        cmd: CommandSpec,
        /// The `rsh.request` root span opened by the rsh' shim; the appl
        /// parents the grow's `alloc` span under it.
        span: SpanId,
    },

    // --- appl -> rsh' ---
    /// Final outcome the `rsh'` process should exit with.
    RshOutcome {
        /// The status `rsh'` exits with.
        status: ExitStatus,
    },
    /// Directive: run the standard `rsh` yourself and exit with its result
    /// (real-host passthrough).
    RshProceedStandard,

    // --- sub-appl -> appl ---
    /// Sub-`appl` started on its machine and awaits the program to run.
    SubApplReady {
        /// The grow transaction that placed this sub-`appl`.
        grow: GrowId,
        /// The machine it landed on.
        machine: MachineId,
    },
    /// The delegated program was spawned (and detached, for daemons).
    ChildStarted {
        /// The grow transaction this child belongs to.
        grow: GrowId,
        /// The spawned child process.
        child: ProcId,
    },
    /// The delegated program daemonized (detached from its controlling
    /// sub-`appl`); for daemon-style programs this is the moment the grow
    /// attempt counts as successful.
    ChildDetached {
        /// The grow transaction this child belongs to.
        grow: GrowId,
        /// The detached child process.
        child: ProcId,
    },
    /// The delegated program exited.
    ChildExited {
        /// The grow transaction this child belonged to.
        grow: GrowId,
        /// How the child ended.
        status: ExitStatus,
    },
    /// The machine has been vacated after a `ReleaseChild`.
    Released {
        /// The grow transaction being unwound.
        grow: GrowId,
        /// The machine now free.
        machine: MachineId,
    },

    // --- appl -> sub-appl ---
    /// The program this sub-`appl` must execute on behalf of the job.
    Program {
        /// The grow transaction this program fulfils.
        grow: GrowId,
        /// What to execute.
        cmd: CommandSpec,
        /// The `alloc.spawn` span of the grow; the sub-appl parents its
        /// `alloc.exec` span under it.
        span: SpanId,
    },
    /// Vacate: signal the child, grace-wait, kill if needed, then report.
    ReleaseChild,
    /// Job is over: kill the child and exit.
    Shutdown,
}

/// PVM protocol: master pvmd ↔ slave pvmds ↔ consoles ↔ tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum PvmMsg {
    // --- console/task -> master pvmd ---
    /// `pvm> add <host>` or `pvm_addhosts()`.
    AddHosts {
        /// Host names to add, in order.
        hosts: Vec<String>,
    },
    /// `pvm> delete <host>`.
    DeleteHost {
        /// Host name to remove from the virtual machine.
        host: String,
    },
    /// `pvm> halt`.
    Halt,
    /// `pvm> conf` — ask for the current host table.
    Conf {
        /// Where to send the `ConfReply`.
        reply_to: ProcId,
    },
    /// Reply to `Conf`.
    ConfReply {
        /// Host names currently in the virtual machine.
        hosts: Vec<String>,
    },
    /// `pvm> spawn` — start `n` tasks across the virtual machine.
    SpawnTasks {
        /// Number of tasks to start.
        n: u32,
        /// CPU cost of each task.
        cpu_millis: u64,
    },
    /// A task (application process) asks to be notified of task
    /// completions (`pvm_notify()`-style).
    Subscribe {
        /// The process to notify.
        listener: ProcId,
    },

    // --- master pvmd -> console ---
    /// Outcome of one `add` attempt.
    AddResult {
        /// The host the add targeted.
        host: String,
        /// Whether the host joined.
        ok: bool,
    },

    // --- slave pvmd -> master pvmd ---
    /// A freshly started slave announcing itself; `hostname` is the machine
    /// it actually runs on, which the master checks against the host it
    /// attempted to spawn on.
    SlaveRegister {
        /// The registering slave pvmd.
        slave: ProcId,
        /// The machine it actually runs on.
        hostname: String,
    },
    /// Graceful departure (e.g. after `delete` or eviction).
    SlaveExiting {
        /// The departing slave pvmd.
        slave: ProcId,
    },
    /// A task finished on a slave.
    TaskDone {
        /// The slave the task ran on.
        slave: ProcId,
    },

    // --- master pvmd -> slave pvmd ---
    /// Registration accepted; slave becomes part of the virtual machine.
    SlaveAccepted {
        /// The virtual machine joined.
        vm: VmId,
    },
    /// Registration refused: the master did not attempt to spawn on this
    /// machine ("PVM will refuse to accept processes from machines other
    /// than those they attempted to spawn").
    SlaveRefused {
        /// Why the registration was refused.
        reason: String,
    },
    /// Run one task of the given CPU cost.
    RunTask {
        /// CPU cost of the task.
        cpu_millis: u64,
    },
    /// Shut down (halt or delete).
    SlaveHalt,
}

/// LAM/MPI protocol — structurally parallel to PVM, with its own timing and
/// boot sequence, to demonstrate module reuse across systems.
#[derive(Debug, Clone, PartialEq)]
pub enum LamMsg {
    /// `lamgrow <host>` from a console, or a self-scheduling MPI program
    /// asking for another node.
    GrowNode {
        /// Host name to boot a node on.
        host: String,
    },
    /// `lamshrink <host>`.
    ShrinkNode {
        /// Host name whose node should leave.
        host: String,
    },
    /// `lamhalt`.
    Halt,
    /// Outcome of one grow attempt.
    GrowResult {
        /// The host the grow targeted.
        host: String,
        /// Whether the node joined the session.
        ok: bool,
    },
    /// Node daemon announcing itself to the session origin.
    NodeRegister {
        /// The registering node daemon.
        node: ProcId,
        /// The machine it actually runs on.
        hostname: String,
    },
    /// Accepted into the session.
    NodeAccepted,
    /// Refused — hostname not in the attempted-boot set.
    NodeRefused {
        /// Why the registration was refused.
        reason: String,
    },
    /// Node daemon leaving.
    NodeExiting {
        /// The departing node daemon.
        node: ProcId,
    },
    /// Origin asks the node to run a self-scheduled work unit.
    RunWork {
        /// CPU cost of the work unit.
        cpu_millis: u64,
    },
    /// Work unit complete.
    WorkDone {
        /// The node that finished the work.
        node: ProcId,
    },
    /// Shut this node down.
    NodeHalt,
}

/// Calypso protocol: fault-tolerant master/worker with eager scheduling;
/// workers join anonymously and may vanish at any time.
#[derive(Debug, Clone, PartialEq)]
pub enum CalypsoMsg {
    /// Worker announcing itself (always accepted — this is what makes the
    /// broker's default *redirect* path work for Calypso).
    WorkerRegister {
        /// The joining worker.
        worker: ProcId,
        /// The machine it runs on.
        hostname: String,
    },
    /// Welcome; master may immediately follow with a task.
    WorkerWelcome,
    /// Assign one task.
    TaskAssign {
        /// Task identifier (for at-most-once result accounting).
        task: u64,
        /// CPU cost of the task.
        cpu_millis: u64,
    },
    /// Task result.
    TaskResult {
        /// The worker reporting the result.
        worker: ProcId,
        /// The completed task.
        task: u64,
    },
    /// Worker departing gracefully (eviction path).
    WorkerLeaving {
        /// The departing worker.
        worker: ProcId,
    },
    /// No work right now; worker idles until poked.
    Idle,
    /// Master is done; workers should exit.
    JobComplete,
}

/// PLinda protocol: a tuple-space server with bag-of-tasks workers.
#[derive(Debug, Clone, PartialEq)]
pub enum PlindaMsg {
    /// `out(tuple)` — deposit a tuple.
    Out {
        /// The tuple to deposit.
        tuple: Tuple,
    },
    /// `in(pattern)` — blocking withdraw of a matching tuple.
    In {
        /// The pattern to match and withdraw.
        pattern: TuplePattern,
    },
    /// Reply to `In` once a tuple matches.
    InReply {
        /// The withdrawn tuple.
        tuple: Tuple,
    },
    /// Worker attaching to the space (always accepted).
    WorkerRegister {
        /// The attaching worker.
        worker: ProcId,
        /// The machine it runs on.
        hostname: String,
    },
    /// Attach acknowledged.
    WorkerWelcome,
    /// Worker departing gracefully.
    WorkerLeaving {
        /// The departing worker.
        worker: ProcId,
    },
    /// Server shutting down.
    SpaceClosed,
}

/// A PLinda tuple: an ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple(pub Vec<TupleField>);

/// One field of a tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TupleField {
    /// An integer field.
    Int(i64),
    /// A string field.
    Str(String),
}

/// A pattern for `in()`: each position either matches a concrete field or is
/// a typed wildcard (a "formal" in Linda terminology).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuplePattern(pub Vec<PatternField>);

/// One position of a tuple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternField {
    /// Must equal this field exactly.
    Exact(TupleField),
    /// Any integer.
    AnyInt,
    /// Any string.
    AnyStr,
}

impl TuplePattern {
    /// Does `tuple` match this pattern (same arity, each field compatible)?
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.0.len() == tuple.0.len()
            && self.0.iter().zip(tuple.0.iter()).all(|(p, f)| match p {
                PatternField::Exact(e) => e == f,
                PatternField::AnyInt => matches!(f, TupleField::Int(_)),
                PatternField::AnyStr => matches!(f, TupleField::Str(_)),
            })
    }
}

/// Scenario/test control messages (the simulated analogue of a user at a
/// terminal or a driver script).
#[derive(Debug, Clone, PartialEq)]
pub enum CtlMsg {
    /// Nudge an adaptive job to try to grow by `count` machines.
    GrowHint {
        /// How many machines to try to add.
        count: u32,
    },
    /// Nudge an adaptive job to shed `count` machines voluntarily.
    ShrinkHint {
        /// How many machines to give up.
        count: u32,
    },
    /// Ask a program to finish up gracefully.
    Stop,
    /// Liveness probe used by tests.
    Probe {
        /// Where to send the `ProbeReply`.
        reply_to: ProcId,
        /// Opaque token echoed back.
        token: u64,
    },
    /// Reply to `Probe`.
    ProbeReply {
        /// The token from the probe being answered.
        token: u64,
    },
}

/// Top-level message payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Resource-management layer traffic.
    Broker(BrokerMsg),
    /// Application-layer traffic.
    Appl(ApplMsg),
    /// PVM traffic.
    Pvm(PvmMsg),
    /// LAM/MPI traffic.
    Lam(LamMsg),
    /// Calypso traffic.
    Calypso(CalypsoMsg),
    /// PLinda traffic.
    Plinda(PlindaMsg),
    /// Scenario/test control traffic.
    Ctl(CtlMsg),
}

impl Payload {
    /// Short static name of the protocol family this payload belongs to —
    /// the kernel profiler's per-message-kind key (`&'static str`, so
    /// recording allocates nothing). Broker traffic is split per variant
    /// ([`BrokerMsg::kind_name`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Broker(m) => m.kind_name(),
            Payload::Appl(_) => "appl",
            Payload::Pvm(_) => "pvm",
            Payload::Lam(_) => "lam",
            Payload::Calypso(_) => "calypso",
            Payload::Plinda(_) => "plinda",
            Payload::Ctl(_) => "ctl",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(fields: Vec<TupleField>) -> Tuple {
        Tuple(fields)
    }

    #[test]
    fn tuple_pattern_matching() {
        let tuple = t(vec![TupleField::Str("task".into()), TupleField::Int(7)]);
        let exact = TuplePattern(vec![
            PatternField::Exact(TupleField::Str("task".into())),
            PatternField::Exact(TupleField::Int(7)),
        ]);
        let formal = TuplePattern(vec![
            PatternField::Exact(TupleField::Str("task".into())),
            PatternField::AnyInt,
        ]);
        let wrong_type = TuplePattern(vec![
            PatternField::Exact(TupleField::Str("task".into())),
            PatternField::AnyStr,
        ]);
        let wrong_arity = TuplePattern(vec![PatternField::AnyStr]);

        assert!(exact.matches(&tuple));
        assert!(formal.matches(&tuple));
        assert!(!wrong_type.matches(&tuple));
        assert!(!wrong_arity.matches(&tuple));
    }

    #[test]
    fn payload_is_cloneable_and_comparable() {
        let a = Payload::Ctl(CtlMsg::GrowHint { count: 2 });
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.kind_name(), "ctl");
        let b = Payload::Broker(BrokerMsg::JobDone { job: JobId(1) });
        assert_eq!(b.kind_name(), "broker.JobDone");
    }
}
