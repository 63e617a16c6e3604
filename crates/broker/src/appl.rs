//! The `appl` process — the application layer's per-job agent.
//!
//! A user who wants ResourceBroker's services starts an `appl` to submit
//! the job. The `appl` registers the job (with its RSL request) at the
//! broker, launches the job's root process with `rsh'` on its PATH, and
//! then brokers between the job and the resource-management layer:
//!
//! * **default path** (Calypso, PLinda, sequential jobs): an intercepted
//!   `rsh` with a symbolic host is *redirected* — the `appl` asks the
//!   broker for a machine, spawns a sub-`appl` there over the standard
//!   `rsh`, hands it the original command, and finally tells `rsh'` to
//!   exit successfully. The job never notices it runs on a machine chosen
//!   at runtime.
//! * **module path** (PVM, LAM — submitted with `(module="...")`): Phase I
//!   fails the intercepted `rsh` (the job tolerates the failed add) while
//!   the machine is allocated; the external module then coerces the job to
//!   re-issue the `rsh` with the real host name, and Phase II proceeds
//!   like the default path on that named machine.
//! * **reallocation**: on `ReleaseMachine`, the sub-`appl` signals the
//!   job's process (or, for module jobs, the module's `shrink` script
//!   coerces the job first), and the machine is reported free once vacated.

use crate::modules::ModuleRegistry;
use rb_proto::{
    ApplMsg, BrokerMsg, CommandSpec, ExitStatus, GrowId, HostSpec, JobId, MachineId, Payload,
    ProcId, RshError, RshHandle, SymbolicHost, TimerToken,
};
use rb_simcore::{FxHashMap, SimTime, SpanId};
use rb_simnet::{Behavior, Ctx, ProcEnv, RshBinding};
use std::sync::Arc;

/// Factory producing a fresh job-root behavior (what a `start_script`
/// runs each time it is invoked).
pub type RootScript = Box<dyn FnMut() -> Box<dyn Behavior> + Send>;

/// What the submitted job runs.
pub enum JobRun {
    /// Execute one command on a (possibly symbolic) remote host and exit
    /// with its status — remote execution of sequential programs, the
    /// paper's Table 1/2 usage.
    Remote { host: String, cmd: CommandSpec },
    /// Start this behavior locally as the job's root process (a parallel
    /// system's master / console / tuple-space server).
    Root(Box<dyn Behavior>),
    /// A *restartable* root: the RSL's `(start_script="...")` names a
    /// script the `appl` can re-run, so if the root process dies abnormally
    /// the `appl` starts it again (fault-tolerant runtimes like PLinda's
    /// persistent server then recover from their checkpoints).
    Script { make: RootScript, max_restarts: u32 },
}

/// A job submission.
pub struct JobRequest {
    /// RSL request, e.g. `+(count>=4)(arch="i686")(module="pvm")`.
    pub rsl: String,
    pub user: String,
    pub run: JobRun,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrowKind {
    /// Default redirect (symbolic host, no module).
    Default,
    /// Module phase I: allocation in progress; the job saw a failed add.
    ModuleWait,
    /// Module phase II / named proceed: sub-appl chain on a named machine.
    Proceed,
    /// The job's single remote command (sequential execution).
    Remote,
}

struct Grow {
    kind: GrowKind,
    /// The rsh' process awaiting an outcome, if any.
    rshp: Option<ProcId>,
    cmd: Option<CommandSpec>,
    machine: Option<MachineId>,
    hostname: Option<String>,
    subappl: Option<ProcId>,
    detached: bool,
    /// Broker asked for this machine back.
    releasing: bool,
    /// Allocation retries left after a machine turned out to be dead.
    retries: u32,
    /// The grow's `alloc` span — one allocation end to end, parented
    /// under the intercepted `rsh.request` when there is one.
    span: SpanId,
    /// `alloc.grant` — open while the granted machine is held; closed
    /// when the machine goes back to the broker.
    grant_span: SpanId,
    /// `alloc.spawn` — the sub-appl chain; closed at `SubApplReady`.
    spawn_span: SpanId,
    /// When the allocation request left for the broker (latency metric).
    requested_at: SimTime,
}

impl Grow {
    fn new(kind: GrowKind) -> Self {
        Grow {
            kind,
            rshp: None,
            cmd: None,
            machine: None,
            hostname: None,
            subappl: None,
            detached: false,
            releasing: false,
            retries: 2,
            span: SpanId::NONE,
            grant_span: SpanId::NONE,
            spawn_span: SpanId::NONE,
            requested_at: SimTime::ZERO,
        }
    }
}

/// The `appl` behavior.
pub struct Appl {
    broker: ProcId,
    rsl: String,
    user: std::sync::Arc<str>,
    run: Option<JobRun>,
    modules: Arc<ModuleRegistry>,
    spec: Option<rb_rsl::JobSpec>,
    job: Option<JobId>,
    root: Option<ProcId>,
    /// Restart factory + remaining budget, for `JobRun::Script` jobs.
    restart: Option<(RootScript, u32)>,
    grows: FxHashMap<GrowId, Grow>,
    next_grow: u64,
    /// standard-rsh handles (sub-appl spawns) -> grow.
    by_handle: FxHashMap<RshHandle, GrowId>,
    /// module grows awaiting the job's second rsh, keyed by host name.
    pending_named: FxHashMap<String, GrowId>,
    /// machines currently held, for release routing.
    by_machine: FxHashMap<MachineId, GrowId>,
    /// module-shrink backstop timers.
    shrink_timers: FxHashMap<TimerToken, MachineId>,
    /// Hard deadline per release: if the sub-appl never reports back (its
    /// machine may have crashed), the machine is reported freed anyway so
    /// the broker's pool is never wedged on a dead box.
    release_deadlines: FxHashMap<TimerToken, MachineId>,
    /// timers bounding how long a module grant may wait for the job's
    /// second (named) rsh before the machine is handed back.
    named_timers: FxHashMap<TimerToken, String>,
    /// Module grows run one at a time per job: the real `xxx_grow` scripts
    /// share a single `$HOME/.pvmrc`, so concurrent runs would clobber it.
    module_queue: std::collections::VecDeque<(GrowId, String)>,
    module_active: Option<GrowId>,
    /// After a grow attempt fails (e.g. the job's runtime refused the
    /// machine), broker offers are ignored until this instant so a job
    /// that cannot actually use machines does not thrash the offer loop.
    offer_cooldown_until: Option<rb_simcore::SimTime>,
    done: bool,
}

impl Appl {
    pub fn new(broker: ProcId, req: JobRequest, modules: Arc<ModuleRegistry>) -> Self {
        Appl {
            broker,
            rsl: req.rsl,
            user: req.user.into(),
            run: Some(req.run),
            modules,
            spec: None,
            job: None,
            root: None,
            restart: None,
            grows: FxHashMap::default(),
            next_grow: 1,
            by_handle: FxHashMap::default(),
            pending_named: FxHashMap::default(),
            by_machine: FxHashMap::default(),
            shrink_timers: FxHashMap::default(),
            release_deadlines: FxHashMap::default(),
            named_timers: FxHashMap::default(),
            module_queue: std::collections::VecDeque::new(),
            module_active: None,
            offer_cooldown_until: None,
            done: false,
        }
    }

    fn fresh_grow(&mut self, ctx: &mut Ctx<'_>, kind: GrowKind, parent: SpanId) -> GrowId {
        let id = GrowId(self.next_grow);
        self.next_grow += 1;
        let mut g = Grow::new(kind);
        if let Some(job) = self.job {
            g.span = ctx.open_span(
                parent,
                "alloc",
                format_args!("{id} job={job} kind={kind:?}"),
            );
        }
        self.grows.insert(id, g);
        id
    }

    /// Close every span the grow still holds and drop it from the table.
    fn end_grow(&mut self, ctx: &mut Ctx<'_>, grow: GrowId, outcome: &str) {
        if let Some(g) = self.grows.remove(&grow) {
            ctx.close_span(g.spawn_span, "alloc.spawn", outcome);
            ctx.close_span(g.grant_span, "alloc.grant", outcome);
            ctx.close_span(g.span, "alloc", outcome);
        }
    }

    fn module(&self) -> Option<Arc<dyn crate::modules::ExternalModule + Sync>> {
        self.spec
            .as_ref()
            .and_then(|s| s.module.as_deref())
            .and_then(|name| self.modules.get(name))
    }

    fn request_alloc(&mut self, ctx: &mut Ctx<'_>, grow: GrowId, constraint: SymbolicHost) {
        let job = self.job.expect("registered");
        let span = match self.grows.get_mut(&grow) {
            Some(g) => {
                g.requested_at = ctx.now();
                g.span
            }
            None => SpanId::NONE,
        };
        ctx.metric_inc("appl.alloc.requests", job);
        ctx.send(
            self.broker,
            Payload::Broker(BrokerMsg::AllocRequest {
                job,
                grow,
                constraint,
                span,
            }),
        );
    }

    /// Launch the sub-appl chain on a named machine for `grow`.
    fn start_subappl(&mut self, ctx: &mut Ctx<'_>, grow: GrowId, hostname: &str) {
        let job = self.job.expect("registered");
        let me = ctx.me();
        let handle = ctx.rsh_standard(
            hostname,
            CommandSpec::SubAppl {
                appl: me,
                job,
                grow,
            },
        );
        self.by_handle.insert(handle, grow);
        if let Some(g) = self.grows.get_mut(&grow) {
            g.hostname = Some(hostname.to_string());
            let parent = if g.grant_span != SpanId::NONE {
                g.grant_span
            } else {
                g.span
            };
            g.spawn_span = ctx.open_span(
                parent,
                "alloc.spawn",
                format_args!("{grow} job={job} {hostname}"),
            );
        }
    }

    /// Run the next queued module grow, if none is active.
    fn pump_module_grows(&mut self, ctx: &mut Ctx<'_>) {
        if self.module_active.is_some() {
            return;
        }
        let Some((grow, hostname)) = self.module_queue.pop_front() else {
            return;
        };
        if !self.grows.contains_key(&grow) {
            return self.pump_module_grows(ctx);
        }
        self.module_active = Some(grow);
        self.pending_named.insert(hostname.clone(), grow);
        let token = ctx.set_timer(rb_simcore::Duration::from_secs(20));
        self.named_timers.insert(token, hostname.clone());
        if let Some(module) = self.module() {
            module.grow(ctx, &hostname);
        }
    }

    /// A module grow reached a terminal state; start the next one.
    fn module_grow_done(&mut self, ctx: &mut Ctx<'_>, grow: GrowId) {
        if self.module_active == Some(grow) {
            self.module_active = None;
            self.pump_module_grows(ctx);
        }
    }

    fn reply_rshp(&mut self, ctx: &mut Ctx<'_>, grow: GrowId, status: ExitStatus) {
        if let Some(g) = self.grows.get_mut(&grow) {
            if let Some(rshp) = g.rshp.take() {
                ctx.send(rshp, Payload::Appl(ApplMsg::RshOutcome { status }));
            }
        }
    }

    fn free_machine(&mut self, ctx: &mut Ctx<'_>, grow: GrowId) {
        let Some(g) = self.grows.get(&grow) else {
            return;
        };
        let (Some(machine), Some(job)) = (g.machine, self.job) else {
            return;
        };
        self.by_machine.remove(&machine);
        if let Some(g) = self.grows.get_mut(&grow) {
            g.machine = None;
            let grant = std::mem::replace(&mut g.grant_span, SpanId::NONE);
            ctx.close_span(grant, "alloc.grant", "freed");
        }
        ctx.send(
            self.broker,
            Payload::Broker(BrokerMsg::MachineFreed { job, machine }),
        );
    }

    fn spawn_root(&mut self, ctx: &mut Ctx<'_>, job: JobId, behavior: Box<dyn Behavior>) -> ProcId {
        let me = ctx.me();
        let env = ProcEnv {
            job: Some(job),
            appl: Some(me),
            rsh: RshBinding::Broker,
            user: self.user.clone(),
            system: false,
        };
        let root = ctx.spawn_local_with_env(behavior, env);
        self.root = Some(root);
        root
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_>, status: ExitStatus) {
        if self.done {
            return;
        }
        self.done = true;
        // Tear down all sub-appls (they kill their children), in a
        // deterministic order.
        let mut subs: Vec<(GrowId, ProcId)> = self
            .grows
            .iter()
            .filter_map(|(&g, grow)| grow.subappl.map(|s| (g, s)))
            .collect();
        subs.sort();
        for (_, sub) in subs {
            ctx.send(sub, Payload::Appl(ApplMsg::Shutdown));
        }
        // Sweep-close every span the job still holds open, so each
        // allocation tree is complete by the time the job is done.
        let mut open: Vec<GrowId> = self.grows.keys().copied().collect();
        open.sort();
        for grow in open {
            self.end_grow(ctx, grow, "job-done");
        }
        if let Some(job) = self.job {
            ctx.send(self.broker, Payload::Broker(BrokerMsg::JobDone { job }));
        }
        ctx.trace("appl.done", format_args!("{status}"));
        ctx.exit(status);
    }

    /// Handle an intercepted rsh from an `rsh'` shim.
    fn on_intercepted(
        &mut self,
        ctx: &mut Ctx<'_>,
        rshp: ProcId,
        host: HostSpec,
        cmd: CommandSpec,
        span: SpanId,
    ) {
        if self.done || self.job.is_none() {
            ctx.send(
                rshp,
                Payload::Appl(ApplMsg::RshOutcome {
                    status: ExitStatus::Failure(1),
                }),
            );
            return;
        }
        match host {
            HostSpec::Symbolic(sym) => {
                if let Some(_module) = self.module() {
                    // ---- module path, phase I ----
                    // The job's rsh fails now; the allocation proceeds in
                    // the background and the module will coerce a second,
                    // named rsh.
                    ctx.trace("appl.module.phase1", format_args!("{sym} {}", cmd.name()));
                    ctx.send(
                        rshp,
                        Payload::Appl(ApplMsg::RshOutcome {
                            status: ExitStatus::Failure(1),
                        }),
                    );
                    let grow = self.fresh_grow(ctx, GrowKind::ModuleWait, span);
                    self.request_alloc(ctx, grow, sym);
                } else {
                    // ---- default path: redirect ----
                    ctx.trace(
                        "appl.default.redirect",
                        format_args!("{sym} {}", cmd.name()),
                    );
                    let grow = self.fresh_grow(ctx, GrowKind::Default, span);
                    if let Some(g) = self.grows.get_mut(&grow) {
                        g.rshp = Some(rshp);
                        g.cmd = Some(cmd);
                    }
                    self.request_alloc(ctx, grow, sym);
                }
            }
            HostSpec::Real(hostname) => {
                if let Some(&grow) = self.pending_named.get(&hostname) {
                    // ---- module path, phase II ----
                    self.pending_named.remove(&hostname);
                    ctx.trace("appl.module.phase2", hostname.clone());
                    if let Some(g) = self.grows.get_mut(&grow) {
                        g.kind = GrowKind::Proceed;
                        g.rshp = Some(rshp);
                        g.cmd = Some(cmd);
                    }
                    self.start_subappl(ctx, grow, &hostname);
                } else {
                    // Explicitly named machine outside broker control:
                    // allowed to proceed (near-zero overhead).
                    ctx.trace("appl.passthrough", hostname);
                    ctx.send(rshp, Payload::Appl(ApplMsg::RshProceedStandard));
                }
            }
        }
    }
}

impl Behavior for Appl {
    fn name(&self) -> &'static str {
        "appl"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Parse the request; reject bad RSL or unknown modules locally.
        let spec = match rb_rsl::parse(&self.rsl)
            .map_err(|e| e.to_string())
            .and_then(|r| rb_rsl::job_spec(&r).map_err(|e| e.to_string()))
        {
            Ok(spec) => spec,
            Err(err) => {
                ctx.trace("appl.bad-rsl", err);
                ctx.exit(ExitStatus::Failure(2));
                return;
            }
        };
        if let Some(name) = spec.module.as_deref() {
            if !self.modules.contains(name) {
                ctx.trace("appl.module.unknown", name.to_string());
                ctx.exit(ExitStatus::Failure(2));
                return;
            }
        }
        self.spec = Some(spec);
        let me = ctx.me();
        let startup = ctx.cost().appl_startup;
        ctx.trace("appl.submit", self.rsl.clone());
        let home = ctx.machine();
        ctx.send_after(
            self.broker,
            Payload::Broker(BrokerMsg::RegisterJob {
                appl: me,
                rsl: self.rsl.clone(),
                user: self.user.to_string(),
                home,
            }),
            startup,
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Payload) {
        match msg {
            // ---------------- broker ----------------
            Payload::Broker(BrokerMsg::JobAccepted { job }) => {
                self.job = Some(job);
                ctx.trace("appl.job", format_args!("{job}"));
                match self.run.take() {
                    Some(JobRun::Remote { host, cmd }) => {
                        let grow = self.fresh_grow(ctx, GrowKind::Remote, SpanId::NONE);
                        if let Some(g) = self.grows.get_mut(&grow) {
                            g.cmd = Some(cmd);
                        }
                        match HostSpec::classify(&host) {
                            HostSpec::Symbolic(sym) => self.request_alloc(ctx, grow, sym),
                            HostSpec::Real(hostname) => {
                                // Named machine: still run through the
                                // sub-appl for monitoring, but no broker
                                // round-trip.
                                self.start_subappl(ctx, grow, &hostname);
                            }
                        }
                    }
                    Some(JobRun::Root(behavior)) => {
                        let root = self.spawn_root(ctx, job, behavior);
                        ctx.trace("appl.root", format_args!("{root}"));
                    }
                    Some(JobRun::Script {
                        mut make,
                        max_restarts,
                    }) => {
                        let behavior = make();
                        self.restart = Some((make, max_restarts));
                        let root = self.spawn_root(ctx, job, behavior);
                        ctx.trace("appl.root", format_args!("{root} (restartable)"));
                    }
                    None => {}
                }
            }
            Payload::Broker(BrokerMsg::JobRejected { reason }) => {
                ctx.trace("appl.rejected", reason);
                ctx.exit(ExitStatus::Failure(2));
            }
            Payload::Broker(BrokerMsg::AllocGrant {
                grow,
                machine,
                hostname,
                span,
            }) => {
                let now = ctx.now();
                let job = self.job;
                let Some(g) = self.grows.get_mut(&grow) else {
                    // Grow abandoned: hand the machine straight back.
                    if let Some(job) = self.job {
                        ctx.send(
                            self.broker,
                            Payload::Broker(BrokerMsg::MachineFreed { job, machine }),
                        );
                    }
                    return;
                };
                g.machine = Some(machine);
                // The grant leg of the allocation tree: parented under
                // the broker's decide span when one rode the message.
                let parent = if span != SpanId::NONE { span } else { g.span };
                if let Some(job) = job {
                    g.grant_span = ctx.open_span(
                        parent,
                        "alloc.grant",
                        format_args!("{grow} job={job} {hostname}"),
                    );
                    ctx.metric_inc("appl.alloc.grants", job);
                    ctx.metric_observe(
                        "alloc.latency_s",
                        job,
                        now.since(g.requested_at).as_secs_f64(),
                    );
                }
                self.by_machine.insert(machine, grow);
                // The appl's view of the broker's allocation order: the
                // linearizability check in rb-model compares these
                // per-host observations against the broker's own grant
                // sequence.
                if let Some(job) = self.job {
                    ctx.trace("appl.grant.seen", format_args!("{hostname} -> {job}"));
                }
                let kind = self.grows[&grow].kind;
                match kind {
                    GrowKind::ModuleWait => {
                        // Phase II trigger: the external module coerces the
                        // job into a named rsh to `hostname`. One module
                        // grow runs at a time per job.
                        if let Some(g) = self.grows.get_mut(&grow) {
                            g.hostname = Some(hostname.clone());
                        }
                        self.module_queue.push_back((grow, hostname));
                        self.pump_module_grows(ctx);
                    }
                    _ => {
                        self.start_subappl(ctx, grow, &hostname);
                    }
                }
            }
            Payload::Broker(BrokerMsg::AllocDenied { grow, reason }) => {
                ctx.trace("appl.denied", reason);
                if let Some(job) = self.job {
                    ctx.metric_inc("appl.alloc.denied", job);
                }
                let kind = self.grows.get(&grow).map(|g| g.kind);
                self.reply_rshp(ctx, grow, ExitStatus::Failure(1));
                self.end_grow(ctx, grow, "denied");
                if kind == Some(GrowKind::Remote) {
                    // The job's only command cannot run.
                    self.finish_job(ctx, ExitStatus::Failure(1));
                }
            }
            Payload::Broker(BrokerMsg::ReleaseMachine { machine }) => {
                let Some(&grow) = self.by_machine.get(&machine) else {
                    // Nothing of ours there (already gone): report free.
                    if let Some(job) = self.job {
                        ctx.send(
                            self.broker,
                            Payload::Broker(BrokerMsg::MachineFreed { job, machine }),
                        );
                    }
                    return;
                };
                let hostname = self
                    .grows
                    .get(&grow)
                    .and_then(|g| g.hostname.clone())
                    .unwrap_or_default();
                ctx.trace("appl.release", hostname.clone());
                // Absolute backstop for the whole release (covers crashed
                // machines and dead sub-appls).
                let deadline = ctx.set_timer(rb_simcore::Duration::from_secs(15));
                self.release_deadlines.insert(deadline, machine);
                if let Some(module) = self.module() {
                    // Coerce the job to give the host up; the sub-appl's
                    // signal path is armed as a backstop.
                    module.shrink(ctx, &hostname);
                    if let Some(g) = self.grows.get_mut(&grow) {
                        g.releasing = true;
                    }
                    let grace = ctx.cost().release_grace;
                    let token = ctx.set_timer(rb_simcore::Duration(3 * grace.as_micros()));
                    self.shrink_timers.insert(token, machine);
                } else {
                    if let Some(g) = self.grows.get_mut(&grow) {
                        g.releasing = true;
                        if let Some(sub) = g.subappl {
                            ctx.send(sub, Payload::Appl(ApplMsg::ReleaseChild));
                        }
                    }
                }
            }
            Payload::Broker(BrokerMsg::GrowOffer { machine, hostname }) => {
                let _ = machine;
                if self.done {
                    return;
                }
                if let Some(until) = self.offer_cooldown_until {
                    if ctx.now() < until {
                        ctx.trace("appl.offer.cooldown", hostname);
                        return;
                    }
                }
                ctx.trace("appl.offer", hostname);
                if self.module().is_some() {
                    // Ask for the reserved machine through the normal
                    // allocation path, then phase II as usual.
                    let grow = self.fresh_grow(ctx, GrowKind::ModuleWait, SpanId::NONE);
                    self.request_alloc(ctx, grow, SymbolicHost::Any);
                } else if let Some(root) = self.root {
                    // Nudge the adaptive job; its own grow request follows.
                    ctx.send(root, Payload::Ctl(rb_proto::CtlMsg::GrowHint { count: 1 }));
                }
            }

            // ---------------- rsh' ----------------
            Payload::Appl(ApplMsg::Intercepted {
                origin: _,
                host,
                cmd,
                span,
            }) => {
                self.on_intercepted(ctx, from, host, cmd, span);
            }

            // ---------------- sub-appls ----------------
            Payload::Appl(ApplMsg::SubApplReady { grow, machine }) => {
                let Some(g) = self.grows.get_mut(&grow) else {
                    ctx.send(from, Payload::Appl(ApplMsg::Shutdown));
                    return;
                };
                g.subappl = Some(from);
                g.machine.get_or_insert(machine);
                // The sub-appl chain is up: close the spawn leg; the
                // program's exec span parents under it.
                let spawn = std::mem::replace(&mut g.spawn_span, SpanId::NONE);
                let exec_parent = if spawn != SpanId::NONE { spawn } else { g.span };
                ctx.close_span(spawn, "alloc.spawn", "ready");
                self.by_machine.insert(machine, grow);
                let cmd = self.grows[&grow].cmd.clone();
                if let Some(cmd) = cmd {
                    ctx.send(
                        from,
                        Payload::Appl(ApplMsg::Program {
                            grow,
                            cmd,
                            span: exec_parent,
                        }),
                    );
                }
            }
            Payload::Appl(ApplMsg::ChildStarted { .. }) => {}
            Payload::Appl(ApplMsg::ChildDetached { grow, .. }) => {
                if let Some(g) = self.grows.get_mut(&grow) {
                    g.detached = true;
                }
                // A daemon-style program is up: the intercepted rsh (or the
                // module's named rsh) succeeded.
                self.reply_rshp(ctx, grow, ExitStatus::Success);
                self.module_grow_done(ctx, grow);
            }
            Payload::Appl(ApplMsg::ChildExited { grow, status }) => {
                let Some(g) = self.grows.get(&grow) else {
                    return;
                };
                if g.releasing {
                    // The module's shrink coerced the job off the machine
                    // (the sub-appl only reports ChildExited — not Released
                    // — when it was never put into releasing mode itself).
                    // The vacated machine goes back now; cancel the signal
                    // backstop.
                    let machine = g.machine;
                    self.shrink_timers.retain(|_, m| Some(*m) != machine);
                    ctx.trace("appl.shrink.done", format_args!("{grow}"));
                    self.free_machine(ctx, grow);
                    self.end_grow(ctx, grow, "released");
                    self.module_grow_done(ctx, grow);
                    return;
                }
                let kind = g.kind;
                if kind == GrowKind::Default && !status.is_success() {
                    // The job's runtime rejected or crashed on the machine
                    // we redirected it to: back off from further offers.
                    self.offer_cooldown_until =
                        Some(ctx.now() + rb_simcore::Duration::from_secs(30));
                }
                self.reply_rshp(ctx, grow, status);
                self.free_machine(ctx, grow);
                self.end_grow(
                    ctx,
                    grow,
                    if status.is_success() {
                        "done"
                    } else {
                        "failed"
                    },
                );
                self.module_grow_done(ctx, grow);
                if kind == GrowKind::Remote {
                    // Sequential remote execution: job over.
                    self.finish_job(ctx, status);
                }
            }
            Payload::Appl(ApplMsg::Released { grow, machine }) => {
                self.shrink_timers.retain(|_, &mut m| m != machine);
                self.release_deadlines.retain(|_, &mut m| m != machine);
                self.reply_rshp(ctx, grow, ExitStatus::Failure(1));
                self.free_machine(ctx, grow);
                self.end_grow(ctx, grow, "released");
                self.module_grow_done(ctx, grow);
            }
            _ => {}
        }
    }

    fn on_rsh_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        handle: RshHandle,
        result: Result<ExitStatus, RshError>,
    ) {
        // Completion of the standard rsh that spawns sub-appls. Success is
        // driven by SubApplReady; only failures need handling.
        let Some(grow) = self.by_handle.remove(&handle) else {
            return;
        };
        if matches!(result, Ok(ExitStatus::Success)) {
            return;
        }
        ctx.trace("appl.subappl.failed", format_args!("{grow}: {result:?}"));
        let kind = self.grows.get(&grow).map(|g| g.kind);
        let machine = self.grows.get(&grow).and_then(|g| g.machine);
        self.free_machine(ctx, grow);
        if let Some(g) = self.grows.get_mut(&grow) {
            let spawn = std::mem::replace(&mut g.spawn_span, SpanId::NONE);
            ctx.close_span(spawn, "alloc.spawn", "rsh-failed");
        }
        // The granted machine was unreachable (it may have crashed between
        // the daemon's last report and our rsh): for a batch job, retry the
        // allocation rather than failing the user's command outright. Only
        // broker-granted machines are retried — a host the *user* named
        // explicitly (machine unset) fails straight back to them.
        if kind == Some(GrowKind::Remote) && machine.is_some() {
            let can_retry = self
                .grows
                .get_mut(&grow)
                .map(|g| {
                    if g.retries > 0 {
                        g.retries -= 1;
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if can_retry {
                // Tell the broker the machine did not answer, so the retry
                // is not granted the same dead box.
                if let Some(machine) = machine {
                    ctx.send(
                        self.broker,
                        Payload::Broker(BrokerMsg::MachineUnreachable { machine }),
                    );
                }
                ctx.trace("appl.alloc.retry", format_args!("{grow}"));
                self.request_alloc(ctx, grow, rb_proto::SymbolicHost::Any);
                return;
            }
        }
        self.reply_rshp(ctx, grow, ExitStatus::Failure(1));
        self.end_grow(ctx, grow, "spawn-failed");
        self.module_grow_done(ctx, grow);
        if kind == Some(GrowKind::Remote) {
            self.finish_job(ctx, ExitStatus::Failure(1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        // Release deadline: the sub-appl (or its whole machine) is gone;
        // declare the machine freed so the broker can move on.
        if let Some(machine) = self.release_deadlines.remove(&token) {
            if let Some(&grow) = self.by_machine.get(&machine) {
                ctx.trace("appl.release.timeout", format_args!("{machine}"));
                self.free_machine(ctx, grow);
                self.end_grow(ctx, grow, "release-timeout");
                self.module_grow_done(ctx, grow);
            }
            return;
        }

        // Module-grow backstop: the coerced second rsh never came; give
        // the machine back so it is not stranded.
        if let Some(hostname) = self.named_timers.remove(&token) {
            if let Some(grow) = self.pending_named.remove(&hostname) {
                ctx.trace("appl.module.grow-lapsed", hostname);
                self.free_machine(ctx, grow);
                self.end_grow(ctx, grow, "lapsed");
                self.module_grow_done(ctx, grow);
            }
            return;
        }
        // Module-shrink backstop: if the module failed to coerce the job
        // off the machine, fall back to the sub-appl's signal path.
        if let Some(machine) = self.shrink_timers.remove(&token) {
            if let Some(&grow) = self.by_machine.get(&machine) {
                ctx.trace("appl.shrink.backstop", format_args!("{machine}"));
                if let Some(g) = self.grows.get(&grow) {
                    if let Some(sub) = g.subappl {
                        ctx.send(sub, Payload::Appl(ApplMsg::ReleaseChild));
                    }
                }
            }
        }
    }

    fn on_child_exit(&mut self, ctx: &mut Ctx<'_>, child: ProcId, status: ExitStatus) {
        if self.root == Some(child) {
            // A restartable job that died abnormally is started again (the
            // `start_script` semantics); a clean exit ends the job.
            if !status.is_success() {
                if let Some((make, budget)) = self.restart.as_mut() {
                    if *budget > 0 {
                        *budget -= 1;
                        let behavior = make();
                        let job = self.job.expect("registered");
                        let root = self.spawn_root(ctx, job, behavior);
                        ctx.trace("appl.restart", format_args!("{root} after {status}"));
                        return;
                    }
                }
            }
            self.finish_job(ctx, status);
        }
    }
}
