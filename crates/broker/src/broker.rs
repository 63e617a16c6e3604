//! The network-wide broker process of the resource-management layer.
//!
//! One broker runs per network (with user privileges only). It spawns a
//! monitoring daemon on every machine (restarting failed ones), maintains
//! the machine-status database from daemon reports, admits jobs, and
//! decides — through a pluggable [`Policy`] — which job may use which
//! machine: granting free machines, *reclaiming* machines from adaptive
//! jobs for even partitioning, evicting adaptive jobs from private
//! machines when their owners return, and asynchronously *offering*
//! machines to jobs with unmet standing desire as capacity frees up.

use crate::policy::{AllocContext, Decision, JobView, MachineUse, MachineView, Policy};
use rb_proto::{
    BrokerMsg, CommandSpec, ExitStatus, GrowId, JobId, MachineId, Payload, ProcId, RshError,
    RshHandle, TimerToken,
};
use rb_simcore::FxHashMap;
use rb_simcore::{SimTime, SpanId};
use rb_simnet::{Behavior, Ctx};
use std::collections::BTreeMap;

/// Broker configuration.
pub struct BrokerConfig {
    pub policy: Box<dyn Policy>,
    /// Spawn a daemon on every machine at startup (disable only in narrow
    /// unit tests).
    pub spawn_daemons: bool,
    /// Queue allocation requests of non-adaptive (batch/sequential) jobs
    /// when nothing is available, instead of denying them. Adaptive jobs
    /// are always denied fast — their runtimes tolerate failed grows and
    /// the offer loop serves them asynchronously.
    pub queue_batch_jobs: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            policy: Box::new(crate::policy::DefaultPolicy::default()),
            spawn_daemons: true,
            queue_batch_jobs: true,
        }
    }
}

#[derive(Debug)]
struct MachInfo {
    daemon: Option<ProcId>,
    usage: MachineUse,
    owner_present: bool,
    load: u32,
    last_contact: SimTime,
    /// An unanswered respawn attempt is in flight.
    respawning: bool,
    /// Keyboard/mouse activity on a *private* machine counts as the owner
    /// being present until this instant (a hold-down so one keystroke does
    /// not thrash allocation).
    activity_hold_until: SimTime,
    /// Effective owner presence as of the last daemon report (for edge
    /// detection).
    last_effective_owner: bool,
}

impl MachInfo {
    /// Is the owner effectively present at `now` (logged in, or recent
    /// keyboard/mouse activity on a private machine)?
    fn owner_effective(&self, now: SimTime) -> bool {
        self.owner_present || now < self.activity_hold_until
    }

    /// Bring the policy's view of this machine up to date.
    fn refresh(&self, view: &mut MachineView, now: SimTime) {
        view.state = self.usage;
        view.owner_present = self.owner_effective(now);
        view.load = self.load;
        view.daemon_alive = self.daemon.is_some();
    }
}

#[derive(Debug)]
struct JobInfo {
    appl: ProcId,
    adaptive: bool,
    desired: u32,
    constraints: Vec<rb_rsl::Clause>,
    held: Vec<MachineId>,
    home: MachineId,
    user: String,
}

/// A machine being vacated: whose it was, and who gets it.
#[derive(Debug)]
struct Reclaim {
    victim: JobId,
    why: ReclaimFor,
}

/// Why a machine is being vacated.
#[derive(Debug, Clone, Copy)]
enum ReclaimFor {
    /// A pending grow of another job gets it once free. The decide span
    /// stays open across the reclaim: its duration *is* the paper's
    /// reallocation latency. The request's constraint lets the grow be
    /// decided again if the machine's owner returns first.
    Grow {
        job: JobId,
        grow: GrowId,
        constraint: rb_proto::SymbolicHost,
        span: SpanId,
    },
    /// The private owner returned.
    Owner,
}

/// The broker behavior.
pub struct Broker {
    cfg: BrokerConfig,
    /// The machine-status database, indexed by `MachineId` (the world's
    /// machines are `0..n`).
    machines: Vec<MachInfo>,
    /// What the policy is shown, one entry per machine in id order. The
    /// attributes are copied once at start; the rest is refreshed from
    /// `machines` right before each policy call.
    views: Vec<MachineView>,
    jobs: BTreeMap<JobId, JobInfo>,
    next_job: u32,
    /// machine being vacated -> victim and beneficiary.
    reclaims: FxHashMap<MachineId, Reclaim>,
    /// reservation timers: token -> machine.
    reservation_timers: FxHashMap<TimerToken, MachineId>,
    /// FIFO queue of batch-job allocation requests waiting for capacity.
    queue: std::collections::VecDeque<QueuedAlloc>,
    tick_timer: Option<TimerToken>,
    daemon_rsh: FxHashMap<RshHandle, MachineId>,
}

#[derive(Debug, Clone)]
struct QueuedAlloc {
    job: JobId,
    grow: GrowId,
    constraint: rb_proto::SymbolicHost,
    /// The still-open decide span: queue wait is part of the decision.
    span: SpanId,
}

impl Broker {
    pub fn new(cfg: BrokerConfig) -> Self {
        Broker {
            cfg,
            machines: Vec::new(),
            views: Vec::new(),
            jobs: BTreeMap::new(),
            next_job: 1,
            reclaims: FxHashMap::default(),
            reservation_timers: FxHashMap::default(),
            queue: std::collections::VecDeque::new(),
            tick_timer: None,
            daemon_rsh: FxHashMap::default(),
        }
    }

    fn machine_mut(&mut self, machine: MachineId) -> Option<&mut MachInfo> {
        self.machines.get_mut(machine.0 as usize)
    }

    /// Jobs in id order with their holdings, adjusted for in-flight
    /// reclaims: a machine being vacated no longer counts for its victim
    /// and already counts for the requester it is destined for. Without
    /// this, a burst of concurrent grow requests all see the victim's
    /// stale count and strip it bare — the even partition the policy
    /// promises would never materialize.
    fn job_views(&self) -> Vec<JobView> {
        let mut views: Vec<JobView> = self
            .jobs
            .iter()
            .map(|(&job, info)| JobView {
                job,
                adaptive: info.adaptive,
                held: info.held.len() as u32,
                desired: info.desired,
            })
            .collect();
        let find = |views: &[JobView], job: JobId| views.binary_search_by_key(&job, |j| j.job).ok();
        for r in self.reclaims.values() {
            if let Some(i) = find(&views, r.victim) {
                views[i].held = views[i].held.saturating_sub(1);
            }
            if let ReclaimFor::Grow { job, .. } = r.why {
                if let Some(i) = find(&views, job) {
                    views[i].held += 1;
                }
            }
        }
        views
    }

    fn grant(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: JobId,
        grow: GrowId,
        machine: MachineId,
        span: SpanId,
    ) {
        let hostname = ctx.hostname_of(machine);
        let Some(info) = self.jobs.get_mut(&job) else {
            // Requester vanished while we worked: machine stays free.
            ctx.close_span(span, "alloc.decide", "job-gone");
            self.set_usage(machine, MachineUse::Free);
            return;
        };
        info.held.push(machine);
        let adaptive = info.adaptive;
        let appl = info.appl;
        self.set_usage(machine, MachineUse::Allocated { job, adaptive });
        ctx.trace("broker.grant", format_args!("{hostname} -> {job} ({grow})"));
        ctx.metric_inc("broker.grants", job);
        ctx.close_span(span, "alloc.decide", "granted");
        ctx.send(
            appl,
            Payload::Broker(BrokerMsg::AllocGrant {
                grow,
                machine,
                hostname: hostname.to_string(),
                span,
            }),
        );
    }

    fn set_usage(&mut self, machine: MachineId, usage: MachineUse) {
        if let Some(m) = self.machine_mut(machine) {
            m.usage = usage;
        }
    }

    /// Begin taking `machine` away from `victim` on behalf of `target`.
    fn start_reclaim(
        &mut self,
        ctx: &mut Ctx<'_>,
        victim: JobId,
        machine: MachineId,
        why: ReclaimFor,
    ) {
        let Some(vinfo) = self.jobs.get(&victim) else {
            return;
        };
        let appl = vinfo.appl;
        self.set_usage(machine, MachineUse::Reclaiming);
        self.reclaims.insert(machine, Reclaim { victim, why });
        let host = ctx.hostname_of(machine);
        ctx.trace("broker.reclaim", format_args!("{host} from {victim}"));
        ctx.metric_inc("broker.reclaims", victim);
        ctx.send(appl, Payload::Broker(BrokerMsg::ReleaseMachine { machine }));
    }

    /// Is the machine's owner effectively present (logged in, or recent
    /// keyboard/mouse activity on a private machine)?
    fn owner_effective(&self, now: SimTime, machine: MachineId) -> bool {
        self.machines
            .get(machine.0 as usize)
            .is_some_and(|m| m.owner_effective(now))
    }

    /// A machine just became free: offer it to a hungry job, per policy.
    fn offer_or_idle(&mut self, ctx: &mut Ctx<'_>, machine: MachineId) {
        let now = ctx.now();
        let i = machine.0 as usize;
        let Some(m) = self.machines.get_mut(i) else {
            return;
        };
        if m.owner_effective(now) {
            m.usage = MachineUse::OwnerHeld;
            return;
        }
        m.usage = MachineUse::Free;
        m.refresh(&mut self.views[i], now);
        let jobs = self.job_views();
        if let Some(job) = self.cfg.policy.offer(&self.views[i], &jobs) {
            if let Some(jinfo) = self.jobs.get(&job) {
                let appl = jinfo.appl;
                let hostname = self.views[i].attrs.hostname.clone();
                self.set_usage(machine, MachineUse::Reserved { job });
                // Reservations expire so an unresponsive job cannot strand
                // a machine.
                let token = ctx.set_timer(rb_simcore::Duration::from_secs(30));
                self.reservation_timers.insert(token, machine);
                ctx.trace("broker.offer", format_args!("{hostname} -> {job}"));
                ctx.metric_inc("broker.offers", job);
                ctx.send(
                    appl,
                    Payload::Broker(BrokerMsg::GrowOffer { machine, hostname }),
                );
            }
        }
    }

    fn spawn_daemon(&mut self, ctx: &mut Ctx<'_>, machine: MachineId) {
        let hostname = ctx.hostname_of(machine);
        let me = ctx.me();
        let handle = ctx.rsh_standard(&hostname, CommandSpec::RbDaemon { broker: me });
        self.daemon_rsh.insert(handle, machine);
        if let Some(m) = self.machine_mut(machine) {
            m.respawning = true;
        }
    }

    /// Run the policy for one allocation request. `may_queue` is false for
    /// requests replayed from the queue (a second failure re-queues at the
    /// front rather than the back). `req_span` is the appl's `alloc` span;
    /// `decide` is a decide span already opened for this request (queue
    /// replays, grows whose reclaim the owner preempted) or `NONE` for a
    /// fresh request.
    #[allow(clippy::too_many_arguments)]
    fn handle_alloc(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: JobId,
        grow: GrowId,
        constraint: rb_proto::SymbolicHost,
        may_queue: bool,
        req_span: SpanId,
        decide: SpanId,
    ) {
        let Some(jinfo) = self.jobs.get(&job) else {
            ctx.close_span(decide, "alloc.decide", "job-gone");
            return; // job finished while queued
        };
        let decide = if decide == SpanId::NONE {
            ctx.open_span(
                req_span,
                "alloc.decide",
                format_args!("{grow} job={job} {constraint}"),
            )
        } else {
            decide
        };
        let jobs = self.job_views();
        let held = jobs
            .binary_search_by_key(&job, |j| j.job)
            .map_or(0, |i| jobs[i].held);
        let req = AllocContext {
            job,
            adaptive: jinfo.adaptive,
            constraint,
            rsl_constraints: jinfo.constraints.clone(),
            held,
            home: Some(jinfo.home),
            user: jinfo.user.clone(),
        };
        let appl = jinfo.appl;
        let now = ctx.now();
        for (m, view) in self.machines.iter().zip(&mut self.views) {
            m.refresh(view, now);
        }
        let decision = self.cfg.policy.allocate(&req, &self.views, &jobs);
        match decision {
            Decision::Grant(machine) => {
                // Clear any reservation timer tied to this machine.
                self.reservation_timers.retain(|_, &mut m| m != machine);
                self.grant(ctx, job, grow, machine, decide);
            }
            Decision::Reclaim { victim, machine } => {
                self.start_reclaim(
                    ctx,
                    victim,
                    machine,
                    ReclaimFor::Grow {
                        job,
                        grow,
                        constraint,
                        span: decide,
                    },
                );
            }
            Decision::Deny { reason } => {
                if self.cfg.queue_batch_jobs && !req.adaptive {
                    // Batch jobs wait their turn instead of failing; the
                    // user can see them with the query tool.
                    ctx.trace("broker.queued", format_args!("{job} ({grow})"));
                    ctx.metric_inc("broker.queued", job);
                    let entry = QueuedAlloc {
                        job,
                        grow,
                        constraint,
                        span: decide,
                    };
                    if may_queue {
                        self.queue.push_back(entry);
                    } else {
                        self.queue.push_front(entry);
                    }
                } else {
                    ctx.trace("broker.deny", format_args!("{job} ({grow}): {reason}"));
                    ctx.metric_inc("broker.denied", job);
                    ctx.close_span(decide, "alloc.decide", "denied");
                    ctx.send(
                        appl,
                        Payload::Broker(BrokerMsg::AllocDenied { grow, reason }),
                    );
                }
            }
        }
    }

    /// A machine became free: serve the batch queue first; only when no
    /// queued request fits is the machine offered to adaptive jobs.
    fn serve_queue_or_offer(&mut self, ctx: &mut Ctx<'_>, machine: MachineId) {
        // Drop queue entries whose jobs ended meanwhile, closing their
        // decide spans so no allocation tree is left dangling.
        let mut kept = std::collections::VecDeque::with_capacity(self.queue.len());
        for q in std::mem::take(&mut self.queue) {
            if self.jobs.contains_key(&q.job) {
                kept.push_back(q);
            } else {
                ctx.close_span(q.span, "alloc.decide", "job-gone");
            }
        }
        self.queue = kept;
        if let Some(q) = self.queue.pop_front() {
            // Machine state is still whatever it was; mark free first so
            // the policy can pick it (or any other machine).
            if self.owner_effective(ctx.now(), machine) {
                self.set_usage(machine, MachineUse::OwnerHeld);
                self.queue.push_front(q);
                return;
            }
            self.set_usage(machine, MachineUse::Free);
            self.handle_alloc(
                ctx,
                q.job,
                q.grow,
                q.constraint,
                false,
                SpanId::NONE,
                q.span,
            );
            return;
        }
        self.offer_or_idle(ctx, machine);
    }

    /// A vacated machine is free: it goes to the grow it was reclaimed
    /// for, to its returned owner, or back to the pool.
    fn machine_vacated(&mut self, ctx: &mut Ctx<'_>, machine: MachineId) {
        match self.reclaims.remove(&machine).map(|r| r.why) {
            Some(ReclaimFor::Grow {
                job, grow, span, ..
            }) => self.grant(ctx, job, grow, machine, span),
            Some(ReclaimFor::Owner) => self.set_usage(machine, MachineUse::OwnerHeld),
            None => self.serve_queue_or_offer(ctx, machine),
        }
    }

    fn handle_owner_transition(&mut self, ctx: &mut Ctx<'_>, machine: MachineId, present: bool) {
        let usage = match self.machines.get(machine.0 as usize) {
            Some(m) => m.usage,
            None => return,
        };
        if present {
            match usage {
                MachineUse::Allocated { job, adaptive }
                    if adaptive && self.cfg.policy.evict_on_owner_return() =>
                {
                    let host = ctx.hostname_of(machine);
                    ctx.trace("broker.evict.owner", format_args!("{host} from {job}"));
                    self.start_reclaim(ctx, job, machine, ReclaimFor::Owner);
                }
                MachineUse::Free | MachineUse::Reserved { .. } => {
                    self.set_usage(machine, MachineUse::OwnerHeld);
                }
                MachineUse::Reclaiming => {
                    // The owner outranks the grow this machine is being
                    // vacated for: it goes to the owner once free, and the
                    // grow is decided again under its still-open span.
                    let Some(r) = self.reclaims.get_mut(&machine) else {
                        return;
                    };
                    let victim = r.victim;
                    let ReclaimFor::Grow {
                        job,
                        grow,
                        constraint,
                        span,
                    } = std::mem::replace(&mut r.why, ReclaimFor::Owner)
                    else {
                        return;
                    };
                    let host = ctx.hostname_of(machine);
                    ctx.trace("broker.evict.owner", format_args!("{host} from {victim}"));
                    self.handle_alloc(ctx, job, grow, constraint, true, SpanId::NONE, span);
                }
                _ => {}
            }
        } else if matches!(usage, MachineUse::OwnerHeld) {
            ctx.trace("broker.owner.left", ctx.hostname_of(machine));
            self.offer_or_idle(ctx, machine);
        }
    }

    fn cluster_status(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (m, view) in self.machines.iter().zip(&self.views) {
            let attrs = &view.attrs;
            lines.push(format!(
                "{:<6} {:<8} {:?} load={} owner={} daemon={}",
                attrs.hostname,
                format!("{}/{}", attrs.arch, attrs.os),
                m.usage,
                m.load,
                m.owner_present,
                m.daemon.is_some()
            ));
        }
        for (job, j) in &self.jobs {
            lines.push(format!(
                "{job}: user={} adaptive={} held={} desired={}",
                j.user,
                j.adaptive,
                j.held.len(),
                j.desired
            ));
        }
        for q in &self.queue {
            lines.push(format!("queued: {} ({})", q.job, q.grow));
        }
        lines
    }
}

impl Behavior for Broker {
    fn name(&self) -> &'static str {
        "broker"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // `all_machines` lists ids `0..n` in order: entry `i` is machine `i`.
        for id in ctx.all_machines() {
            let info = MachInfo {
                daemon: None,
                usage: MachineUse::Free,
                owner_present: false,
                load: 0,
                last_contact: now,
                respawning: false,
                activity_hold_until: SimTime::ZERO,
                last_effective_owner: false,
            };
            let view = MachineView {
                id,
                attrs: ctx.attrs_of(id).clone(),
                state: info.usage,
                owner_present: false,
                load: 0,
                daemon_alive: false,
            };
            self.machines.push(info);
            self.views.push(view);
        }
        ctx.trace(
            "broker.up",
            format_args!("{} machines", self.machines.len()),
        );
        if self.cfg.spawn_daemons {
            let ids = ctx.all_machines();
            for id in ids {
                self.spawn_daemon(ctx, id);
            }
        }
        let interval = ctx.cost().daemon_ping_interval;
        self.tick_timer = Some(ctx.set_timer(interval));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if self.tick_timer == Some(token) {
            // Daemon liveness: a daemon silent for two report intervals is
            // considered dead and respawned (the machine may also be down;
            // the rsh failure arms a retry at the next tick).
            let now = ctx.now();
            let silence_limit = rb_simcore::Duration(
                2 * ctx.cost().daemon_report_interval.as_micros()
                    + ctx.cost().daemon_ping_interval.as_micros(),
            );
            let stale: Vec<MachineId> = self
                .machines
                .iter()
                .zip(&self.views)
                .filter(|(m, _)| {
                    !m.respawning && now.saturating_since(m.last_contact) > silence_limit
                })
                .map(|(_, v)| v.id)
                .collect();
            for id in stale {
                ctx.trace("broker.daemon.lost", format_args!("{id}"));
                self.machines[id.0 as usize].daemon = None;
                self.spawn_daemon(ctx, id);
            }
            let interval = ctx.cost().daemon_ping_interval;
            self.tick_timer = Some(ctx.set_timer(interval));
            return;
        }
        if let Some(machine) = self.reservation_timers.remove(&token) {
            // Reservation expired unused.
            if let Some(m) = self.machine_mut(machine) {
                if matches!(m.usage, MachineUse::Reserved { .. }) {
                    m.usage = MachineUse::Free;
                    ctx.trace("broker.reservation.expired", format_args!("{machine}"));
                }
            }
        }
    }

    fn on_rsh_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        handle: RshHandle,
        result: Result<ExitStatus, RshError>,
    ) {
        if let Some(machine) = self.daemon_rsh.remove(&handle) {
            if let Some(m) = self.machine_mut(machine) {
                m.respawning = false;
                if result.is_err() {
                    ctx.trace("broker.daemon.spawn-failed", format_args!("{machine}"));
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Payload) {
        let Payload::Broker(msg) = msg else { return };
        match msg {
            // ---------------- daemons ----------------
            BrokerMsg::DaemonHello { machine } => {
                if let Some(m) = self.machine_mut(machine) {
                    m.daemon = Some(from);
                    m.last_contact = ctx.now();
                    m.respawning = false;
                }
                // Record the hostname (not the machine id): the linter
                // correlates hellos with grants, which use hostnames.
                ctx.trace("broker.daemon.hello", ctx.hostname_of(machine));
            }
            BrokerMsg::DaemonStatus(report) => {
                let machine = report.machine;
                // On private machines, keyboard/mouse activity means the
                // owner is back even before a login shows up; hold that
                // state for a quiet period so allocation doesn't thrash.
                let private = ctx.attrs_of(machine).ownership.is_private();
                let now = ctx.now();
                let hold = rb_simcore::Duration::from_secs(30);
                let Some(m) = self.machine_mut(machine) else {
                    return;
                };
                m.daemon = Some(from);
                m.last_contact = now;
                m.load = report.load;
                let prev_effective = m.last_effective_owner;
                if private && report.console_active {
                    m.activity_hold_until = now + hold;
                }
                m.owner_present = report.owner_present;
                let effective = m.owner_effective(now);
                m.last_effective_owner = effective;
                if prev_effective != effective {
                    self.handle_owner_transition(ctx, machine, effective);
                }
            }
            BrokerMsg::DaemonPong { machine, .. } => {
                if let Some(m) = self.machine_mut(machine) {
                    m.last_contact = ctx.now();
                }
            }

            // ---------------- jobs ----------------
            BrokerMsg::RegisterJob {
                appl,
                rsl,
                user,
                home,
            } => {
                let spec = match rb_rsl::parse(&rsl)
                    .map_err(|e| e.to_string())
                    .and_then(|r| rb_rsl::job_spec(&r).map_err(|e| e.to_string()))
                {
                    Ok(spec) => spec,
                    Err(reason) => {
                        ctx.trace("broker.job.rejected", reason.clone());
                        ctx.send(appl, Payload::Broker(BrokerMsg::JobRejected { reason }));
                        return;
                    }
                };
                let job = JobId(self.next_job);
                self.next_job += 1;
                ctx.trace(
                    "broker.job.accepted",
                    format_args!("{job} adaptive={} module={:?}", spec.adaptive, spec.module),
                );
                self.jobs.insert(
                    job,
                    JobInfo {
                        appl,
                        adaptive: spec.adaptive,
                        desired: spec.min_count,
                        constraints: spec.constraints,
                        held: Vec::new(),
                        home,
                        user,
                    },
                );
                ctx.send(appl, Payload::Broker(BrokerMsg::JobAccepted { job }));
            }
            BrokerMsg::AllocRequest {
                job,
                grow,
                constraint,
                span,
            } => {
                if self.jobs.contains_key(&job) {
                    self.handle_alloc(ctx, job, grow, constraint, true, span, SpanId::NONE);
                } else {
                    ctx.send(
                        from,
                        Payload::Broker(BrokerMsg::AllocDenied {
                            grow,
                            reason: "unknown job".into(),
                        }),
                    );
                }
            }
            BrokerMsg::MachineUnreachable { machine } => {
                ctx.trace("broker.unreachable", format_args!("{machine}"));
                if let Some(m) = self.machine_mut(machine) {
                    // Distrust until a daemon hello/report arrives again;
                    // the liveness tick will keep retrying the respawn.
                    m.daemon = None;
                }
            }
            BrokerMsg::MachineFreed { job, machine } => {
                if let Some(jinfo) = self.jobs.get_mut(&job) {
                    jinfo.held.retain(|&m| m != machine);
                }
                let host = ctx.hostname_of(machine);
                ctx.trace("broker.freed", format_args!("{host} by {job}"));
                self.machine_vacated(ctx, machine);
            }
            BrokerMsg::JobDone { job } => {
                ctx.trace("broker.job.done", format_args!("{job}"));
                if let Some(jinfo) = self.jobs.remove(&job) {
                    for machine in jinfo.held {
                        self.machine_vacated(ctx, machine);
                    }
                }
                let mut kept = std::collections::VecDeque::with_capacity(self.queue.len());
                for q in std::mem::take(&mut self.queue) {
                    if q.job != job {
                        kept.push_back(q);
                    } else {
                        ctx.close_span(q.span, "alloc.decide", "job-done");
                    }
                }
                self.queue = kept;
                // Reservations held for the finished job lapse.
                let lapsed: Vec<MachineId> = self
                    .machines
                    .iter()
                    .zip(&self.views)
                    .filter(|(m, _)| matches!(m.usage, MachineUse::Reserved { job: r } if r == job))
                    .map(|(_, v)| v.id)
                    .collect();
                for machine in lapsed {
                    self.serve_queue_or_offer(ctx, machine);
                }
            }

            // ---------------- user tools ----------------
            BrokerMsg::QueryCluster { reply_to } => {
                let lines = self.cluster_status();
                ctx.send(
                    reply_to,
                    Payload::Broker(BrokerMsg::ClusterStatus { lines }),
                );
            }
            _ => {}
        }
    }
}
