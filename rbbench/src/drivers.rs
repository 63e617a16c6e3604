//! Bench-side drivers for the four workloads, built only from the
//! repository's public API.
//!
//! The repository's own experiment entry points (`utilization::run`,
//! `fig7::realloc_k_machines`, `storm::run`) hide the `World`, so a caller
//! can neither split set-up from the measured run nor read the profiler and
//! metrics registry afterwards. These drivers make the same calls in the
//! same order, with a [`Probe`] timing each phase from outside; the tests
//! in `tests/drivers.rs` pin them to the repository's entry points exactly.

use crate::layers::{Layers, TimedPolicy};
use rb_broker::{
    build_cluster, submit_job, Cluster, ClusterOptions, DefaultPolicy, JobRequest, JobRun, Policy,
    ReclaimRule,
};
use rb_parsys::{PvmMaster, PvmMasterConfig};
use rb_proto::{CommandSpec, ConsoleCmd, CtlMsg, MachineAttrs, Payload, ProcId, TimerToken};
use rb_simcore::{Duration, QueueStats, Series, SimRng, SimTime};
use rb_simnet::{Behavior, Ctx, ProcEnv, RshBinding, World, WorldBuilder, HARNESS};
use rb_workloads::scenarios::{await_calypso_workers, submit_endless_calypso};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Virtual-time interval of metrics-registry gauge samples in traced worlds.
const METRICS_INTERVAL: Duration = Duration::from_secs(60);

/// Host seconds spent in each phase of the worlds a rep ran, plus the
/// per-layer accumulator when the rep is traced.
#[derive(Default)]
pub struct Probe {
    /// `build_cluster` / `WorldBuilder::build` and process spawning.
    pub build_s: f64,
    /// Settling, Calypso saturation and PVM boot: everything after the
    /// build and before the first measured simulated instant.
    pub warm_s: f64,
    /// The measured simulation (`run_until*` calls after set-up).
    pub run_s: f64,
    /// `Some` in a traced rep: profiler, trace and metrics on, and the
    /// policy wrapped in [`TimedPolicy`].
    pub layers: Option<Layers>,
}

impl Probe {
    pub fn traced() -> Self {
        Probe {
            layers: Some(Layers::default()),
            ..Probe::default()
        }
    }

    /// Host time until the first measured simulated instant.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.warm_s
    }

    fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *slot += t0.elapsed().as_secs_f64();
        out
    }

    fn cluster(&mut self, publics: usize, seed: u64, policy: DefaultPolicy) -> Cluster {
        let traced = self.layers.is_some();
        let policy: Box<dyn Policy> = match &self.layers {
            Some(l) => Box::new(TimedPolicy::new(policy, l.policy.clone())),
            None => Box::new(policy),
        };
        let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
        machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
        let opts = ClusterOptions {
            seed,
            machines,
            policy,
            trace: traced,
            profile: traced,
            metrics_interval: traced.then_some(METRICS_INTERVAL),
            ..Default::default()
        };
        Self::timed(&mut self.build_s, || build_cluster(opts))
    }

    fn finish(&mut self, world: &World) {
        if let Some(l) = self.layers.as_mut() {
            l.absorb_world(world);
        }
    }
}

/// The user's workstation `n00` is private with its owner at the console,
/// so it never joins the pool; let the broker boot and its daemons report.
fn settle_testbed(c: &mut Cluster) {
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
}

/// One §6.2 utilization experiment (`rb_workloads::utilization`): an
/// endless Calypso job holds every public machine, and a sequential job of
/// U[1, 10] minutes arrives every `arrival_period_secs`.
#[derive(Debug, Clone, Copy)]
pub struct UtilParams {
    pub machines: usize,
    pub arrival_period_secs: u64,
    pub hours: f64,
}

/// What one utilization experiment simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilOutcome {
    /// The paper's "detected idleness": share of public machine-time with
    /// no application process during the measurement window.
    pub idleness: f64,
    pub submitted: usize,
    pub completed: usize,
    pub failed: usize,
    pub queue: QueueStats,
}

impl UtilOutcome {
    /// Jobs submitted but still running at the horizon.
    pub fn unfinished(&self) -> usize {
        self.submitted - self.completed - self.failed
    }
}

pub fn util_experiment(p: &UtilParams, seed: u64, probe: &mut Probe) -> UtilOutcome {
    let mut c = probe.cluster(p.machines, seed, DefaultPolicy::default());
    Probe::timed(&mut probe.warm_s, || {
        settle_testbed(&mut c);
        submit_endless_calypso(&mut c, p.machines as u32, 2_000);
        let limit = SimTime(c.world.now().as_micros() + 120_000_000);
        await_calypso_workers(&mut c, p.machines, limit);
    });

    let t_start = c.world.now();
    let publics = &c.machines[1..];
    let alloc_at_start: Vec<Duration> =
        publics.iter().map(|&m| c.world.allocated_time(m)).collect();
    let end = t_start + Duration::from_secs((p.hours * 3600.0) as u64);
    let appls = Arc::new(Mutex::new(Vec::new()));
    let submitted = Probe::timed(&mut probe.run_s, || {
        let mut rng = SimRng::seeded(seed ^ 0xABCD);
        let mut t = t_start + Duration::from_secs(p.arrival_period_secs);
        let mut submitted = 0;
        while t < end {
            let minutes = rng.uniform_f64(1.0, 10.0);
            let cpu_millis = (minutes * 60_000.0) as u64;
            let (broker, home, modules, appls) =
                (c.broker, c.machines[0], c.modules.clone(), appls.clone());
            c.world.schedule(t, move |w| {
                let req = JobRequest {
                    rsl: "(adaptive=0)".into(),
                    user: "seq".into(),
                    run: JobRun::Remote {
                        host: "anylinux".into(),
                        cmd: CommandSpec::Loop { cpu_millis },
                    },
                };
                let appl = submit_job(w, home, broker, &modules, req);
                appls.lock().expect("appl list lock").push(appl);
            });
            submitted += 1;
            t = t + Duration::from_secs(p.arrival_period_secs);
        }
        c.world.run_until(end);
        submitted
    });
    probe.finish(&c.world);

    let mut allocated = Duration::ZERO;
    for (&m, &a) in publics.iter().zip(&alloc_at_start) {
        allocated += c.world.allocated_time(m).saturating_sub(a);
    }
    let idleness =
        1.0 - allocated.as_secs_f64() / ((end - t_start).as_secs_f64() * p.machines as f64);
    let (mut completed, mut failed) = (0, 0);
    for &appl in appls.lock().expect("appl list lock").iter() {
        match c.world.exit_status(appl) {
            Some(s) if s.is_success() => completed += 1,
            Some(_) => failed += 1,
            None => {}
        }
    }
    UtilOutcome {
        idleness,
        submitted,
        completed,
        failed,
        queue: c.world.kernel_stats(),
    }
}

/// Machines in a Figure 7 world, and the largest k reallocated.
pub const FIG7_MACHINES: usize = 16;

/// One Figure 7 point (`rb_workloads::fig7::realloc_k_machines`): simulated
/// seconds to move `k` machines from an endless Calypso job to a fresh PVM
/// virtual machine under demand-driven reclaim, plus the world's queue
/// counters.
pub fn fig7_point(k: usize, seed: u64, probe: &mut Probe) -> (f64, QueueStats) {
    let mut c = probe.cluster(
        FIG7_MACHINES,
        seed,
        DefaultPolicy::with_rule(ReclaimRule::Demand),
    );
    Probe::timed(&mut probe.warm_s, || {
        settle_testbed(&mut c);
        submit_endless_calypso(&mut c, FIG7_MACHINES as u32, 900);
        let limit = SimTime(c.world.now().as_micros() + 120_000_000);
        await_calypso_workers(&mut c, FIG7_MACHINES, limit);
        c.submit(
            c.machines[0],
            JobRequest {
                rsl: r#"+(adaptive=1)(module="pvm")"#.into(),
                user: "pvm-user".into(),
                run: JobRun::Root(Box::new(PvmMaster::new(PvmMasterConfig::default()))),
            },
        );
        let boot = SimTime(c.world.now().as_micros() + 30_000_000);
        assert!(
            c.world
                .run_until_pred(boot, |w| !w.procs_named("pvm-master").is_empty()),
            "PVM master never started"
        );
        c.world
            .run_until(SimTime(c.world.now().as_micros() + 1_000_000));
    });

    let t0 = c.world.now();
    Probe::timed(&mut probe.run_s, || {
        let mut script: Vec<ConsoleCmd> = (0..k)
            .map(|_| ConsoleCmd::Add("anylinux".to_string()))
            .collect();
        script.push(ConsoleCmd::Quit);
        let console = c
            .world
            .build_program(&CommandSpec::PvmConsole { script })
            .expect("console installed");
        let env = ProcEnv {
            job: None,
            appl: None,
            rsh: RshBinding::Broker,
            user: "pvm-user".into(),
            system: false,
        };
        c.world.spawn_user(c.machines[0], console, env);
        let limit = SimTime(c.world.now().as_micros() + 600_000_000);
        let reached = c
            .world
            .run_until_pred(limit, |w| w.procs_named("pvmd").len() == k);
        assert!(reached, "PVM never reached {k} slaves");
    });
    probe.finish(&c.world);
    ((c.world.now() - t0).as_secs_f64(), c.world.kernel_stats())
}

/// One Figure 7 curve (`rb_workloads::fig7::run(1..=16, 16, base)`):
/// point k runs on seed `base + k`.
pub fn fig7_curve(base: u64, probe: &mut Probe) -> (Series, Vec<QueueStats>) {
    let mut series = Series::new("reallocation time vs machines");
    let mut queues = Vec::with_capacity(FIG7_MACHINES);
    for k in 1..=FIG7_MACHINES {
        let (secs, queue) = fig7_point(k, base + k as u64, probe);
        series.push(k as f64, secs);
        queues.push(queue);
    }
    (series, queues)
}

/// The timer storm (`rb_workloads::storm`) with its default process mix:
/// 50µs timers, 20µs CPU bursts, a ring ping every 16th tick.
#[derive(Debug, Clone, Copy)]
pub struct StormParams {
    pub machines: usize,
    pub run_for: Duration,
    pub shards: usize,
    pub threads: usize,
}

/// The storm's timer period.
pub const STORM_PERIOD: Duration = Duration::from_micros(50);
const STORM_BURST: Duration = Duration::from_micros(20);
const STORM_PING_EVERY: u64 = 16;

/// The storm process, identical to `rb_workloads::storm`'s (which is
/// private to that module): re-arm a short timer forever, burn a CPU
/// burst per tick, and every 16th tick probe the ring neighbour.
struct StormProc {
    ticks: u64,
    peer: Option<ProcId>,
}

impl Behavior for StormProc {
    fn name(&self) -> &'static str {
        "storm"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let phase = ctx.rng_u64(0, STORM_PERIOD.as_micros());
        ctx.set_timer(STORM_PERIOD + Duration::from_micros(phase));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Payload) {
        if let Payload::Ctl(CtlMsg::Probe { reply_to, token }) = msg {
            if from == HARNESS {
                self.peer = Some(reply_to);
            } else {
                ctx.send(reply_to, Payload::Ctl(CtlMsg::ProbeReply { token }));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.ticks += 1;
        ctx.cpu_burst(STORM_BURST);
        if let Some(peer) = self.peer {
            if self.ticks.is_multiple_of(STORM_PING_EVERY) {
                let ping = CtlMsg::Probe {
                    reply_to: ctx.me(),
                    token: self.ticks,
                };
                ctx.send(peer, Payload::Ctl(ping));
            }
        }
        ctx.set_timer(STORM_PERIOD);
    }
}

/// Run one storm world; returns its queue counters and, when traced, its
/// rendered trace.
pub fn storm_run(p: &StormParams, seed: u64, probe: &mut Probe) -> (QueueStats, String) {
    let traced = probe.layers.is_some();
    let (mut w, procs) = Probe::timed(&mut probe.build_s, || {
        let mut b = WorldBuilder::new()
            .seed(seed)
            .trace(traced)
            .profile(traced)
            .shards(p.shards)
            .threads(p.threads);
        if traced {
            b = b.metrics(METRICS_INTERVAL);
        }
        let machines = b.standard_lab(p.machines);
        let mut w = b.build();
        let procs: Vec<ProcId> = machines
            .iter()
            .map(|&m| {
                let proc = StormProc {
                    ticks: 0,
                    peer: None,
                };
                w.spawn_user(m, Box::new(proc), ProcEnv::user_standard("storm"))
            })
            .collect();
        (w, procs)
    });
    Probe::timed(&mut probe.warm_s, || {
        for (i, &proc) in procs.iter().enumerate() {
            let peer = procs[(i + 1) % procs.len()];
            let intro = CtlMsg::Probe {
                reply_to: peer,
                token: 0,
            };
            w.send_from_harness(proc, Payload::Ctl(intro));
        }
    });
    Probe::timed(&mut probe.run_s, || {
        w.run_until(SimTime(w.now().as_micros() + p.run_for.as_micros()))
    });
    probe.finish(&w);
    (w.kernel_stats(), w.trace().render())
}
