//! Convenience wiring: build a broker-managed cluster world in one call.
//!
//! This is the "site installation" step: install the program factories
//! (base programs, parallel systems, broker agents), replace the
//! system-wide `rsh` with `rsh'`, start the broker, and let it spawn its
//! daemons.

use crate::appl::{Appl, JobRequest};
use crate::broker::{Broker, BrokerConfig};
use crate::daemon::RbDaemon;
use crate::modules::ModuleRegistry;
use crate::policy::Policy;
use crate::rshprime::RshPrimeInstaller;
use crate::subappl::SubAppl;
use rb_proto::{CommandSpec, ExitStatus, MachineAttrs, MachineId, ProcId};
use rb_simcore::SimTime;
use rb_simnet::{
    BasePrograms, Behavior, CostModel, FactoryChain, ProcEnv, ProgramFactory, RshBinding, World,
    WorldBuilder,
};
use std::sync::Arc;

/// Factory for the broker's own remotely-spawned agents.
pub struct BrokerPrograms;

impl ProgramFactory for BrokerPrograms {
    fn build(&self, cmd: &CommandSpec) -> Option<Box<dyn Behavior>> {
        match cmd {
            CommandSpec::SubAppl { appl, job, grow } => {
                Some(Box::new(SubAppl::new(*appl, *job, *grow)))
            }
            CommandSpec::RbDaemon { broker } => Some(Box::new(RbDaemon::new(*broker))),
            _ => None,
        }
    }
}

/// Options for [`build_cluster`].
pub struct ClusterOptions {
    pub seed: u64,
    pub cost: CostModel,
    pub trace: bool,
    /// Stream the trace to this writer instead of holding it in memory,
    /// keeping only a tail of the given size resident — the flight
    /// recorder for runs too large for a full in-memory trace (see
    /// [`rb_simnet::WorldBuilder::trace_stream`]). Implies tracing on.
    pub trace_stream: Option<(Box<dyn std::io::Write + Send>, usize)>,
    /// Self-profile the kernel (per-behavior / per-message-kind dispatch
    /// wall time — see [`rb_simnet::WorldBuilder::profile`]).
    pub profile: bool,
    /// Sample kernel/cluster gauges into the metrics registry at this
    /// interval (`None` disables metrics entirely — zero cost).
    pub metrics_interval: Option<rb_simcore::Duration>,
    /// Event shards for the kernel (1 = serial; any count replays
    /// bit-identically — see [`rb_simnet::WorldBuilder::shards`]).
    pub shards: usize,
    /// Worker threads dispatching the shards in parallel (1 = the
    /// coordinator dispatches every lane inline; byte-identical either
    /// way — see [`rb_simnet::WorldBuilder::threads`]).
    pub threads: usize,
    /// Record happens-before metadata (`shard.ev` / `shard.window`) into
    /// the trace for the `rbrace hb` checker. Only effective on a
    /// sharded, traced world — see [`rb_simnet::WorldBuilder::hb_trace`].
    pub hb_trace: bool,
    /// Machines (defaults to `n` public Linux boxes when using
    /// [`build_standard_cluster`]).
    pub machines: Vec<MachineAttrs>,
    pub policy: Box<dyn Policy>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            seed: 1,
            cost: CostModel::default(),
            trace: true,
            trace_stream: None,
            profile: false,
            metrics_interval: None,
            shards: 1,
            threads: 1,
            hb_trace: false,
            machines: Vec::new(),
            policy: Box::new(crate::policy::DefaultPolicy::default()),
        }
    }
}

/// A broker-managed cluster ready for job submissions.
pub struct Cluster {
    pub world: World,
    pub broker: ProcId,
    pub machines: Vec<MachineId>,
    pub modules: Arc<ModuleRegistry>,
}

/// Build a cluster of `n` standard public Linux machines managed by a
/// broker with the default policy.
pub fn build_standard_cluster(n: usize, seed: u64) -> Cluster {
    let mut opts = ClusterOptions {
        seed,
        ..Default::default()
    };
    opts.machines = (0..n)
        .map(|i| MachineAttrs::public_linux(format!("n{i:02}")))
        .collect();
    build_cluster(opts)
}

/// Build a cluster from explicit options. The broker runs on the first
/// machine and spawns a daemon everywhere.
pub fn build_cluster(opts: ClusterOptions) -> Cluster {
    assert!(!opts.machines.is_empty(), "need at least one machine");
    let mut b = WorldBuilder::new()
        .seed(opts.seed)
        .cost(opts.cost)
        .trace(opts.trace)
        .profile(opts.profile)
        .shards(opts.shards)
        .threads(opts.threads)
        .hb_trace(opts.hb_trace)
        .default_remote_binding(RshBinding::Broker)
        .factory(
            FactoryChain::new()
                .with(BasePrograms)
                .with(rb_parsys::ParsysPrograms)
                .with(BrokerPrograms),
        )
        .rsh_prime(RshPrimeInstaller);
    if let Some((out, tail_cap)) = opts.trace_stream {
        b = b.trace_stream(out, tail_cap);
    }
    if let Some(interval) = opts.metrics_interval {
        b = b.metrics(interval);
    }
    let machines: Vec<MachineId> = opts
        .machines
        .iter()
        .cloned()
        .map(|m| b.machine(m))
        .collect();
    let mut world = b.build();
    let broker = world.spawn_user(
        machines[0],
        Box::new(Broker::new(BrokerConfig {
            policy: opts.policy,
            spawn_daemons: true,
            queue_batch_jobs: true,
        })),
        ProcEnv::system("rb"),
    );
    Cluster {
        world,
        broker,
        machines,
        modules: Arc::new(ModuleRegistry::standard()),
    }
}

/// Submit a job from `machine` (the user's workstation): starts the `appl`
/// process, which registers with the broker and launches the job. Returns
/// the `appl`'s process id. Free function so scenario scripts can submit
/// from scheduled harness closures.
pub fn submit_job(
    world: &mut World,
    machine: MachineId,
    broker: ProcId,
    modules: &Arc<ModuleRegistry>,
    req: JobRequest,
) -> ProcId {
    let user = req.user.clone();
    let appl = Appl::new(broker, req, modules.clone());
    world.spawn_user(
        machine,
        Box::new(appl),
        ProcEnv {
            job: None,
            appl: None,
            rsh: RshBinding::Standard,
            user: user.into(),
            system: true,
        },
    )
}

impl Cluster {
    /// Let the broker boot and its daemons report once.
    pub fn settle(&mut self) {
        let t = self.world.now() + rb_simcore::Duration::from_secs(1);
        self.world.run_until(t);
    }

    /// See [`submit_job`].
    pub fn submit(&mut self, machine: MachineId, req: JobRequest) -> ProcId {
        submit_job(
            &mut self.world,
            machine,
            self.broker,
            &self.modules.clone(),
            req,
        )
    }

    /// Run until the given `appl` exits (or `limit`); returns its status.
    pub fn await_appl(&mut self, appl: ProcId, limit: SimTime) -> Option<ExitStatus> {
        self.world.run_until_pred(limit, |w| !w.alive(appl));
        self.world.exit_status(appl)
    }
}
