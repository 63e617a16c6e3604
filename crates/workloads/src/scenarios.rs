//! Reusable experiment scenarios mirroring the paper's testbeds.

use rb_broker::{build_cluster, Cluster, ClusterOptions, JobRequest, JobRun, Policy};
use rb_parsys::{CalypsoConfig, CalypsoMaster, TaskBag};
use rb_proto::{MachineAttrs, ProcId};
use rb_simcore::SimTime;
use rb_simnet::{BasePrograms, FactoryChain, World, WorldBuilder};

/// The `loop` program's CPU cost: "a tight loop running in 5.3 seconds".
pub const LOOP_MILLIS: u64 = 5_300;

/// A broker-less world (the plain-`rsh` baselines): the user's machine
/// `n00` plus `public` lab machines `n01..`, standard rsh everywhere.
pub fn plain_world(publics: usize, seed: u64) -> World {
    let mut b = WorldBuilder::new().seed(seed).factory(
        FactoryChain::new()
            .with(BasePrograms)
            .with(rb_parsys::ParsysPrograms),
    );
    b.standard_lab(publics + 1);
    b.build()
}

/// The paper's managed testbed: the user's workstation `n00` (private,
/// owner at the console, hence outside the shared pool) plus `publics`
/// public lab machines, all under a broker with the given policy.
pub fn broker_testbed(publics: usize, seed: u64, policy: Box<dyn Policy>, trace: bool) -> Cluster {
    broker_testbed_sharded(publics, seed, policy, trace, 1)
}

/// [`broker_testbed`] with an explicit event-shard count (1 = serial
/// kernel; every count replays bit-identically — the sharded-equivalence
/// tests sweep this).
pub fn broker_testbed_sharded(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    trace: bool,
    shards: usize,
) -> Cluster {
    broker_testbed_threaded(publics, seed, policy, trace, shards, 1)
}

/// [`broker_testbed_sharded`] with worker threads dispatching the lanes
/// in true parallel (threads = 1 keeps the coordinator inline; every
/// combination replays bit-identically — the threaded-equivalence tests
/// sweep this).
pub fn broker_testbed_threaded(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    trace: bool,
    shards: usize,
    threads: usize,
) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        policy,
        trace,
        shards,
        threads,
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    // The user sits at n00: it never joins the shared pool.
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

/// [`broker_testbed_sharded`] with happens-before trace records on
/// (`shard.ev` / `shard.window`): what the `rbrace hb` race checker and
/// the CI race-check job consume. Tracing is forced on — the HB records
/// ride the trace.
pub fn broker_testbed_hb(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    shards: usize,
) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        policy,
        trace: true,
        shards,
        hb_trace: true,
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

/// [`broker_testbed`] in observability trim: tracing on (spans ride the
/// trace) and kernel/cluster gauges sampled every `metrics_interval`.
/// This is what `rbtrace` and the obs-smoke CI job run against.
pub fn broker_testbed_obs(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    metrics_interval: rb_simcore::Duration,
) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        policy,
        trace: true,
        metrics_interval: Some(metrics_interval),
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

/// [`broker_testbed_sharded`] with the trace *streamed* to `out` (only a
/// `tail_cap`-event tail stays resident) — the flight-recorder trim for
/// runs whose full trace would not fit in memory. The stream carries
/// byte-identical [`rb_simcore::TraceRecorder::render`] output, which
/// the scheduler-equivalence suite pins against in-memory recording.
pub fn broker_testbed_streamed(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    shards: usize,
    out: Box<dyn std::io::Write + Send>,
    tail_cap: usize,
) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        policy,
        trace: true,
        trace_stream: Some((out, tail_cap)),
        shards,
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

/// [`broker_testbed_obs`] with the kernel self-profiler on: spans traced,
/// gauges sampled, and per-behavior / per-message-kind dispatch wall time
/// accumulated (`prof.*` metrics + `World::profile_json`). What the
/// prof-smoke CI job and the bench profile provenance run against.
pub fn broker_testbed_profiled(
    publics: usize,
    seed: u64,
    policy: Box<dyn Policy>,
    metrics_interval: rb_simcore::Duration,
) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        policy,
        trace: true,
        profile: true,
        metrics_interval: Some(metrics_interval),
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

/// Submit an adaptive Calypso job from `n00` that tries to hold `workers`
/// machines forever (`cpu_millis` per task). Returns the appl's id.
pub fn submit_endless_calypso(c: &mut Cluster, workers: u32, cpu_millis: u64) -> ProcId {
    c.submit(
        c.machines[0],
        JobRequest {
            rsl: format!("+(count>={workers})(adaptive=1)"),
            user: "cal".into(),
            run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                tasks: TaskBag::Endless { cpu_millis },
                desired_workers: workers,
                hostfile: vec!["anylinux".into()],
                task_timeout: None,
            }))),
        },
    )
}

/// Run until the Calypso job holds exactly `workers` workers (panics on
/// timeout — scenario setup must succeed).
pub fn await_calypso_workers(c: &mut Cluster, workers: usize, limit: SimTime) {
    let ok = c
        .world
        .run_until_pred(limit, |w| w.procs_named("calypso-worker").len() == workers);
    assert!(
        ok,
        "calypso failed to reach {workers} workers by {limit} (has {})",
        c.world.procs_named("calypso-worker").len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_broker::DefaultPolicy;

    #[test]
    fn plain_world_has_named_machines() {
        let w = plain_world(2, 1);
        assert!(w.machine_by_host("n00").is_some());
        assert!(w.machine_by_host("n02").is_some());
        assert!(w.machine_by_host("n03").is_none());
    }

    #[test]
    fn broker_testbed_excludes_user_workstation() {
        let mut c = broker_testbed(2, 1, Box::new(DefaultPolicy::default()), true);
        submit_endless_calypso(&mut c, 2, 500);
        await_calypso_workers(&mut c, 2, SimTime(60_000_000));
        // Workers never land on the user's n00.
        for w in c.world.procs_named("calypso-worker") {
            let m = c.world.proc_machine(w).unwrap();
            assert_ne!(c.world.hostname(m), "n00");
        }
    }
}
