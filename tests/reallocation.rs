//! Reallocation mechanics across job types: the signal/grace/kill path for
//! default jobs, the module `shrink` path for PVM/LAM jobs, and the grace
//! period's SIGKILL backstop for processes that ignore SIGTERM.

use resourcebroker::broker::{build_cluster, Cluster, ClusterOptions, JobRequest, JobRun};
use resourcebroker::parsys::{CalypsoConfig, CalypsoMaster, PvmMaster, PvmMasterConfig, TaskBag};
use resourcebroker::proto::{CommandSpec, ExitStatus, MachineAttrs, Payload, ProcId, Signal};
use resourcebroker::simcore::{Duration, SimTime};
use resourcebroker::simnet::{Behavior, Ctx};

const FAR: SimTime = SimTime(3_600_000_000);

/// Testbed where the user's workstation is out of the pool.
fn pooled(publics: usize, seed: u64) -> Cluster {
    let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
    machines.extend((1..=publics).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
    let opts = ClusterOptions {
        seed,
        machines,
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    // Post-run trace invariants come from the rb-analyze linter; each test
    // runs them via `run_trace_checks` after its scenario completes.
    rb_analyze::install_linter(&mut c.world);
    c.world.set_owner_present(c.machines[0], true);
    c.settle();
    c
}

fn seq_job(host: &str, cmd: CommandSpec) -> JobRequest {
    JobRequest {
        rsl: "(adaptive=0)".into(),
        user: "seq".into(),
        run: JobRun::Remote {
            host: host.into(),
            cmd,
        },
    }
}

#[test]
fn reclaim_from_pvm_job_goes_through_module_shrink() {
    // A PVM job (module path) holds both public machines; a sequential job
    // arrives. The broker reclaims one; for module jobs the appl runs
    // `pvm_shrink <host>`, which makes the master delete the host and the
    // slave exit gracefully — no signal needed.
    let mut c = pooled(2, 51);
    c.submit(
        c.machines[0],
        JobRequest {
            rsl: r#"+(count>=2)(adaptive=1)(module="pvm")"#.into(),
            user: "pvm-user".into(),
            run: JobRun::Root(Box::new(PvmMaster::new(PvmMasterConfig {
                initial_hosts: vec!["anylinux".into()],
                ..Default::default()
            }))),
        },
    );
    let ok = c
        .world
        .run_until_pred(SimTime(60_000_000), |w| w.procs_named("pvmd").len() == 1);
    assert!(ok, "PVM VM never reached 1 slave");
    // Grow by one more (a pvm_addhosts() call from the application); the
    // previous symbolic add has resolved, so the name is fresh again.
    let master = c.world.procs_named("pvm-master")[0];
    c.world.send_from_harness(
        master,
        Payload::Ctl(resourcebroker::proto::CtlMsg::GrowHint { count: 1 }),
    );
    let ok = c
        .world
        .run_until_pred(SimTime(120_000_000), |w| w.procs_named("pvmd").len() == 2);
    assert!(ok, "PVM VM never reached 2 slaves");

    let seq = c.submit(c.machines[0], seq_job("anylinux", CommandSpec::Null));
    let status = c.await_appl(seq, FAR).unwrap();
    assert_eq!(status, ExitStatus::Success);
    c.world
        .trace()
        .check_order(&[
            "broker.reclaim",
            "appl.release",
            "module.pvm.shrink",
            "pvm.delete",
            "appl.shrink.done",
            "broker.freed",
            "broker.grant",
        ])
        .unwrap();
    // One slave remains; the VM kept computing.
    assert_eq!(c.world.procs_named("pvmd").len(), 1);
    assert_eq!(c.world.procs_named("pvm-master").len(), 1);
    c.world.run_trace_checks().unwrap();
}

/// A worker that ignores SIGTERM entirely (a buggy or hostile program).
struct StubbornWorker;

impl Behavior for StubbornWorker {
    fn name(&self) -> &'static str {
        "stubborn"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.detach();
        ctx.cpu_burst(Duration::from_secs(100_000));
    }
    fn on_signal(&mut self, _ctx: &mut Ctx<'_>, _sig: Signal) {
        // Ignore everything catchable.
    }
}

#[test]
fn grace_period_then_sigkill_for_stubborn_processes() {
    // Run a stubborn program through the broker on the only public
    // machine, then force a reallocation: the sub-appl's SIGTERM is
    // ignored, the grace period expires, SIGKILL wins.
    struct StubbornFactory;
    impl resourcebroker::simnet::ProgramFactory for StubbornFactory {
        fn build(&self, cmd: &CommandSpec) -> Option<Box<dyn Behavior>> {
            matches!(cmd, CommandSpec::Custom { name, .. } if name == "stubborn")
                .then(|| Box::new(StubbornWorker) as Box<dyn Behavior>)
        }
    }

    // Build a testbed whose factory also knows the stubborn program.
    use resourcebroker::simnet::{BasePrograms, FactoryChain, ProcEnv, RshBinding, WorldBuilder};
    let mut b = WorldBuilder::new()
        .seed(5)
        .default_remote_binding(RshBinding::Broker)
        .factory(
            FactoryChain::new()
                .with(BasePrograms)
                .with(resourcebroker::parsys::ParsysPrograms)
                .with(resourcebroker::broker::BrokerPrograms)
                .with(StubbornFactory),
        )
        .rsh_prime(resourcebroker::broker::RshPrimeInstaller);
    let m0 = b.machine(MachineAttrs::private_linux("n00", "user"));
    let _m1 = b.machine(MachineAttrs::public_linux("n01"));
    let mut world = b.build();
    rb_analyze::install_linter(&mut world);
    let broker = world.spawn_user(
        m0,
        Box::new(resourcebroker::broker::Broker::new(
            resourcebroker::broker::BrokerConfig {
                // Demand-driven reclaim: the single-machine victim is fair
                // game (this test exercises the signal path, not policy).
                policy: Box::new(resourcebroker::broker::DefaultPolicy::with_rule(
                    resourcebroker::broker::ReclaimRule::Demand,
                )),
                spawn_daemons: true,
                queue_batch_jobs: true,
            },
        )),
        ProcEnv::system("rb"),
    );
    world.set_owner_present(m0, true);
    world.run_until(SimTime(1_000_000));

    let modules = std::sync::Arc::new(resourcebroker::broker::ModuleRegistry::standard());
    // The stubborn adaptive job occupies n01.
    let stubborn_appl = resourcebroker::broker::submit_job(
        &mut world,
        m0,
        broker,
        &modules,
        JobRequest {
            rsl: "+(count>=1)(adaptive=1)".into(),
            user: "a".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd: CommandSpec::Custom {
                    name: "stubborn".into(),
                    arg: 0,
                },
            },
        },
    );
    world.run_until(SimTime(10_000_000));
    assert_eq!(world.procs_named("stubborn").len(), 1);

    // A competing job triggers a reclaim of the stubborn job's machine.
    let seq = resourcebroker::broker::submit_job(
        &mut world,
        m0,
        broker,
        &modules,
        JobRequest {
            rsl: "(adaptive=0)".into(),
            user: "b".into(),
            run: JobRun::Remote {
                host: "anylinux".into(),
                cmd: CommandSpec::Null,
            },
        },
    );
    let t0 = world.now();
    world.run_until_pred(FAR, |w| !w.alive(seq));
    assert_eq!(world.exit_status(seq), Some(ExitStatus::Success));
    let elapsed = (world.now() - t0).as_secs_f64();
    // The stubborn process burned the full 2 s grace period before SIGKILL.
    assert!(elapsed >= 2.0, "elapsed {elapsed}");
    world
        .trace()
        .check_order(&[
            "subappl.release",
            "subappl.grace-expired",
            "subappl.released",
        ])
        .unwrap();
    assert!(world.procs_named("stubborn").is_empty());
    let _ = stubborn_appl;
    world.run_trace_checks().unwrap();
}

#[test]
fn victim_job_recovers_lost_work_after_eviction() {
    // Calypso with a finite bag loses a machine mid-computation; eager
    // scheduling re-executes the interrupted task and the job still
    // completes with all results.
    let mut c = pooled(2, 53);
    let cal_appl = c.submit(
        c.machines[0],
        JobRequest {
            rsl: "+(count>=2)(adaptive=1)".into(),
            user: "cal".into(),
            run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                tasks: TaskBag::Finite(vec![3_000; 8]),
                desired_workers: 2,
                hostfile: vec!["anylinux".into()],
                task_timeout: None,
            }))),
        },
    );
    let ok = c.world.run_until_pred(SimTime(30_000_000), |w| {
        w.procs_named("calypso-worker").len() == 2
    });
    assert!(ok);

    // Take one machine away for a sequential job.
    let seq = c.submit(c.machines[0], seq_job("anylinux", CommandSpec::Null));
    assert_eq!(c.await_appl(seq, FAR), Some(ExitStatus::Success));
    assert!(c.world.trace().count("calypso.task.requeue") >= 1);

    // Calypso still finishes every task.
    c.world.run_until_pred(FAR, |w| !w.alive(cal_appl));
    assert_eq!(c.world.exit_status(cal_appl), Some(ExitStatus::Success));
    let complete = c.world.trace().last("calypso.complete").unwrap();
    assert!(complete.detail.contains("results=8"), "{}", complete.detail);
    c.world.run_trace_checks().unwrap();
}

#[test]
fn released_machine_returns_to_victim_when_requester_finishes() {
    // After the sequential job ends, the broker offers the machine back to
    // the adaptive job, which regrows to its desired size.
    let mut c = pooled(2, 54);
    c.submit(
        c.machines[0],
        JobRequest {
            rsl: "+(count>=2)(adaptive=1)".into(),
            user: "cal".into(),
            run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                tasks: TaskBag::Endless { cpu_millis: 700 },
                desired_workers: 2,
                hostfile: vec!["anylinux".into()],
                task_timeout: None,
            }))),
        },
    );
    let ok = c.world.run_until_pred(SimTime(30_000_000), |w| {
        w.procs_named("calypso-worker").len() == 2
    });
    assert!(ok);

    let seq = c.submit(
        c.machines[0],
        seq_job("anylinux", CommandSpec::Loop { cpu_millis: 5_000 }),
    );
    c.world
        .run_until_pred(FAR, |w| w.procs_named("calypso-worker").len() == 1);
    assert_eq!(c.await_appl(seq, FAR), Some(ExitStatus::Success));
    // The machine flows back: two workers again.
    let regrown = c
        .world
        .run_until_pred(FAR, |w| w.procs_named("calypso-worker").len() == 2);
    assert!(regrown, "calypso never regrew");
    assert!(c.world.trace().count("broker.offer") >= 1);
    c.world.run_trace_checks().unwrap();
}

#[test]
fn concurrent_reallocations_complete_independently() {
    // Two sequential jobs arrive near-simultaneously; both require
    // reclaims from the same Calypso job; both must be served.
    let mut c = pooled(3, 55);
    c.submit(
        c.machines[0],
        JobRequest {
            rsl: "+(count>=3)(adaptive=1)".into(),
            user: "cal".into(),
            run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                tasks: TaskBag::Endless { cpu_millis: 700 },
                desired_workers: 3,
                hostfile: vec!["anylinux".into()],
                task_timeout: None,
            }))),
        },
    );
    let ok = c.world.run_until_pred(SimTime(60_000_000), |w| {
        w.procs_named("calypso-worker").len() == 3
    });
    assert!(ok);

    let mut appls: Vec<ProcId> = Vec::new();
    for _ in 0..2 {
        appls.push(c.submit(c.machines[0], seq_job("anylinux", CommandSpec::Null)));
        c.world.run_until(c.world.now() + Duration::from_millis(50));
    }
    for appl in appls {
        assert_eq!(c.await_appl(appl, FAR), Some(ExitStatus::Success));
    }
    assert!(c.world.trace().count("broker.reclaim") >= 2);
    c.world.run_trace_checks().unwrap();
}

fn endless_calypso(workers: u32) -> JobRequest {
    JobRequest {
        rsl: format!("+(count>={workers})(adaptive=1)"),
        user: "cal".into(),
        run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
            tasks: TaskBag::Endless { cpu_millis: 700 },
            desired_workers: workers,
            hostfile: vec!["anylinux".into()],
            task_timeout: None,
        }))),
    }
}

#[test]
fn owner_returning_during_a_grow_reclaim_keeps_the_machine() {
    // The broker is vacating a private machine for another adaptive job's
    // grow when the machine's owner sits down. The owner outranks the
    // grow: the machine goes to the owner once vacated, and the grow is
    // decided again instead of landing on the owner's desk.
    let opts = ClusterOptions {
        seed: 5,
        machines: vec![
            MachineAttrs::public_linux("n00"),
            MachineAttrs::public_linux("n01"),
            MachineAttrs::private_linux("p02", "pat"),
        ],
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    rb_analyze::install_linter(&mut c.world);
    c.settle();
    let p02 = c.machines[2];
    c.submit(c.machines[0], endless_calypso(2));
    let ok = c.world.run_until_pred(SimTime(60_000_000), |w| {
        w.procs_named("calypso-worker").len() == 2
    });
    assert!(ok, "first job never saturated");
    c.world
        .run_until(c.world.now() + Duration::from_millis(100));
    c.submit(c.machines[0], endless_calypso(1));
    let ok = c
        .world
        .run_until_pred(FAR, |w| w.trace().count("broker.reclaim") == 1);
    assert!(ok, "second job's grow never reclaimed");
    let reclaim = c.world.trace().last("broker.reclaim").unwrap();
    assert_eq!(reclaim.detail, "p02 from j1");

    c.world.set_owner_present(p02, true);
    c.world.run_until(c.world.now() + Duration::from_secs(60));
    assert_eq!(c.world.app_procs_on(p02), 0, "a worker runs at pat's desk");
    assert_eq!(c.world.trace().count("broker.evict.owner"), 1);
    // The grow that lost its machine is decided again; with nothing else
    // to take, it is denied.
    let deny = c.world.trace().last("broker.deny").unwrap();
    assert_eq!(deny.detail, "j2 (g1): no machine available");
    c.world.run_trace_checks().unwrap();
}
