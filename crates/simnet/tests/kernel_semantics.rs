//! Second batch of substrate semantics: timers, environment inheritance,
//! service registry, detach edge cases, message-to-dead handling,
//! utilization accounting under churn, and harness ordering.

use rb_proto::{CommandSpec, ExitStatus, Payload, ProcId, Signal, TimerToken};
use rb_simcore::{Duration, SimTime};
use rb_simnet::{
    BasePrograms, Behavior, Ctx, EventInfo, ProcEnv, RshBinding, World, WorldBuilder, WorldOracle,
};
use std::sync::Arc;
use std::sync::Mutex;

fn lab(n: usize) -> (World, Vec<rb_proto::MachineId>) {
    let mut b = WorldBuilder::new().seed(3).factory(BasePrograms);
    let ms = b.standard_lab(n);
    (b.build(), ms)
}

// ---------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------

struct TimerTester {
    fired: Arc<Mutex<Vec<u64>>>,
    cancel_second: bool,
    tokens: Vec<TimerToken>,
}

impl Behavior for TimerTester {
    fn name(&self) -> &'static str {
        "timer-tester"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tokens.push(ctx.set_timer(Duration::from_millis(100)));
        self.tokens.push(ctx.set_timer(Duration::from_millis(200)));
        self.tokens.push(ctx.set_timer(Duration::from_millis(300)));
        if self.cancel_second {
            ctx.cancel_timer(self.tokens[1]);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: TimerToken) {
        let idx = self.tokens.iter().position(|&t| t == token).unwrap() as u64;
        self.fired.lock().unwrap().push(idx);
    }
}

#[test]
fn timers_fire_in_order_and_cancellation_sticks() {
    let (mut world, ms) = lab(1);
    let fired = Arc::new(Mutex::new(Vec::new()));
    world.spawn_user(
        ms[0],
        Box::new(TimerTester {
            fired: fired.clone(),
            cancel_second: true,
            tokens: Vec::new(),
        }),
        ProcEnv::user_standard("u"),
    );
    world.run_until(SimTime(1_000_000));
    assert_eq!(*fired.lock().unwrap(), vec![0, 2]);
}

#[test]
fn timers_of_dead_processes_do_not_fire() {
    let (mut world, ms) = lab(1);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let p = world.spawn_user(
        ms[0],
        Box::new(TimerTester {
            fired: fired.clone(),
            cancel_second: false,
            tokens: Vec::new(),
        }),
        ProcEnv::user_standard("u"),
    );
    world.run_until(SimTime(150_000));
    world.kill_from_harness(p, Signal::Kill);
    world.run_until(SimTime(1_000_000));
    assert_eq!(
        *fired.lock().unwrap(),
        vec![0],
        "only the pre-death timer fired"
    );
}

// ---------------------------------------------------------------------
// Environment inheritance and spawn trees
// ---------------------------------------------------------------------

struct Parent {
    child_env: Arc<Mutex<Option<ProcEnv>>>,
}

struct Child {
    env_out: Arc<Mutex<Option<ProcEnv>>>,
}

impl Behavior for Child {
    fn name(&self) -> &'static str {
        "env-child"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        *self.env_out.lock().unwrap() = Some(ctx.env().clone());
        ctx.exit(ExitStatus::Success);
    }
}

impl Behavior for Parent {
    fn name(&self) -> &'static str {
        "env-parent"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.spawn_local(Box::new(Child {
            env_out: self.child_env.clone(),
        }));
    }
    fn on_child_exit(&mut self, ctx: &mut Ctx<'_>, _child: ProcId, status: ExitStatus) {
        assert_eq!(status, ExitStatus::Success);
        ctx.exit(ExitStatus::Success);
    }
}

#[test]
fn children_inherit_the_parent_environment() {
    let (mut world, ms) = lab(1);
    let child_env = Arc::new(Mutex::new(None));
    let mut env = ProcEnv::user_broker("carol");
    env.job = Some(rb_proto::JobId(7));
    env.appl = Some(ProcId(42));
    let parent = world.spawn_user(
        ms[0],
        Box::new(Parent {
            child_env: child_env.clone(),
        }),
        env,
    );
    world.run_until(SimTime(1_000_000));
    assert!(!world.alive(parent), "parent exited after child");
    let got = child_env.lock().unwrap().clone().expect("child ran");
    assert_eq!(&*got.user, "carol");
    assert_eq!(got.job, Some(rb_proto::JobId(7)));
    assert_eq!(got.appl, Some(ProcId(42)));
    assert_eq!(got.rsh, RshBinding::Broker);
}

// ---------------------------------------------------------------------
// Service registry
// ---------------------------------------------------------------------

struct ServiceProvider;

impl Behavior for ServiceProvider {
    fn name(&self) -> &'static str {
        "svc"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.register_service("thing");
    }
}

#[test]
fn services_are_per_machine_and_per_user_and_die_with_the_provider() {
    let (mut world, ms) = lab(2);
    let p = world.spawn_user(
        ms[0],
        Box::new(ServiceProvider),
        ProcEnv::user_standard("alice"),
    );
    world.run_until(SimTime(100_000));

    assert_eq!(world.service_on(ms[0], "alice", "thing"), Some(p));
    // Different user, same machine: invisible.
    assert_eq!(world.service_on(ms[0], "bob", "thing"), None);
    // Same user, different machine: invisible.
    assert_eq!(world.service_on(ms[1], "alice", "thing"), None);

    world.kill_from_harness(p, Signal::Kill);
    world.run_until(SimTime(200_000));
    assert_eq!(world.service_on(ms[0], "alice", "thing"), None);
}

// ---------------------------------------------------------------------
// Detach semantics
// ---------------------------------------------------------------------

struct DoubleDetacher;

impl Behavior for DoubleDetacher {
    fn name(&self) -> &'static str {
        "detacher"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.detach();
        ctx.detach(); // idempotent
        ctx.set_timer(Duration::from_millis(50));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        ctx.exit(ExitStatus::Success);
    }
}

struct DetachParent {
    detaches: Arc<Mutex<u32>>,
}

impl Behavior for DetachParent {
    fn name(&self) -> &'static str {
        "detach-parent"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.spawn_local(Box::new(DoubleDetacher));
    }
    fn on_child_detach(&mut self, _ctx: &mut Ctx<'_>, _child: ProcId) {
        *self.detaches.lock().unwrap() += 1;
    }
}

#[test]
fn detach_is_idempotent_and_notifies_parent_once() {
    let (mut world, ms) = lab(1);
    let detaches = Arc::new(Mutex::new(0));
    world.spawn_user(
        ms[0],
        Box::new(DetachParent {
            detaches: detaches.clone(),
        }),
        ProcEnv::user_standard("u"),
    );
    world.run_until(SimTime(1_000_000));
    assert_eq!(*detaches.lock().unwrap(), 1);
}

// ---------------------------------------------------------------------
// Messages to the dead
// ---------------------------------------------------------------------

#[test]
fn messages_to_dead_processes_are_dropped_not_fatal() {
    let (mut world, ms) = lab(1);
    let p = world.spawn_user(
        ms[0],
        Box::new(rb_simnet::NullProg),
        ProcEnv::user_standard("u"),
    );
    world.run_until(SimTime(100_000));
    assert!(!world.alive(p));
    world.send_from_harness(p, Payload::Ctl(rb_proto::CtlMsg::Stop));
    world.run_until(SimTime(200_000));
    assert!(world.trace().count("msg.drop") >= 1);
}

// ---------------------------------------------------------------------
// Utilization accounting under churn
// ---------------------------------------------------------------------

#[test]
fn allocated_time_is_exact_under_overlapping_processes() {
    let (mut world, ms) = lab(1);
    // p1: [0.0, 2.0] CPU; p2: [1.0, 2.0+] — overlapping; allocation time
    // is the union of their lifetimes, not the sum.
    world.spawn_user(
        ms[0],
        Box::new(rb_simnet::LoopProg::new(2_000)),
        ProcEnv::user_standard("u"),
    );
    world.schedule(SimTime(1_000_000), |w| {
        let m = w.machine_by_host("n00").unwrap();
        w.spawn_user(
            m,
            Box::new(rb_simnet::LoopProg::new(1_000)),
            ProcEnv::user_standard("u"),
        );
    });
    world.run_until(SimTime(10_000_000));
    // p1 runs alone [0,1], shares [1,~3]: p1 ends ≈3.0s. p2 needs 1 CPU-s:
    // shares [1,3] (gets 1s CPU by 3.0) → both end ≈3s. Union ≈ 3s.
    let alloc = world.allocated_time(ms[0]).as_secs_f64();
    assert!((2.9..=3.2).contains(&alloc), "allocated {alloc}");
}

#[test]
fn system_processes_do_not_count_toward_allocation() {
    let (mut world, ms) = lab(1);
    world.spawn_user(ms[0], Box::new(ServiceProvider), ProcEnv::system("rb"));
    world.run_until(SimTime(5_000_000));
    assert_eq!(world.allocated_time(ms[0]), Duration::ZERO);
    assert_eq!(world.app_procs_on(ms[0]), 0);
}

// ---------------------------------------------------------------------
// rshd child environments
// ---------------------------------------------------------------------

#[test]
fn rshd_children_get_login_env_with_cluster_default_binding() {
    struct Launcher;
    impl Behavior for Launcher {
        fn name(&self) -> &'static str {
            "launcher"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.rsh("n01", CommandSpec::Loop { cpu_millis: 60_000 });
        }
    }
    let mut b = WorldBuilder::new()
        .seed(4)
        .factory(BasePrograms)
        .default_remote_binding(RshBinding::Broker);
    let ms = b.standard_lab(2);
    let mut world = b.build();
    let mut env = ProcEnv::user_standard("dana");
    env.job = Some(rb_proto::JobId(9)); // must NOT propagate over rsh
    world.spawn_user(ms[0], Box::new(Launcher), env);
    world.run_until(SimTime(2_000_000));
    let remote = world.procs_named("loop")[0];
    assert_eq!(world.proc_machine(remote), Some(ms[1]));
    // rsh does not propagate environment variables: fresh login env, but
    // the machine's PATH resolves rsh to the shim (cluster default).
    // (The world does not expose proc env directly; assert via behavior:
    // the process counts as an app proc of user "dana" on n01.)
    assert_eq!(world.app_procs_on(ms[1]), 1);
}

// ---------------------------------------------------------------------
// Stable storage
// ---------------------------------------------------------------------

struct DiskWriter;

impl Behavior for DiskWriter {
    fn name(&self) -> &'static str {
        "disk-writer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.disk_write("state", vec![1, 2, 3]);
        assert_eq!(ctx.disk_read("state"), Some(vec![1, 2, 3]));
        assert_eq!(ctx.disk_read("missing"), None);
        ctx.disk_write("gone", vec![9]);
        ctx.disk_remove("gone");
        assert_eq!(ctx.disk_read("gone"), None);
        ctx.exit(ExitStatus::Success);
    }
}

#[test]
fn disk_is_per_user_and_survives_everything() {
    let (mut world, ms) = lab(2);
    world.spawn_user(ms[0], Box::new(DiskWriter), ProcEnv::user_standard("alice"));
    world.run_until(SimTime(100_000));
    // Written by alice on m0; invisible to bob and to other machines.
    assert_eq!(
        world.disk_on(ms[0], "alice", "state"),
        Some(&[1u8, 2, 3][..])
    );
    assert_eq!(world.disk_on(ms[0], "bob", "state"), None);
    assert_eq!(world.disk_on(ms[1], "alice", "state"), None);
    // Survives the writer's death (it already exited) and a machine crash.
    world.set_machine_up(ms[0], false);
    world.run_until(SimTime(200_000));
    assert_eq!(
        world.disk_on(ms[0], "alice", "state"),
        Some(&[1u8, 2, 3][..])
    );
}

// ---------------------------------------------------------------------
// Harness ordering
// ---------------------------------------------------------------------

/// Traces its start, so a test can see where it fell in dispatch order.
struct Starter;

impl Behavior for Starter {
    fn name(&self) -> &'static str {
        "starter"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace("test.start", format_args!("{}", ctx.me()));
    }
}

/// Always picks the first entry of a batch.
struct First;

impl WorldOracle for First {
    fn choose(&mut self, _at: SimTime, _state: u64, _enabled: &[EventInfo]) -> usize {
        0
    }
}

#[test]
fn harness_pushes_at_one_instant_dispatch_in_push_order() {
    // The start goes to the lane's queue and the closure to the harness
    // queue, both at t=0 under harness keys: the start was pushed first,
    // so it dispatches first. A window must end after it, not at the
    // closure's instant, and an oracle's batch must list it first, so
    // index 0 is the plain order.
    for oracle in [false, true] {
        let (mut world, ms) = lab(1);
        if oracle {
            world.set_schedule_oracle(Box::new(First));
        }
        let m = ms[0];
        world.spawn_user(m, Box::new(Starter), ProcEnv::user_standard("u"));
        world.schedule(SimTime::ZERO, move |w| w.set_owner_present(m, true));
        world.run_until(SimTime(1_000));
        let order: Vec<&str> = world
            .trace()
            .events()
            .iter()
            .map(|e| e.topic.as_ref())
            .filter(|&t| t == "test.start" || t == "machine.owner")
            .collect();
        assert_eq!(order, ["test.start", "machine.owner"], "oracle={oracle}");
    }
}
