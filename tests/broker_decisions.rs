//! Pinned broker decisions. Seeded scenarios that between them reach
//! every path through which the broker decides: owner eviction and
//! departure, reclaims in flight while another grow is decided, offers,
//! an offer left to expire, the batch queue, daemon loss, an allocation
//! right after a console hold lapsed, and a cluster wide enough that
//! machine-id order and hash order differ. Each scenario asserts its
//! trace topic counts and pins two digests: the rendered trace with its
//! queue counters, and every input the policy was shown together with
//! the verdict it returned. A change to how the broker assembles its
//! decisions must leave both unchanged.

use resourcebroker::broker::{
    build_cluster, AllocContext, Cluster, ClusterOptions, Decision, DefaultPolicy, JobRequest,
    JobRun, JobView, MachineView, Policy,
};
use resourcebroker::parsys::{CalypsoConfig, CalypsoMaster, PvmMaster, PvmMasterConfig, TaskBag};
use resourcebroker::proto::{CommandSpec, JobId, MachineAttrs, Signal};
use resourcebroker::simcore::{Duration, FxHasher, SimTime};
use resourcebroker::simnet::CostModel;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

const FAR: SimTime = SimTime(3_600_000_000);

/// The paper's policy, folding each call's inputs and verdict into a
/// shared digest.
struct Recording {
    inner: DefaultPolicy,
    evict: bool,
    digest: Arc<Mutex<FxHasher>>,
}

impl Recording {
    fn fold(&self, call: std::fmt::Arguments<'_>) {
        let text = call.to_string();
        self.digest.lock().unwrap().write(text.as_bytes());
    }
}

impl Policy for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn allocate(
        &mut self,
        req: &AllocContext,
        machines: &[MachineView],
        jobs: &[JobView],
    ) -> Decision {
        let d = self.inner.allocate(req, machines, jobs);
        self.fold(format_args!(
            "allocate {req:?} {machines:?} {jobs:?} -> {d:?}"
        ));
        d
    }

    fn offer(&mut self, machine: &MachineView, jobs: &[JobView]) -> Option<JobId> {
        let o = self.inner.offer(machine, jobs);
        self.fold(format_args!("offer {machine:?} {jobs:?} -> {o:?}"));
        o
    }

    fn evict_on_owner_return(&self) -> bool {
        self.evict
    }
}

/// A traced cluster under the recording policy.
struct Scenario {
    c: Cluster,
    policy: Arc<Mutex<FxHasher>>,
}

impl Scenario {
    fn new(seed: u64, machines: Vec<MachineAttrs>) -> Self {
        Self::with(seed, machines, true, CostModel::default())
    }

    /// A private first machine is the user's workstation: its owner is
    /// present, so it stays out of the pool.
    fn with(seed: u64, machines: Vec<MachineAttrs>, evict: bool, cost: CostModel) -> Self {
        let policy = Arc::new(Mutex::new(FxHasher::default()));
        let home_owned = machines[0].ownership.is_private();
        let opts = ClusterOptions {
            seed,
            cost,
            machines,
            policy: Box::new(Recording {
                inner: DefaultPolicy::default(),
                evict,
                digest: policy.clone(),
            }),
            ..Default::default()
        };
        let mut c = build_cluster(opts);
        if home_owned {
            c.world.set_owner_present(c.machines[0], true);
        }
        c.settle();
        Scenario { c, policy }
    }

    /// Submit an endless Calypso job from the first machine.
    fn calypso(&mut self, workers: u32) {
        self.c.submit(
            self.c.machines[0],
            JobRequest {
                rsl: format!("+(count>={workers})(adaptive=1)"),
                user: "cal".into(),
                run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                    tasks: TaskBag::Endless { cpu_millis: 700 },
                    desired_workers: workers,
                    hostfile: vec!["anylinux".into()],
                    task_timeout: None,
                }))),
            },
        );
    }

    /// Submit a sequential job of `cpu_millis` from the first machine.
    fn sequential(&mut self, cpu_millis: u64) {
        self.c.submit(
            self.c.machines[0],
            JobRequest {
                rsl: "(adaptive=0)".into(),
                user: "seq".into(),
                run: JobRun::Remote {
                    host: "anylinux".into(),
                    cmd: CommandSpec::Loop { cpu_millis },
                },
            },
        );
    }

    fn workers(&mut self, n: usize) {
        let ok = self
            .c
            .world
            .run_until_pred(FAR, |w| w.procs_named("calypso-worker").len() == n);
        assert!(ok, "never reached {n} calypso workers");
    }

    fn run_for(&mut self, secs: u64) {
        let t = self.c.world.now() + Duration::from_secs(secs);
        self.c.world.run_until(t);
    }

    /// Kill the daemon on `host`.
    fn kill_daemon(&mut self, host: &str) {
        let m = self.c.world.machine_by_host(host).unwrap();
        let daemon = self
            .c
            .world
            .procs_named("rb-daemon")
            .into_iter()
            .find(|&d| self.c.world.proc_machine(d) == Some(m))
            .unwrap();
        self.c.world.kill_from_harness(daemon, Signal::Kill);
    }

    #[track_caller]
    fn check(&self, counts: &[(&str, usize)], pinned: (u64, u64)) {
        let trace = self.c.world.trace();
        let got: Vec<(&str, usize)> = counts.iter().map(|&(t, _)| (t, trace.count(t))).collect();
        assert_eq!(got, counts, "topic counts");
        let mut h = FxHasher::default();
        h.write(self.c.world.render_trace_with_stats().as_bytes());
        let digests = (h.finish(), self.policy.lock().unwrap().finish());
        assert_eq!(
            digests, pinned,
            "broker decisions moved: (trace, policy) digests are {digests:#x?}"
        );
    }
}

fn public(n: usize) -> impl Iterator<Item = MachineAttrs> {
    (1..=n).map(|i| MachineAttrs::public_linux(format!("n{i:02}")))
}

/// The user's workstation, then `n` public machines.
fn pooled(n: usize) -> Vec<MachineAttrs> {
    let mut m = vec![MachineAttrs::private_linux("n00", "user")];
    m.extend(public(n));
    m
}

#[test]
fn owner_return_evicts_and_departure_offers_the_machine_back() {
    let mut machines = vec![MachineAttrs::public_linux("n00")];
    machines.extend(public(1));
    machines.push(MachineAttrs::private_linux("p02", "ann"));
    machines.push(MachineAttrs::private_linux("p03", "ben"));
    let mut s = Scenario::new(21, machines);
    s.calypso(3);
    s.workers(3);
    let p02 = s.c.machines[2];
    s.c.world.set_owner_present(p02, true);
    s.run_for(20);
    s.c.world.set_owner_present(p02, false);
    s.run_for(20);
    s.check(
        &[
            ("broker.evict.owner", 1),
            ("broker.owner.left", 1),
            ("broker.offer", 1),
            ("broker.grant", 4),
        ],
        (0x8b889c8479eef160, 0xa335ea5e82048bfe),
    );
}

#[test]
fn third_grow_is_decided_while_two_reclaims_are_in_flight() {
    let mut s = Scenario::new(22, pooled(3));
    s.calypso(3);
    s.workers(3);
    for _ in 0..3 {
        s.calypso(1);
        s.c.world
            .run_until(s.c.world.now() + Duration::from_millis(10));
    }
    s.run_for(30);
    // The third request is denied because the first two reclaims already
    // count against the victim, before either machine is free.
    let trace = s.c.world.trace();
    assert!(trace.first("broker.deny").unwrap().at < trace.first("broker.freed").unwrap().at);
    s.check(
        &[
            ("broker.reclaim", 2),
            ("broker.deny", 1),
            ("broker.freed", 2),
            ("broker.grant", 5),
        ],
        (0x9616cfd4ec0a0f35, 0x5d2cf260f8614967),
    );
}

#[test]
fn offer_ignored_in_cooldown_expires() {
    // PVM without its module refuses the redirected slave, so the appl
    // backs off and lets the broker's next offer lapse.
    let mut s = Scenario::new(23, pooled(2));
    s.c.submit(
        s.c.machines[0],
        JobRequest {
            rsl: "+(count>=1)(adaptive=1)".into(),
            user: "u".into(),
            run: JobRun::Root(Box::new(PvmMaster::new(PvmMasterConfig {
                initial_hosts: vec!["anylinux".into()],
                ..Default::default()
            }))),
        },
    );
    s.run_for(90);
    s.check(
        &[
            ("broker.offer", 1),
            ("appl.offer.cooldown", 1),
            ("broker.reservation.expired", 1),
        ],
        (0x5be49394a3018475, 0xd32ab4ea1df1080e),
    );
}

#[test]
fn batch_jobs_queue_while_a_daemon_is_lost() {
    let mut s = Scenario::new(24, pooled(2));
    for _ in 0..4 {
        s.sequential(8_000);
    }
    s.run_for(2);
    s.kill_daemon("n02");
    s.run_for(60);
    s.check(
        &[
            ("broker.queued", 2),
            ("broker.daemon.lost", 1),
            ("broker.grant", 4),
            ("broker.job.done", 4),
        ],
        (0x8590d22cbc514b88, 0x7e6e5e2db4f68986),
    );
}

#[test]
fn allocation_between_console_hold_expiry_and_next_report() {
    // Reports every 7 s, so a 30 s console hold lapses 5 s before the
    // report that notices. The policy here leaves jobs on owned machines,
    // so a request inside that gap may reclaim p02 itself.
    let cost = CostModel {
        daemon_report_interval: Duration::from_secs(7),
        ..CostModel::default()
    };
    let mut machines = vec![MachineAttrs::public_linux("n00")];
    machines.extend(public(1));
    machines.push(MachineAttrs::private_linux("p02", "pat"));
    let mut s = Scenario::with(25, machines, false, cost);
    s.calypso(2);
    s.workers(2);
    // p02's daemon reports at its hello time plus multiples of 7 s: touch
    // the console mid-period, so the hold starts at the next report.
    let hello =
        s.c.world
            .trace()
            .events()
            .iter()
            .find(|e| e.topic == "broker.daemon.hello" && e.detail == "p02")
            .unwrap()
            .at;
    let period = 7_000_000;
    let k = (s.c.world.now().as_micros() - hello.as_micros()) / period + 1;
    let touch = SimTime(hello.as_micros() + k * period + period / 2);
    let held_from = SimTime(hello.as_micros() + (k + 1) * period);
    s.c.world.run_until(touch);
    s.c.world.touch_console(s.c.machines[2]);
    s.c.world.run_until(held_from + Duration::from_secs(31));
    s.calypso(1);
    s.run_for(20);
    let reclaim = s.c.world.trace().first("broker.reclaim").unwrap();
    let lapsed = held_from + Duration::from_secs(30);
    assert!(lapsed < reclaim.at && reclaim.at < held_from + Duration::from_secs(35));
    assert_eq!(reclaim.detail, "p02 from j1");
    s.check(
        &[("broker.reclaim", 1), ("broker.grant", 3)],
        (0xca49cad4ac8f610b, 0x08334323fcefe00c),
    );
}

#[test]
fn wide_cluster_decides_in_machine_id_order() {
    let mut s = Scenario::new(26, pooled(71));
    s.calypso(71);
    s.workers(71);
    for host in ["n66", "n05", "n40"] {
        s.kill_daemon(host);
    }
    for _ in 0..4 {
        s.sequential(5_000);
        s.c.world
            .run_until(s.c.world.now() + Duration::from_millis(10));
    }
    s.run_for(40);
    let lost: Vec<&str> =
        s.c.world
            .trace()
            .with_topic("broker.daemon.lost")
            .map(|e| e.detail.as_str())
            .collect();
    assert_eq!(lost, ["m5", "m40", "m66"]);
    s.check(
        &[
            ("broker.daemon.lost", 3),
            ("broker.reclaim", 4),
            ("broker.offer", 4),
            ("broker.grant", 79),
        ],
        (0x4e999fe7c3974760, 0xc9733f8333d86e81),
    );
}
