//! A day in the life of the department: privately owned workstations are
//! used by their owners during office hours and harvested by an adaptive
//! job at night — the workload the paper's private/public policy is for.

use resourcebroker::broker::{build_cluster, ClusterOptions, JobRequest, JobRun};
use resourcebroker::parsys::{CalypsoConfig, CalypsoMaster, TaskBag};
use resourcebroker::proto::MachineAttrs;
use resourcebroker::simcore::{Duration, SimTime};

#[test]
fn overnight_harvest_of_private_workstations() {
    // 2 public lab machines + 4 private desks.
    let mut machines = vec![
        MachineAttrs::public_linux("lab0"),
        MachineAttrs::public_linux("lab1"),
    ];
    for (i, owner) in ["ann", "ben", "cat", "dan"].iter().enumerate() {
        machines.push(MachineAttrs::private_linux(format!("desk{i}"), *owner));
    }
    let opts = ClusterOptions {
        seed: 2024,
        machines,
        ..Default::default()
    };
    let mut c = build_cluster(opts);
    rb_analyze::install_linter(&mut c.world);
    let desks: Vec<_> = (2..6).map(|i| c.machines[i]).collect();

    // 9am: everyone is at their desk.
    for &d in &desks {
        c.world.set_owner_present(d, true);
    }
    c.settle();

    // The overnight batch job wants as much as it can get.
    c.submit(
        c.machines[0],
        JobRequest {
            rsl: "+(count>=5)(adaptive=1)".into(),
            user: "hpc".into(),
            run: JobRun::Root(Box::new(CalypsoMaster::new(CalypsoConfig {
                tasks: TaskBag::Endless { cpu_millis: 1_500 },
                desired_workers: 5,
                hostfile: vec!["anylinux".into()],
                task_timeout: None,
            }))),
        },
    );
    // Daytime (30 simulated minutes): only lab1 is harvestable (lab0 runs
    // the broker/master infrastructure and counts as home).
    c.world
        .run_until(c.world.now() + Duration::from_secs(1_800));
    let workers_day = c.world.procs_named("calypso-worker");
    assert_eq!(workers_day.len(), 1, "daytime: only the lab machine");
    for &w in &workers_day {
        let host = c.world.hostname(c.world.proc_machine(w).unwrap());
        assert!(host.starts_with("lab"), "daytime worker on {host}");
    }

    // 6pm: people trickle out over an hour.
    for (k, &d) in desks.iter().enumerate() {
        let at = c.world.now() + Duration::from_secs(900 * (k as u64 + 1));
        c.world.schedule(at, move |w| w.set_owner_present(d, false));
    }
    // Midnight: the job should have expanded onto every desk.
    c.world
        .run_until(c.world.now() + Duration::from_secs(4 * 3_600));
    let workers_night = c.world.procs_named("calypso-worker");
    assert_eq!(workers_night.len(), 5, "night: labs + all four desks");
    let mut hosts: Vec<String> = workers_night
        .iter()
        .map(|&w| {
            c.world
                .hostname(c.world.proc_machine(w).unwrap())
                .to_string()
        })
        .collect();
    hosts.sort();
    assert!(hosts.iter().filter(|h| h.starts_with("desk")).count() == 4);

    // 8am: everyone returns within minutes; every desk is vacated shortly
    // after its owner sits down.
    for (k, &d) in desks.iter().enumerate() {
        let at = c.world.now() + Duration::from_secs(120 * (k as u64 + 1));
        c.world.schedule(at, move |w| w.set_owner_present(d, true));
    }
    c.world
        .run_until(c.world.now() + Duration::from_secs(1_200));
    let workers_morning = c.world.procs_named("calypso-worker");
    assert_eq!(workers_morning.len(), 1, "morning: back to the lab only");
    for &d in &desks {
        assert_eq!(c.world.app_procs_on(d), 0, "desk not vacated");
    }
    // Four evictions, four grow-offers consumed overnight.
    assert!(c.world.trace().count("broker.evict.owner") >= 4);
    assert!(c.world.trace().count("broker.offer") >= 4);

    // Overnight, the desks actually did useful work.
    let mut desk_busy = 0.0;
    for &d in &desks {
        desk_busy += c.world.busy_time(d).as_secs_f64();
    }
    assert!(
        desk_busy > 4.0 * 3_600.0 * 0.8,
        "desks computed {desk_busy}s overnight"
    );
    let _ = SimTime::ZERO;
    c.world.run_trace_checks().unwrap();
}
