//! Randomized churn testing of the substrate: arbitrary interleavings
//! of spawns, kills, machine crashes, and restores must preserve the
//! kernel's accounting invariants and its running-process index, at every
//! lane and thread count. Driven by the in-repo seeded PRNG so every
//! failing interleaving is replayable from its seed.

use rb_proto::{MachineId, ProcId, Signal};
use rb_simcore::{Duration, SimRng, SimTime};
use rb_simnet::{BasePrograms, EchoProg, LoopProg, ProcEnv, World, WorldBuilder};

/// The behavior names the actions interleave: `loop` exits on its own,
/// `echo` runs until it is signalled or its machine crashes.
const NAMES: [&str; 2] = ["loop", "echo"];

#[derive(Debug, Clone)]
enum Action {
    /// Spawn a loop of the given CPU-millis on machine (index % count).
    Spawn { machine: u8, cpu_millis: u16 },
    /// Spawn an echo server on machine (index % count).
    SpawnEcho { machine: u8 },
    /// SIGKILL the oldest alive process named `NAMES[name]`.
    KillOldest { name: u8 },
    /// SIGTERM the newest alive process named `NAMES[name]`.
    TermNewest { name: u8 },
    /// Crash a machine.
    Crash { machine: u8 },
    /// Restore a machine.
    Restore { machine: u8 },
    /// Advance time.
    Advance { millis: u16 },
}

fn rand_action(rng: &mut SimRng) -> Action {
    match rng.index(7) {
        0 => Action::Spawn {
            machine: rng.uniform_u64(0, 256) as u8,
            cpu_millis: rng.uniform_u64(10, 3_000) as u16,
        },
        1 => Action::SpawnEcho {
            machine: rng.uniform_u64(0, 256) as u8,
        },
        2 => Action::KillOldest {
            name: rng.index(NAMES.len()) as u8,
        },
        3 => Action::TermNewest {
            name: rng.index(NAMES.len()) as u8,
        },
        4 => Action::Crash {
            machine: rng.uniform_u64(0, 256) as u8,
        },
        5 => Action::Restore {
            machine: rng.uniform_u64(0, 256) as u8,
        },
        _ => Action::Advance {
            millis: rng.uniform_u64(10, 2_000) as u16,
        },
    }
}

fn apply(world: &mut World, machines: &[MachineId], action: &Action) {
    let pick = |machine: u8| machines[machine as usize % machines.len()];
    match *action {
        Action::Spawn {
            machine,
            cpu_millis,
        } => {
            let m = pick(machine);
            if world.machine_up(m) {
                world.spawn_user(
                    m,
                    Box::new(LoopProg::new(cpu_millis as u64)),
                    ProcEnv::user_standard("u"),
                );
            }
        }
        Action::SpawnEcho { machine } => {
            let m = pick(machine);
            if world.machine_up(m) {
                world.spawn_user(m, Box::new(EchoProg), ProcEnv::user_standard("u"));
            }
        }
        Action::KillOldest { name } => {
            if let Some(&p) = world.procs_named(NAMES[name as usize]).first() {
                world.kill_from_harness(p, Signal::Kill);
            }
        }
        Action::TermNewest { name } => {
            if let Some(&p) = world.procs_named(NAMES[name as usize]).last() {
                world.kill_from_harness(p, Signal::Term);
            }
        }
        Action::Crash { machine } => world.set_machine_up(pick(machine), false),
        Action::Restore { machine } => world.set_machine_up(pick(machine), true),
        Action::Advance { millis } => {
            let t = world.now() + Duration::from_millis(millis as u64);
            world.run_until(t);
        }
    }
}

/// `procs_named` must list exactly the alive processes of that name, in
/// the machine-major id order of the full-table scan `alive_procs`.
fn assert_index_matches_scan(world: &World, at: &str) {
    let alive = world.alive_procs();
    for name in NAMES {
        let scanned: Vec<ProcId> = alive
            .iter()
            .filter(|&&(_, n, _)| n == name)
            .map(|&(p, _, _)| p)
            .collect();
        assert_eq!(
            world.procs_named(name),
            scanned,
            "procs_named({name:?}) {at}"
        );
    }
}

#[test]
fn kernel_invariants_hold_under_churn() {
    let mut rng = SimRng::seeded(0xc0c0);
    for case in 0..64 {
        let actions: Vec<Action> = (0..rng.uniform_u64(1, 60))
            .map(|_| rand_action(&mut rng))
            .collect();
        for shards in 1..=3 {
            for threads in 1..=2 {
                let run = format!("case {case}, shards {shards}, threads {threads}");
                let mut b = WorldBuilder::new()
                    .seed(99)
                    .factory(BasePrograms)
                    .shards(shards)
                    .threads(threads);
                let machines = b.standard_lab(3);
                let mut world = b.build();
                for (i, a) in actions.iter().enumerate() {
                    apply(&mut world, &machines, a);
                    assert_index_matches_scan(&world, &format!("after action {i} {a:?} ({run})"));
                    // Invariant: busy time never exceeds allocated time (a
                    // CPU burst implies a resident app process), and
                    // neither exceeds total elapsed time.
                    let now = world.now();
                    for &m in &machines {
                        let busy = world.busy_time(m).as_micros();
                        let alloc = world.allocated_time(m).as_micros();
                        assert!(busy <= alloc + 1, "busy {busy} > alloc {alloc} ({run})");
                        assert!(alloc <= now.as_micros() + 1, "({run})");
                    }
                }
                // Drain: stop the echo servers, then all work finishes and
                // nothing is left runnable.
                for p in world.procs_named("echo") {
                    world.kill_from_harness(p, Signal::Kill);
                }
                let end = SimTime(world.now().as_micros() + 3_600_000_000);
                world.run_until_idle(end);
                assert_index_matches_scan(&world, &format!("after the drain ({run})"));
                for &m in &machines {
                    if world.machine_up(m) {
                        // After the queue drains no process should still be alive.
                        assert_eq!(
                            world.app_procs_on(m),
                            0,
                            "machine {m} still has app procs ({run})"
                        );
                    }
                }
                // Every process we ever spawned has a terminal status.
                for name in NAMES {
                    let alive = world.procs_named(name);
                    assert!(alive.is_empty(), "{alive:?} still alive ({run})");
                }
            }
        }
    }
}
