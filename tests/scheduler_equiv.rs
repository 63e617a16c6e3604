//! Scheduler-equivalence guarantees: tracing, streaming and profiling are
//! pure observers (enabling them does not perturb the simulation), and the
//! sharded and threaded kernels replay byte-identically to the serial one
//! at every shard count.

use rb_broker::{build_cluster, ClusterOptions, DefaultPolicy};
use rb_proto::MachineAttrs;
use rb_simcore::{QueueStats, SimTime};
use rb_simnet::CostModel;
use rb_workloads::scenarios::{
    await_calypso_workers, broker_testbed_sharded, broker_testbed_streamed,
    broker_testbed_threaded, submit_endless_calypso,
};
use std::io::Write;
use std::sync::Arc;
use std::sync::Mutex;

/// Shared byte buffer usable as a `Box<dyn Write>` trace stream while the
/// test keeps a handle to inspect what was written.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take_string(&self) -> String {
        String::from_utf8(std::mem::take(&mut *self.0.lock().unwrap())).unwrap()
    }
}

/// A busy broker scenario: adaptive job grabs the cluster, then runs on.
/// Returns the rendered trace (empty when tracing is off), final virtual
/// time, and the kernel's work counters.
fn run_scenario_sharded(seed: u64, trace: bool, shards: usize) -> (String, u64, QueueStats) {
    let mut c = broker_testbed_sharded(4, seed, Box::new(DefaultPolicy::default()), trace, shards);
    assert_eq!(c.world.shard_count(), shards);
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    (
        c.world.trace().render(),
        c.world.now().as_micros(),
        c.world.kernel_stats(),
    )
}

fn run_scenario(trace: bool) -> (String, u64, QueueStats) {
    run_scenario_sharded(42, trace, 1)
}

/// The busy scenario with the lanes dispatched by a worker-thread pool.
fn run_scenario_threaded(seed: u64, shards: usize, threads: usize) -> (String, u64, QueueStats) {
    let mut c = broker_testbed_threaded(
        4,
        seed,
        Box::new(DefaultPolicy::default()),
        true,
        shards,
        threads,
    );
    assert_eq!(c.world.thread_count(), threads);
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    (
        c.world.trace().render(),
        c.world.now().as_micros(),
        c.world.kernel_stats(),
    )
}

#[test]
fn tracing_is_a_pure_observer() {
    let (traced, now_on, stats_on) = run_scenario(true);
    let (untraced, now_off, stats_off) = run_scenario(false);
    assert!(traced.lines().count() > 100, "scenario should be busy");
    assert!(untraced.is_empty(), "disabled recorder must store nothing");
    assert_eq!(now_on, now_off, "tracing changed the clock");
    assert_eq!(stats_on, stats_off);
}

/// The tentpole determinism contract: a sharded kernel replays the serial
/// kernel byte-for-byte — same trace, same clock, same work counters — at
/// every shard count, across seeds.
#[test]
fn sharded_kernel_is_byte_identical_to_serial() {
    for seed in [42u64, 9001] {
        let (serial_trace, serial_now, serial_stats) = run_scenario_sharded(seed, true, 1);
        assert!(serial_trace.lines().count() > 100);
        for shards in [2usize, 4] {
            let (trace, now, stats) = run_scenario_sharded(seed, true, shards);
            assert_eq!(
                serial_trace, trace,
                "seed {seed}: shards={shards} diverged from serial"
            );
            assert_eq!(serial_now, now, "seed {seed} shards={shards}");
            assert_eq!(serial_stats, stats, "seed {seed} shards={shards}");
        }
    }
}

/// Sharding is also a pure observer of the reallocation scenario (the
/// Table 2 shape `bench_report` measures): traces and elapsed times agree
/// across shard counts.
#[test]
fn sharded_reallocation_is_byte_identical_to_serial() {
    use rb_proto::CommandSpec;
    use rb_workloads::table2::prime_with_realloc_sharded;
    let (serial_out, serial_trace) = prime_with_realloc_sharded(2024, CommandSpec::Null, 1, true);
    assert!(serial_trace.lines().count() > 100);
    for shards in [2usize, 4] {
        let (out, trace) = prime_with_realloc_sharded(2024, CommandSpec::Null, shards, true);
        assert_eq!(serial_trace, trace, "shards={shards} diverged");
        assert_eq!(serial_out.elapsed_secs, out.elapsed_secs);
        assert_eq!(serial_out.queue, out.queue, "shards={shards}");
    }
}

/// The streaming sink is byte-faithful: running the scenario with the
/// trace streamed to a writer (only a small tail resident in memory)
/// produces exactly the bytes the in-memory recorder renders — serial
/// and sharded, so per-shard staging + absorb composes with streaming.
#[test]
fn streamed_trace_is_byte_identical_to_in_memory_render() {
    let (full_trace, full_now, full_stats) = run_scenario_sharded(42, true, 1);
    for shards in [1usize, 2] {
        let buf = SharedBuf::default();
        let mut c = broker_testbed_streamed(
            4,
            42,
            Box::new(DefaultPolicy::default()),
            shards,
            Box::new(buf.clone()),
            64,
        );
        submit_endless_calypso(&mut c, 4, 500);
        let limit = SimTime(c.world.now().as_micros() + 60_000_000);
        await_calypso_workers(&mut c, 4, limit);
        c.world.run_until(limit);
        assert_eq!(c.world.now().as_micros(), full_now, "shards={shards}");
        assert_eq!(c.world.kernel_stats().dispatched, full_stats.dispatched);
        // Bounded memory: only the tail is resident, nothing was lost.
        let recorder = c.world.trace();
        assert!(recorder.events().len() < 128, "{}", recorder.events().len());
        assert_eq!(recorder.dropped_events(), 0);
        assert_eq!(
            recorder.recorded_events() as usize,
            full_trace.lines().count(),
            "shards={shards}"
        );
        // The footer is a comment the parser skips; bytes before it are
        // the exact in-memory render.
        c.world.finish_trace_stream();
        let streamed = buf.take_string();
        let (body, footer) = streamed.rsplit_once("# rb-trace v1").expect("stats footer");
        assert_eq!(body, full_trace, "shards={shards}: streamed bytes diverged");
        assert!(footer.contains("dropped=0"));
    }
}

/// The self-profiler is a pure observer: a profiled run replays the
/// unprofiled trace byte-for-byte while accumulating dispatch counts
/// that agree with the kernel's own counters.
#[test]
fn profiling_is_a_pure_observer() {
    let (plain_trace, plain_now, plain_stats) = run_scenario_sharded(42, true, 1);
    let mut c = rb_workloads::scenarios::broker_testbed_profiled(
        4,
        42,
        Box::new(DefaultPolicy::default()),
        rb_simcore::Duration::from_millis(500),
    );
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    assert_eq!(c.world.now().as_micros(), plain_now);
    assert_eq!(c.world.trace().render(), plain_trace);
    let prof = c.world.profiler().expect("profiling enabled");
    // Behavior dispatches track (but don't equal) kernel events: some
    // events dispatch no behavior (cancelled timers, drops), some
    // dispatch several (CPU rechecks).
    assert!(prof.total_dispatches() > plain_stats.dispatched / 2);
    assert!(prof.behaviors().any(|(name, _)| name == "broker"));
    assert!(prof.payloads().any(|(kind, _)| kind == "calypso"));
    let dispatches = prof.total_dispatches();
    let wall_ns = prof.total_wall_ns();
    assert!(wall_ns > 0);
    // The registry carries the prof.* counters after a flush.
    c.world.flush_profile_metrics();
    let reg = c.world.metrics().expect("metrics enabled");
    assert_eq!(reg.counter("prof.dispatches", ""), dispatches);
    assert_eq!(reg.counter("prof.wall_ns", ""), wall_ns);
}

/// The true-parallel determinism contract (DESIGN.md §17): dispatching
/// the lanes on worker threads replays the serial kernel byte-for-byte —
/// same trace, same clock, same work counters — at 2 and 4 shards.
/// Thread interleaving must not leak into any contract output.
#[test]
fn threaded_kernel_is_byte_identical_to_serial() {
    let (serial_trace, serial_now, serial_stats) = run_scenario_sharded(42, true, 1);
    assert!(serial_trace.lines().count() > 100);
    for shards in [2usize, 4] {
        let (trace, now, stats) = run_scenario_threaded(42, shards, 4);
        assert_eq!(
            serial_trace, trace,
            "threaded shards={shards} diverged from serial"
        );
        assert_eq!(serial_now, now, "shards={shards}");
        assert_eq!(serial_stats, stats, "shards={shards}");
    }
}

/// Threaded dispatch is a pure observer of the reallocation scenario too:
/// the Table 2 shape replays byte-identically with a 4-thread pool.
#[test]
fn threaded_reallocation_is_byte_identical_to_serial() {
    use rb_proto::CommandSpec;
    use rb_workloads::table2::{prime_with_realloc_sharded, prime_with_realloc_threaded};
    let (serial_out, serial_trace) = prime_with_realloc_sharded(2024, CommandSpec::Null, 1, true);
    assert!(serial_trace.lines().count() > 100);
    for shards in [2usize, 4] {
        let (out, trace) = prime_with_realloc_threaded(2024, CommandSpec::Null, shards, 4, true);
        assert_eq!(serial_trace, trace, "threaded shards={shards} diverged");
        assert_eq!(serial_out.elapsed_secs, out.elapsed_secs);
        assert_eq!(serial_out.queue, out.queue, "threaded shards={shards}");
    }
}

/// Byte-identity is not a property of one blessed seed: a splitmix-drawn
/// seed sweep replays threaded = serial every time. Any scheduling
/// nondeterminism that survived the merge would show up here as a flaky
/// divergence.
#[test]
fn threaded_equivalence_holds_across_random_seeds() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for round in 0..6 {
        // splitmix64 step — a deterministic "random" seed schedule.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let seed = z ^ (z >> 31);
        let (serial_trace, serial_now, serial_stats) = run_scenario_sharded(seed, true, 1);
        let (trace, now, stats) = run_scenario_threaded(seed, 4, 4);
        assert_eq!(
            serial_trace, trace,
            "round {round} (seed {seed}): threaded run diverged from serial"
        );
        assert_eq!(serial_now, now, "round {round} (seed {seed})");
        assert_eq!(serial_stats, stats, "round {round} (seed {seed})");
    }
}

/// The sharded kernel exposes synchronizer statistics: windows derived
/// from the cost model's lookahead, per-shard dispatch counts summing to
/// the global count, and every cross-shard forward accounted.
#[test]
fn sharded_kernel_reports_synchronizer_stats() {
    let mut c = broker_testbed_sharded(4, 7, Box::new(DefaultPolicy::default()), false, 4);
    assert!(c.world.shard_stats().is_some());
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 30_000_000);
    c.world.run_until(limit);
    let ss = c.world.shard_stats().expect("sharded kernel");
    let stats = c.world.kernel_stats();
    assert_eq!(ss.shards, 4);
    assert!(ss.windows > 0, "windows never advanced");
    assert_eq!(ss.lookahead, c.world.cost().lookahead());
    let per_shard_total: u64 = ss.per_shard.iter().map(|l| l.dispatched).sum();
    assert_eq!(per_shard_total, stats.dispatched);
    assert!(
        ss.per_shard.iter().filter(|l| l.dispatched > 0).count() > 1,
        "work never spread beyond one shard"
    );
    let hist_total: u64 = ss.stall_hist.iter().sum();
    assert_eq!(
        hist_total + 1,
        ss.windows,
        "every closed window is histogrammed"
    );
    // The serial kernel reports no shard stats.
    let serial = broker_testbed_sharded(4, 7, Box::new(DefaultPolicy::default()), false, 1);
    assert!(serial.world.shard_stats().is_none());
    assert_eq!(serial.world.shard_count(), 1);
}

/// A cost model that cannot bound a window keeps one lane whatever
/// `shards` asks for: a zero-cost world built with `shards(4).threads(4)`
/// runs on one lane and renders the `shards(1)` trace.
#[test]
fn zero_cost_world_keeps_one_lane() {
    let run = |shards: usize| {
        let mut machines = vec![MachineAttrs::private_linux("n00", "user")];
        machines.extend((1..=4).map(|i| MachineAttrs::public_linux(format!("n{i:02}"))));
        let mut c = build_cluster(ClusterOptions {
            seed: 42,
            cost: CostModel::zero(),
            machines,
            policy: Box::new(DefaultPolicy::default()),
            trace: true,
            shards,
            threads: shards,
            ..Default::default()
        });
        c.world.set_owner_present(c.machines[0], true);
        c.settle();
        submit_endless_calypso(&mut c, 4, 500);
        c.world
            .run_until(SimTime(c.world.now().as_micros() + 20_000_000));
        let w = &c.world;
        (
            w.shard_count(),
            w.trace().render(),
            w.now(),
            w.kernel_stats(),
        )
    };
    let (lanes, trace, now, stats) = run(1);
    assert_eq!(lanes, 1);
    assert!(trace.lines().count() > 100, "scenario should be busy");
    let (lanes, four_trace, four_now, four_stats) = run(4);
    assert_eq!(lanes, 1, "a zero-cost world must keep one lane");
    assert_eq!(trace, four_trace);
    assert_eq!(now, four_now);
    assert_eq!(stats, four_stats);
}
