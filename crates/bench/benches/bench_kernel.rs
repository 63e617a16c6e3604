//! Microbenchmarks of the simulation kernel itself: event-queue throughput
//! and the processor-sharing scheduler.

use rb_simcore::{Duration, EventQueue, SimTime};
use rb_simnet::cpu::CpuScheduler;

fn main() {
    for n in [1_000u64, 100_000] {
        rb_bench::bench(&format!("kernel/event_queue/push_pop/{n}"), 20, || {
            let mut q = EventQueue::new();
            // Deterministic pseudo-shuffled times.
            for i in 0..n {
                q.push(SimTime((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
        // Sliding-window workload: the queue stays shallow but time
        // advances, which is the shape real simulations produce.
        rb_bench::bench(&format!("kernel/event_queue/sliding/{n}"), 20, || {
            let mut q = EventQueue::new();
            for i in 0..128u64 {
                q.push(SimTime(i * 97 % 10_000), i);
            }
            let mut count = 0u64;
            for i in 0..n {
                let (t, _) = q.pop().expect("queue kept warm");
                q.push(SimTime(t.0 + 1 + (i * 2_654_435_761) % 10_000), i);
                count += 1;
            }
            count
        });
    }
    rb_bench::bench("kernel/cpu_scheduler/ps_64_bursts", 20, || {
        let mut cpu = CpuScheduler::new(1.0);
        let t0 = SimTime(0);
        for i in 0..64u64 {
            cpu.add(t0, rb_proto::ProcId(i), i, Duration::from_millis(100 + i));
        }
        let mut now = t0;
        let mut finished = 0;
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            let (done, _) = cpu.take_finished(now);
            finished += done.len();
        }
        finished
    });
}
