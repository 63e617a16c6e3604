//! A behavior that panics while its lane runs on a worker thread must fail
//! the run at once, with the panic message, the lane and the window, and
//! never leave the coordinator waiting for a lane that will not come back.

use resourcebroker::proto::TimerToken;
use resourcebroker::simcore::{Duration, SimTime};
use resourcebroker::simnet::{Behavior, Ctx, ProcEnv, WorldBuilder};
use std::sync::mpsc;

/// Re-arms a 1 ms timer forever; with `panic_on` set, panics on that tick.
struct Ticker {
    ticks: u32,
    panic_on: Option<u32>,
}

impl Behavior for Ticker {
    fn name(&self) -> &'static str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_millis(1));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.ticks += 1;
        if Some(self.ticks) == self.panic_on {
            panic!("ticker broke on tick {}", self.ticks);
        }
        ctx.set_timer(Duration::from_millis(1));
    }
}

/// Two machines on two lanes; machine 1's ticker panics on its third
/// timer. Returns the panic message `run_until` ended with, or `None` if
/// it returned normally.
fn run_panicking_world(threads: usize) -> Option<String> {
    let mut b = WorldBuilder::new().trace(false).shards(2).threads(threads);
    let machines = b.standard_lab(2);
    let mut w = b.build();
    for (i, &m) in machines.iter().enumerate() {
        let ticker = Ticker {
            ticks: 0,
            panic_on: (i == 1).then_some(3),
        };
        w.spawn_user(m, Box::new(ticker), ProcEnv::user_standard("user"));
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.run_until(SimTime(10_000));
    }));
    let payload = run.err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

/// Run the world on its own thread and wait at most `secs`, so a hang
/// fails the test instead of the whole suite.
fn run_with_timeout(threads: usize, secs: u64) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(run_panicking_world(threads));
    });
    let msg = rx
        .recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("threads({threads}): run_until still blocked after {secs} s"));
    handle.join().expect("the run's own panic was caught");
    msg
}

#[test]
fn lane_panic_fails_the_run_with_lane_and_window() {
    // On the coordinator the behavior's own panic propagates.
    let serial = run_with_timeout(1, 30).expect("the panic must reach the caller");
    assert!(serial.contains("ticker broke on tick 3"), "{serial}");
    // On worker threads the coordinator re-raises it naming the lane and
    // the window: the third tick fires at 3 ms, and the window starting
    // there ends one 800 µs lookahead later.
    let threaded = run_with_timeout(2, 30).expect("the panic must reach the caller");
    for part in ["ticker broke on tick 3", "lane 1", "T+0.003800s"] {
        assert!(threaded.contains(part), "{threaded}");
    }
}
