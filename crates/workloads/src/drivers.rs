//! Measurement driver behaviors: simulated users at terminals timing
//! commands with a stopwatch, as in the paper's experiments.

use rb_proto::{CommandSpec, ExitStatus, ProcId, RshError, RshHandle};
use rb_simcore::SimTime;
use rb_simnet::{Behavior, Ctx};
use std::sync::{Arc, Mutex};

/// Shared slot the driver writes its observation into.
pub type Slot<T> = Arc<Mutex<Option<T>>>;

/// Outcome of one timed remote execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    pub started: SimTime,
    pub finished: SimTime,
    pub result: Result<ExitStatus, RshError>,
}

impl ExecOutcome {
    pub fn elapsed_secs(&self) -> f64 {
        self.finished.saturating_since(self.started).as_secs_f64()
    }
}

/// Times one `rsh <host> <cmd>` (through whatever `rsh` the environment
/// binds) from invocation to completion — exactly what `time rsh n01 loop`
/// measures at a shell.
pub struct TimedRsh {
    host: String,
    cmd: CommandSpec,
    outcome: Slot<ExecOutcome>,
    started: SimTime,
    handle: Option<RshHandle>,
}

impl TimedRsh {
    pub fn new(host: impl Into<String>, cmd: CommandSpec, outcome: Slot<ExecOutcome>) -> Self {
        TimedRsh {
            host: host.into(),
            cmd,
            outcome,
            started: SimTime::ZERO,
            handle: None,
        }
    }
}

impl Behavior for TimedRsh {
    fn name(&self) -> &'static str {
        "timed-rsh"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = ctx.now();
        self.handle = Some(ctx.rsh(&self.host.clone(), self.cmd.clone()));
    }

    fn on_rsh_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        handle: RshHandle,
        result: Result<ExitStatus, RshError>,
    ) {
        if self.handle == Some(handle) {
            *self.outcome.lock().unwrap() = Some(ExecOutcome {
                started: self.started,
                finished: ctx.now(),
                result,
            });
            ctx.exit(ExitStatus::Success);
        }
    }
}

/// Makes a fresh shared observation slot.
pub fn slot<T>() -> Slot<T> {
    Arc::new(Mutex::new(None))
}

/// A tiny behavior that just forwards one message to a target after start
/// (a user typing one console command).
pub struct OneShot {
    pub to: ProcId,
    pub msg: rb_proto::Payload,
}

impl Behavior for OneShot {
    fn name(&self) -> &'static str {
        "one-shot"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.to, self.msg.clone());
        ctx.exit(ExitStatus::Success);
    }
}
