//! Almost-violation fixtures: one per linter rule, each walking right up
//! to the rule's edge while staying legal. They pin down the *boundary*
//! of every invariant — the precise event that distinguishes a violation
//! from the closest clean trace — so a future rule tweak that widens or
//! narrows a rule shows up as a test failure here, not as CI noise on
//! real scenario traces.

use rb_analyze::{lint_events, render_violations};
use rb_simcore::{SimTime, TraceEvent};

/// Event at `ms` milliseconds of simulated time.
fn ev(ms: u64, topic: &str, detail: &str) -> TraceEvent {
    TraceEvent {
        at: SimTime(ms * 1_000),
        topic: topic.to_string().into(),
        detail: detail.to_string(),
    }
}

/// A well-formed prologue: broker up over two registered machines.
fn prologue() -> Vec<TraceEvent> {
    vec![
        ev(0, "broker.up", "2 machines"),
        ev(1, "broker.daemon.hello", "n00"),
        ev(2, "broker.daemon.hello", "n01"),
    ]
}

#[track_caller]
fn assert_clean(events: &[TraceEvent]) {
    let v = lint_events(events);
    assert!(
        v.is_empty(),
        "expected clean trace, got:\n{}",
        render_violations(&v)
    );
}

/// no-double-allocation: the same machine granted twice is legal exactly
/// when the first holder's job finished in between — `broker.job.done`
/// releases held machines just like an explicit free.
#[test]
fn regrant_after_job_done_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.job.done", "j1"));
    t.push(ev(30, "broker.grant", "n00 -> j2 (g2)"));
    assert_clean(&t);
}

/// reclaim-terminates: a reclaim needs no freed/regrant if the *victim
/// job* finishes — job completion resolves its pending reclaims.
#[test]
fn reclaim_resolved_by_victim_job_done_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.reclaim", "n00 from j1"));
    t.push(ev(30, "broker.job.done", "j1"));
    assert_clean(&t);
}

/// release-completes: a release left hanging by the sub-appl is still
/// resolved when the machine powers down — the crash is the backstop.
#[test]
fn release_resolved_by_power_down_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "subappl.release", "n00"));
    t.push(ev(20, "machine.power", "n00 up=false"));
    assert_clean(&t);
}

/// grant-precedes-spawn: the authorization is judged at *invoke* time.
/// A job finishing while the spawn's rsh is in flight frees the machine
/// before `proc.start` — legal, because the launch was authorized.
#[test]
fn job_finishing_mid_spawn_flight_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "rsh.invoke", "p1 broker n00 sub-appl"));
    t.push(ev(30, "broker.job.done", "j1"));
    t.push(ev(40, "proc.start", "p5 sub-appl on n00"));
    assert_clean(&t);
}

/// phase1-before-phase2: one phase-I failure is all the coerced phase-II
/// rsh needs — back-to-back is the minimal legal module handoff.
#[test]
fn phase2_immediately_after_single_phase1_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "appl.module.phase1", "anylinux"));
    t.push(ev(11, "appl.module.phase2", "n00"));
    assert_clean(&t);
}

/// sigkill-term-grace: escalation to SIGKILL is legal when it happens
/// inside a release window on that host *after* a SIGTERM to a process
/// there — the full polite-then-forceful vacate sequence.
#[test]
fn sigkill_after_sigterm_within_release_window_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "rsh.invoke", "p1 broker n00 sub-appl"));
    t.push(ev(30, "proc.start", "p5 sub-appl on n00"));
    t.push(ev(40, "subappl.release", "n00"));
    t.push(ev(41, "sig.deliver", "p5 sub-appl Term"));
    t.push(ev(141, "subappl.grace-expired", "n00"));
    t.push(ev(142, "subappl.released", "n00"));
    assert_clean(&t);
}

/// offer-validity: offering a machine is legal the moment it is freed —
/// free-then-offer is the broker's normal recycling path.
#[test]
fn offer_right_after_free_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.freed", "n00 by j1"));
    t.push(ev(21, "broker.offer", "n00 -> j2"));
    assert_clean(&t);
}

/// owner-eviction: an owner returning to a held machine is satisfied by
/// *any* path that takes the machine from the job — an explicit free
/// counts, no `broker.evict.owner` required.
#[test]
fn owner_return_resolved_by_free_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "machine.owner", "n00 present=true"));
    t.push(ev(30, "broker.freed", "n00 by j1"));
    assert_clean(&t);
}

/// owner-eviction: the broker may grant a machine whose owner has just
/// returned (it acts on the last daemon report); the grant is legal as
/// long as the next report evicts the job.
#[test]
fn grant_evicted_after_report_lag_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "machine.owner", "n00 present=true"));
    t.push(ev(11, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(12, "broker.evict.owner", "n00 from j1"));
    t.push(ev(13, "broker.reclaim", "n00 from j1"));
    t.push(ev(20, "broker.freed", "n00 by j1"));
    assert_clean(&t);
}

/// job-lifecycle: a finished job poisons only *itself* — granting the
/// same machine to a different, live job right after is legal.
#[test]
fn grant_to_other_job_after_done_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.job.done", "j1"));
    t.push(ev(30, "broker.grant", "n00 -> j2 (g2)"));
    t.push(ev(31, "broker.offer", "n01 -> j2"));
    assert_clean(&t);
}

/// pool-conservation: holding exactly the whole pool is legal — the
/// invariant is `held <= pool`, and this pins the equality edge.
#[test]
fn holding_entire_pool_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(11, "broker.grant", "n01 -> j1 (g2)"));
    assert_clean(&t);
}
