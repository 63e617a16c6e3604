//! Seeded-violation fixtures: every linter rule is exercised with (a) a
//! minimal clean trace it accepts and (b) a synthetic trace containing a
//! deliberate violation it must catch. These traces are hand-built in the
//! exact detail formats the behaviors emit, so the fixtures double as a
//! regression net for the trace vocabulary itself.

use rb_analyze::{lint_events, render_violations, Violation};
use rb_simcore::{SimTime, TraceEvent};
use std::collections::BTreeSet;

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

fn lint(events: &[TraceEvent]) -> Vec<Violation> {
    lint_events(events)
}

fn rules_hit(violations: &[Violation]) -> BTreeSet<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

#[track_caller]
fn assert_clean(events: &[TraceEvent]) {
    let v = lint(events);
    assert!(
        v.is_empty(),
        "expected clean trace, got:\n{}",
        render_violations(&v)
    );
}

#[track_caller]
fn assert_caught(events: &[TraceEvent], rule: &str) -> Vec<Violation> {
    let v = lint(events);
    assert!(
        v.iter().any(|x| x.rule == rule),
        "expected a {rule} violation, got:\n{}",
        render_violations(&v)
    );
    v
}

// ---------------------------------------------------------------- rule 1

#[test]
fn double_allocation_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.grant", "n00 -> j2 (g2)"));
    let v = assert_caught(&t, "no-double-allocation");
    // The violation window carries both grants.
    let bad = v.iter().find(|x| x.rule == "no-double-allocation").unwrap();
    assert_eq!(bad.window.len(), 2);
    assert!(bad.message.contains("j1") && bad.message.contains("j2"));
}

#[test]
fn free_then_regrant_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.freed", "n00 by j1"));
    t.push(ev(30, "broker.grant", "n00 -> j2 (g2)"));
    t.push(ev(40, "broker.job.done", "j2"));
    t.push(ev(50, "broker.grant", "n00 -> j3 (g3)"));
    t.push(ev(60, "broker.job.done", "j3"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 2

#[test]
fn hung_reclaim_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.reclaim", "n00 from j1"));
    assert_caught(&t, "reclaim-terminates");
}

#[test]
fn completed_reclaim_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.reclaim", "n00 from j1"));
    t.push(ev(30, "broker.freed", "n00 by j1"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 3

#[test]
fn hung_release_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "subappl.release", "n01"));
    assert_caught(&t, "release-completes");
}

#[test]
fn release_resolutions_are_clean() {
    // Released, the appl hard deadline, and a machine crash all close the
    // release window.
    let mut t = prologue();
    t.push(ev(10, "subappl.release", "n00"));
    t.push(ev(20, "subappl.released", "n00"));
    t.push(ev(30, "subappl.release", "n01"));
    t.push(ev(40, "appl.release.timeout", "n01"));
    t.push(ev(50, "subappl.release", "n00"));
    t.push(ev(60, "machine.power", "n00 up=false"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 4

#[test]
fn spawn_invoked_without_grant_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "rsh.invoke", "p3 Standard n01 sub-appl"));
    t.push(ev(20, "proc.start", "p7 sub-appl on n01"));
    assert_caught(&t, "grant-precedes-spawn");
}

#[test]
fn spawn_without_any_invoke_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "proc.start", "p7 sub-appl on n01"));
    assert_caught(&t, "grant-precedes-spawn");
}

#[test]
fn spawn_after_grant_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n01 -> j1 (g1)"));
    t.push(ev(11, "rsh.invoke", "p3 Standard n01 sub-appl"));
    t.push(ev(12, "proc.start", "p7 sub-appl on n01"));
    t.push(ev(13, "proc.start", "p8 calypso-worker on n01"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_clean(&t);
}

#[test]
fn job_finishing_during_in_flight_spawn_is_clean() {
    // rsh has latency: a job may complete (freeing its machines) while an
    // authorized spawn is still in flight. The spawn was legal when it
    // left; the landing is not a violation.
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(11, "rsh.invoke", "p3 Standard n00 sub-appl"));
    t.push(ev(20, "broker.job.done", "j1"));
    t.push(ev(300, "proc.start", "p7 sub-appl on n00"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 5

#[test]
fn phase2_without_phase1_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "appl.module.phase2", "n00"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_caught(&t, "phase1-before-phase2");
}

#[test]
fn two_phase_module_protocol_is_clean() {
    let mut t = prologue();
    t.push(ev(5, "appl.module.phase1", "anylinux pvmd"));
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "appl.module.phase2", "n00"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 6

#[test]
fn sigkill_without_sigterm_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(11, "rsh.invoke", "p3 Standard n00 sub-appl"));
    t.push(ev(12, "proc.start", "p7 sub-appl on n00"));
    t.push(ev(13, "proc.start", "p8 pvmd on n00"));
    t.push(ev(20, "subappl.release", "n00"));
    // Escalation with no SIGTERM ever delivered on the host.
    t.push(ev(30, "subappl.grace-expired", "n00"));
    t.push(ev(31, "subappl.released", "n00"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_caught(&t, "sigkill-term-grace");
}

#[test]
fn sigkill_outside_release_window_is_caught() {
    let mut t = prologue();
    t.push(ev(30, "subappl.grace-expired", "n00"));
    assert_caught(&t, "sigkill-term-grace");
}

#[test]
fn term_then_grace_then_kill_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(11, "rsh.invoke", "p3 Standard n00 sub-appl"));
    t.push(ev(12, "proc.start", "p7 sub-appl on n00"));
    t.push(ev(13, "proc.start", "p8 pvmd on n00"));
    t.push(ev(20, "subappl.release", "n00"));
    t.push(ev(21, "sig.deliver", "p8 pvmd Term"));
    t.push(ev(2021, "subappl.grace-expired", "n00"));
    t.push(ev(2022, "sig.deliver", "p8 pvmd Kill"));
    t.push(ev(2023, "subappl.released", "n00"));
    t.push(ev(2024, "broker.freed", "n00 by j1"));
    t.push(ev(9000, "broker.job.done", "j1"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 7

#[test]
fn offer_of_held_machine_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.offer", "n00 -> j2"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_caught(&t, "offer-validity");
}

#[test]
fn offer_of_idle_machine_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.offer", "n00 -> j1"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 8

#[test]
fn unjustified_eviction_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.evict.owner", "n00 from j1"));
    t.push(ev(30, "broker.freed", "n00 by j1"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_caught(&t, "owner-eviction");
}

#[test]
fn ignored_owner_return_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "machine.owner", "n00 present=true"));
    // The job keeps the machine to the end of the trace: owner never wins.
    assert_caught(&t, "owner-eviction");
}

#[test]
fn grant_to_present_owner_machine_is_caught() {
    // The owner returns while the machine is being reclaimed for another
    // job's grow; the reclaim completes and the machine is granted to the
    // requester with the owner still at the console, and nobody evicts.
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.reclaim", "n00 from j1"));
    t.push(ev(25, "machine.owner", "n00 present=true"));
    t.push(ev(30, "broker.freed", "n00 by j1"));
    t.push(ev(31, "broker.grant", "n00 -> j2 (g2)"));
    let v = assert_caught(&t, "owner-eviction");
    let hit = v.iter().find(|x| x.rule == "owner-eviction").unwrap();
    assert_eq!(hit.window[0].topic.as_str(), "broker.grant");
}

#[test]
fn owner_eviction_path_is_clean() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "machine.owner", "n00 present=true"));
    t.push(ev(25, "broker.evict.owner", "n00 from j1"));
    t.push(ev(30, "broker.reclaim", "n00 from j1"));
    t.push(ev(40, "broker.freed", "n00 by j1"));
    t.push(ev(50, "machine.owner", "n00 present=false"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_clean(&t);
}

// ---------------------------------------------------------------- rule 9

#[test]
fn grant_after_job_done_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "n00 -> j1 (g1)"));
    t.push(ev(20, "broker.job.done", "j1"));
    t.push(ev(30, "broker.grant", "n01 -> j1 (g2)"));
    t.push(ev(40, "broker.freed", "n01 by j1"));
    assert_caught(&t, "job-lifecycle");
}

#[test]
fn offer_after_job_done_is_caught() {
    let mut t = prologue();
    t.push(ev(20, "broker.job.done", "j1"));
    t.push(ev(30, "broker.offer", "n01 -> j1"));
    assert_caught(&t, "job-lifecycle");
}

// --------------------------------------------------------------- rule 10

#[test]
fn grant_to_unregistered_host_is_caught() {
    let mut t = prologue();
    t.push(ev(10, "broker.grant", "ghost -> j1 (g1)"));
    t.push(ev(90, "broker.job.done", "j1"));
    assert_caught(&t, "pool-conservation");
}

#[test]
fn overcommitted_pool_is_caught() {
    // broker.up said one machine, yet two distinct hosts end up held.
    let t = vec![
        ev(0, "broker.up", "1 machines"),
        ev(1, "broker.daemon.hello", "n00"),
        ev(2, "broker.daemon.hello", "n01"),
        ev(10, "broker.grant", "n00 -> j1 (g1)"),
        ev(20, "broker.grant", "n01 -> j1 (g2)"),
        ev(90, "broker.job.done", "j1"),
    ];
    assert_caught(&t, "pool-conservation");
}

// ----------------------------------------------------------- aggregates

/// One trace seeded with a violation of every rule: the linter must
/// attribute at least eight *distinct* rules (the acceptance floor) and
/// report each violation with a non-empty window.
#[test]
fn seeded_violations_cover_at_least_eight_rules() {
    let mut t = vec![
        ev(0, "broker.up", "2 machines"),
        ev(1, "broker.daemon.hello", "n00"),
        ev(2, "broker.daemon.hello", "n01"),
        // no-double-allocation
        ev(10, "broker.grant", "n00 -> j1 (g1)"),
        ev(11, "broker.grant", "n00 -> j2 (g2)"),
        // pool-conservation (never said hello)
        ev(12, "broker.grant", "ghost -> j3 (g3)"),
        // grant-precedes-spawn
        ev(13, "proc.start", "p9 sub-appl on n01"),
        // phase1-before-phase2
        ev(14, "appl.module.phase2", "n01"),
        // offer-validity
        ev(15, "broker.offer", "n00 -> j4"),
        // owner-eviction (nobody present)
        ev(16, "broker.evict.owner", "n00 from j1"),
        // job-lifecycle
        ev(17, "broker.job.done", "j2"),
        ev(18, "broker.grant", "n01 -> j2 (g4)"),
        // sigkill-term-grace (escalation outside any release window)
        ev(19, "subappl.grace-expired", "n01"),
        // release-completes (left pending)
        ev(20, "subappl.release", "n01"),
        // reclaim-terminates (left pending)
        ev(21, "broker.reclaim", "n00 from j1"),
    ];
    t.sort_by_key(|e| e.at);
    let v = lint(&t);
    let hit = rules_hit(&v);
    assert!(
        hit.len() >= 8,
        "only {} rules fired: {:?}\n{}",
        hit.len(),
        hit,
        render_violations(&v)
    );
    for x in &v {
        assert!(!x.window.is_empty(), "{}: empty window", x.rule);
    }
    // Violations come back in time order for readable reports.
    assert!(v.windows(2).all(|w| w[0].at <= w[1].at));
}

/// The whole pipeline the `rblint` binary uses: render a trace to text,
/// parse it back, lint the parsed events.
#[test]
fn rendered_trace_roundtrips_through_the_linter() {
    let mut rec = rb_simcore::TraceRecorder::enabled();
    for e in [
        ev(0, "broker.up", "1 machines"),
        ev(1, "broker.daemon.hello", "n00"),
        ev(10, "broker.grant", "n00 -> j1 (g1)"),
        ev(20, "broker.grant", "n00 -> j2 (g2)"),
    ] {
        rec.record(e.at, e.topic, e.detail);
    }
    let text = rec.render();
    let parsed = rb_simcore::parse_rendered(&text).expect("rendered traces parse");
    let v = lint_events(&parsed);
    assert!(v.iter().any(|x| x.rule == "no-double-allocation"));
}

// --------------------------------------------------------------- rule 11

#[test]
fn leaked_allocation_span_is_caught() {
    let mut t = prologue();
    // The alloc span opens, the job finishes, the trace runs well past
    // the grace second — and the span never closes.
    t.push(ev(10, "span.open", "s1 - alloc g1 job=j1 kind=Default"));
    t.push(ev(500, "broker.job.done", "j1"));
    t.push(ev(5_000, "broker.daemon.hello", "n01"));
    let v = assert_caught(&t, "span-closure");
    let bad = v.iter().find(|x| x.rule == "span-closure").unwrap();
    assert!(bad.message.contains("j1"), "{}", bad.message);
    assert!(!bad.window.is_empty());
}

#[test]
fn closed_and_exempt_spans_are_clean() {
    // Closed before quiescence: clean.
    let mut t = prologue();
    t.push(ev(10, "span.open", "s1 - alloc g1 job=j1 kind=Default"));
    t.push(ev(400, "span.close", "s1 alloc done"));
    t.push(ev(500, "broker.job.done", "j1"));
    t.push(ev(5_000, "broker.daemon.hello", "n01"));
    assert_clean(&t);

    // Open but inside the grace window after job.done: clean.
    let mut t = prologue();
    t.push(ev(10, "span.open", "s1 - alloc g1 job=j1 kind=Default"));
    t.push(ev(500, "broker.job.done", "j1"));
    t.push(ev(900, "broker.daemon.hello", "n01"));
    assert_clean(&t);

    // Open, but a machine crashed after the span opened: exempt (the
    // closing messages may have died with the machine).
    let mut t = prologue();
    t.push(ev(10, "span.open", "s1 - alloc g1 job=j1 kind=Default"));
    t.push(ev(20, "machine.power", "n01 up=false"));
    t.push(ev(500, "broker.job.done", "j1"));
    t.push(ev(5_000, "broker.daemon.hello", "n01"));
    assert_clean(&t);

    // Open with no job= of its own (an rsh′ request root): not judged.
    let mut t = prologue();
    t.push(ev(10, "span.open", "s1 - rsh.request n00 loop"));
    t.push(ev(500, "broker.job.done", "j1"));
    t.push(ev(5_000, "broker.daemon.hello", "n01"));
    assert_clean(&t);
}

// --------------------------------------------------------------- rule 12

#[test]
fn orphan_grant_span_is_caught() {
    let mut t = prologue();
    // A grant span recorded as a root: an allocation from nowhere.
    t.push(ev(10, "span.open", "s1 - alloc.grant g1 job=j1 n01"));
    t.push(ev(20, "span.close", "s1 alloc.grant freed"));
    let v = assert_caught(&t, "grant-has-request");
    assert!(v[0].message.contains("s1"), "{}", v[0].message);
}

#[test]
fn parented_and_truncated_grant_spans_are_clean() {
    // The full chain: grant → decide → alloc. Clean.
    let mut t = prologue();
    t.push(ev(10, "span.open", "s1 - alloc g1 job=j1 kind=Default"));
    t.push(ev(11, "span.open", "s2 s1 alloc.decide g1 job=j1 any"));
    t.push(ev(12, "span.open", "s3 s2 alloc.grant g1 job=j1 n01"));
    t.push(ev(20, "span.close", "s3 alloc.grant freed"));
    t.push(ev(21, "span.close", "s2 alloc.decide granted"));
    t.push(ev(22, "span.close", "s1 alloc done"));
    assert_clean(&t);

    // The decide parent fell off the ring entirely: benefit of the doubt.
    let mut t = prologue();
    t.push(ev(12, "span.open", "s3 s2 alloc.grant g1 job=j1 n01"));
    t.push(ev(20, "span.close", "s3 alloc.grant freed"));
    assert_clean(&t);

    // The decide parent survives only as a close-stub: also skipped.
    let mut t = prologue();
    t.push(ev(12, "span.open", "s3 s2 alloc.grant g1 job=j1 n01"));
    t.push(ev(20, "span.close", "s3 alloc.grant freed"));
    t.push(ev(21, "span.close", "s2 alloc.decide granted"));
    assert_clean(&t);
}
