//! Acceptance tests for the rb-model interleaving explorer (DESIGN.md §11):
//! the Calypso handoff really branches, the seeded lost-wakeup bug is
//! found and its schedule replays bit-identically, DPOR beats naive
//! enumeration, the fixed fixture is clean under every interleaving, and
//! the oracle's index-0 schedule is the plain run.

use rb_analyze::model::{self, explore, parse_schedule, schedule_to_string, ExploreConfig, Mode};
use rb_analyze::{ModelReport, ModelScenario};

fn run(name: &str, mode: Mode) -> (ModelScenario, ModelReport) {
    let sc = model::scenario(name).expect("known scenario");
    let cfg = ExploreConfig {
        mode,
        ..ExploreConfig::default()
    };
    let report = explore(&sc, &cfg);
    assert!(
        report.complete && report.truncated_by.is_none(),
        "{name} [{}] must exhaust its bounded space within default budgets, got {report:?}",
        mode.as_str()
    );
    (sc, report)
}

#[test]
fn calypso_handoff_explores_multiple_states_and_is_clean() {
    let (_, dpor) = run("calypso-handoff", Mode::Dpor);
    assert!(
        dpor.states_seen > 1,
        "the 2-host Calypso handoff must have real tie-break choice points, \
         saw {} state(s)",
        dpor.states_seen
    );
    assert!(
        dpor.schedules_executed > 1,
        "DPOR must branch at least once"
    );
    assert!(
        dpor.violations.is_empty(),
        "calypso handoff is clean under every interleaving: {:#?}",
        dpor.violations
    );
}

/// Index 0 everywhere reproduces the plain run: an oracle run steps one
/// event at a time over merged harness and lane batches, a plain run goes
/// through windows, and both render the same trace, `QueueStats` and
/// clock.
#[test]
fn index_zero_schedule_is_the_plain_run() {
    for name in ["calypso-handoff", "pvm-handoff", "lost-wakeup-fixture"] {
        let sc = model::scenario(name).expect("known scenario");
        let (guided, limit, decisions) = model::run_schedule(&sc, 1, &[]);
        assert!(!decisions.is_empty(), "{name}: the oracle was never asked");
        let (mut plain, plain_limit) = (sc.build)(1);
        assert_eq!(limit, plain_limit, "{name}");
        plain.run_until_idle(limit);
        assert_eq!(guided.trace().render(), plain.trace().render(), "{name}");
        assert_eq!(guided.kernel_stats(), plain.kernel_stats(), "{name}");
        assert_eq!(guided.now(), plain.now(), "{name}");
    }
}

/// The exact exploration the default budgets give, so a kernel change
/// that perturbs batch order or fingerprints shows up as a count.
#[test]
fn default_exploration_counts_are_pinned() {
    for (name, mode, schedules, states, choice_points) in [
        ("calypso-handoff", Mode::Dpor, 3, 12, 36),
        ("calypso-handoff", Mode::Naive, 13, 12, 156),
        ("pvm-handoff", Mode::Dpor, 8, 21, 152),
        ("pvm-handoff", Mode::Naive, 23, 21, 437),
    ] {
        let (_, r) = run(name, mode);
        assert_eq!(
            (r.schedules_executed, r.states_seen, r.choice_points),
            (schedules, states, choice_points),
            "{name} [{}]",
            mode.as_str()
        );
    }
}

#[test]
fn dpor_explores_fewer_schedules_than_naive() {
    for name in ["calypso-handoff", "pvm-handoff"] {
        let (_, dpor) = run(name, Mode::Dpor);
        let (_, naive) = run(name, Mode::Naive);
        assert!(
            dpor.schedules_executed < naive.schedules_executed,
            "{name}: DPOR must beat naive enumeration, got {} vs {}",
            dpor.schedules_executed,
            naive.schedules_executed
        );
        assert_eq!(
            dpor.violations.len(),
            naive.violations.len(),
            "{name}: both modes must agree on the verdict"
        );
    }
}

#[test]
fn pvm_handoff_is_clean_under_every_interleaving() {
    let (_, dpor) = run("pvm-handoff", Mode::Dpor);
    assert!(
        dpor.violations.is_empty(),
        "pvm handoff is clean under every interleaving: {:#?}",
        dpor.violations
    );
}

#[test]
fn seeded_lost_wakeup_is_found_and_replays_identically() {
    let (sc, dpor) = run("lost-wakeup-fixture", Mode::Dpor);
    let lost: Vec<_> = dpor
        .violations
        .iter()
        .filter(|v| v.check == "lost-wakeup")
        .collect();
    assert!(
        !lost.is_empty(),
        "DPOR must find the seeded lost wakeup, got {:#?}",
        dpor.violations
    );
    // FIFO (the empty schedule) must NOT hit the bug: it takes flipping
    // the tie to lose the wake.
    let (fifo_failures, _) = model::replay(&sc, 1, &[]);
    assert!(
        fifo_failures.is_empty(),
        "the FIFO order of the fixture is correct; bug requires a flipped \
         tie: {fifo_failures:#?}"
    );
    // The counterexample's .sched round-trips and replays the *identical*
    // failing trace, bit for bit.
    let v = lost[0];
    let text = schedule_to_string("lost-wakeup-fixture", 1, &v.schedule);
    let parsed = parse_schedule(&text).expect("well-formed schedule file");
    assert_eq!(parsed, v.schedule, ".sched round-trip");
    let (failures, trace) = model::replay(&sc, 1, &parsed);
    assert_eq!(
        trace, v.trace,
        "replaying the schedule must reproduce the counterexample trace \
         bit-identically"
    );
    assert!(
        failures.iter().any(|(check, _)| check == "lost-wakeup"),
        "replay must re-detect the lost wakeup: {failures:#?}"
    );
    assert!(
        failures.iter().any(|(check, _)| check == "deadlock"),
        "the lost wakeup leaves the world deadlocked: {failures:#?}"
    );
}

#[test]
fn fixed_fixture_is_clean_under_every_interleaving() {
    for mode in [Mode::Dpor, Mode::Naive] {
        let (_, report) = run("lost-wakeup-fixed", mode);
        assert!(
            report.violations.is_empty(),
            "latching waiter survives every interleaving [{}]: {:#?}",
            mode.as_str(),
            report.violations
        );
        assert!(
            report.states_seen > 1,
            "the fixed fixture still has the same race to explore"
        );
    }
}

#[test]
fn naive_mode_also_finds_the_seeded_bug() {
    let (_, naive) = run("lost-wakeup-fixture", Mode::Naive);
    assert!(
        naive
            .violations
            .iter()
            .any(|v| v.check == "lost-wakeup" || v.check == "deadlock"),
        "naive enumeration covers the flipped tie too"
    );
}

#[test]
fn exploration_is_deterministic() {
    let (_, a) = run("calypso-handoff", Mode::Dpor);
    let (_, b) = run("calypso-handoff", Mode::Dpor);
    assert_eq!(a.schedules_executed, b.schedules_executed);
    assert_eq!(a.states_seen, b.states_seen);
    assert_eq!(a.choice_points, b.choice_points);
}

#[test]
fn schedule_budget_truncates_cleanly() {
    let sc = model::scenario("pvm-handoff").expect("known scenario");
    let cfg = ExploreConfig {
        mode: Mode::Naive,
        max_schedules: 2,
        ..ExploreConfig::default()
    };
    let report = explore(&sc, &cfg);
    assert_eq!(report.schedules_executed, 2);
    assert!(!report.complete);
    assert_eq!(report.truncated_by, Some("max_schedules"));
}
