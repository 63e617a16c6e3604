//! Acceptance tests for the `rbrace hb` happens-before checker: the
//! standing sharded workloads (calypso testbed, Table 2 realloc) are
//! provably race-free at 2 and 4 shards, the seeded racing fixture is
//! flagged, and the HB records are a pure overlay — stripping them
//! yields the exact trace an hb-less run records.

use rb_analyze::hb::{self, HbConfig, HbKind};
use rb_broker::DefaultPolicy;
use rb_simcore::{MetricsRegistry, SimTime};
use rb_workloads::scenarios::{
    await_calypso_workers, broker_testbed_hb, broker_testbed_sharded, submit_endless_calypso,
};
use rb_workloads::table2::prime_with_realloc_hb;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The busy calypso scenario from the sharded-equivalence suite, with HB
/// records on. Returns the rendered trace.
fn calypso_hb_trace(shards: usize) -> String {
    let mut c = broker_testbed_hb(4, 42, Box::new(DefaultPolicy::default()), shards);
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    c.world.trace().render()
}

#[test]
fn calypso_runs_are_race_free_at_2_and_4_shards() {
    for shards in [2, 4] {
        let trace = calypso_hb_trace(shards);
        let report = hb::check_trace(&trace, &HbConfig::default()).expect("hb records present");
        assert!(
            report.is_clean(),
            "{shards} shards: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
        );
        // The checker did real work: events, windows, and all three edge
        // kinds are present.
        assert!(report.stats.events > 1000, "{:?}", report.stats);
        assert!(report.stats.windows > 100);
        assert_eq!(report.stats.lanes, shards);
        assert!(report.stats.po_edges > 0);
        assert!(report.stats.cause_edges > 0);
        assert!(report.stats.barrier_edges > 0);
        assert!(report.stats.pairs_checked > 0);
    }
}

#[test]
fn realloc_run_is_race_free() {
    let (_, c) = prime_with_realloc_hb(7, rb_proto::CommandSpec::Loop { cpu_millis: 3_000 }, 4);
    let report =
        hb::check_recorded(c.world.trace().events(), &HbConfig::default()).expect("hb records");
    assert!(
        report.is_clean(),
        "{:?}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
    );
}

#[test]
fn hb_records_are_a_pure_overlay() {
    // Stripping the shard.* records from an hb-traced run leaves exactly
    // the trace the same run records without hb_trace: the HB layer
    // observes the simulation, never perturbs it.
    let with_hb = calypso_hb_trace(4);
    let mut c = broker_testbed_sharded(4, 42, Box::new(DefaultPolicy::default()), true, 4);
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    let without_hb = c.world.trace().render();

    let stripped: String = with_hb
        .lines()
        .filter(|l| !l.contains("  shard.ev ") && !l.contains("  shard.window "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, without_hb);
}

#[test]
fn seeded_fixtures_flag_and_pass() {
    let racing = hb::check_trace(&fixture("hb_racing.trace"), &HbConfig::default()).unwrap();
    assert_eq!(racing.count(HbKind::Race), 1, "{:?}", racing.findings);
    assert_eq!(racing.count(HbKind::WindowOverrun), 1);
    assert_eq!(racing.count(HbKind::DanglingCause), 1);

    let conservative =
        hb::check_trace(&fixture("hb_conservative.trace"), &HbConfig::default()).unwrap();
    assert!(
        conservative.is_clean(),
        "{:?}",
        conservative
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
    );
}

#[test]
fn sabotaged_key_streams_are_caught() {
    // Inverted fixture: seed the per-lane ID-collision bug the key-stream
    // scheme exists to prevent (two machines sharing one dispatch-key
    // origin, via the test-only `sabotage_shared_lane_keys` knob) and
    // prove the checker catches the reused dispatch identities. The same
    // world without the sabotage is clean.
    use rb_simnet::{LoopProg, ProcEnv, WorldBuilder};
    for sabotage in [false, true] {
        let mut b = WorldBuilder::new()
            .seed(5)
            .shards(2)
            .trace(true)
            .hb_trace(true)
            .sabotage_shared_lane_keys(sabotage);
        let machines = b.standard_lab(4);
        let mut w = b.build();
        for &m in &machines {
            w.spawn_user(m, Box::new(LoopProg::new(50)), ProcEnv::user_standard("u"));
        }
        w.run_until_idle(SimTime(60_000_000));
        let report =
            hb::check_recorded(w.trace().events(), &HbConfig::default()).expect("hb records");
        if sabotage {
            assert!(
                report.count(HbKind::DuplicateDispatch) > 0,
                "collision not caught: {:?}",
                report.summary_json().render()
            );
        } else {
            assert!(
                report.is_clean(),
                "{:?}",
                report
                    .findings
                    .iter()
                    .map(|f| f.render())
                    .collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn world_post_run_check_passes_clean_and_fails_missing_records() {
    // Installed on an hb-traced sharded world: passes.
    let mut c = broker_testbed_hb(2, 11, Box::new(DefaultPolicy::default()), 2);
    hb::install_hb_check(&mut c.world, false);
    submit_endless_calypso(&mut c, 2, 300);
    let limit = SimTime(c.world.now().as_micros() + 20_000_000);
    await_calypso_workers(&mut c, 2, limit);
    c.world.run_until(limit);
    c.world.run_trace_checks().expect("clean hb check");

    // Installed on a world without hb records: the check reports why.
    let mut c = broker_testbed_sharded(2, 11, Box::new(DefaultPolicy::default()), true, 2);
    hb::install_hb_check(&mut c.world, false);
    c.settle();
    let err = c.world.run_trace_checks().unwrap_err();
    assert!(err.contains("no happens-before records"), "{err}");
}

#[test]
fn metrics_export_summarizes_the_check() {
    let trace = calypso_hb_trace(2);
    let report = hb::check_trace(&trace, &HbConfig::default()).unwrap();
    let mut reg = MetricsRegistry::new();
    hb::export_hb_metrics(&report, &mut reg);
    let doc = reg.to_json().render();
    for key in ["hb.events", "hb.edges", "hb.findings"] {
        assert!(doc.contains(key), "{key} missing from {doc}");
    }
    let json = hb::report_json(&report, "calypso").render();
    assert!(json.contains("\"schema\": \"rbrace-hb/v1\""), "{json}");
    assert!(json.contains("\"ok\": true"), "{json}");
}
