//! The bench-side drivers reproduce the repository's own experiment entry
//! points exactly, and tracing a rep changes none of its outputs.

use rb_benchmark::drivers::{
    fig7_curve, fig7_point, storm_run, util_experiment, Probe, StormParams, UtilParams,
    FIG7_MACHINES,
};
use rb_simcore::Duration;
use rb_workloads::fig7;
use rb_workloads::storm::{self, StormConfig};
use rb_workloads::utilization::{self, UtilizationConfig};

const PAPER_HOUR: UtilParams = UtilParams {
    machines: 8,
    arrival_period_secs: 100,
    hours: 1.0,
};

#[test]
fn util_driver_matches_utilization_run() {
    let bench = util_experiment(&PAPER_HOUR, 11, &mut Probe::default());
    let repo = utilization::run(&UtilizationConfig {
        hours: 1.0,
        seed: 11,
        ..Default::default()
    });
    assert_eq!(bench.idleness, repo.idleness);
    assert_eq!(bench.submitted, repo.seq_jobs_submitted);
    assert_eq!(bench.completed, repo.seq_jobs_completed);
    assert_eq!(bench.failed, repo.seq_jobs_failed);
    assert_eq!(bench.queue, repo.queue);
}

#[test]
fn fig7_driver_matches_realloc_k_machines() {
    let (series, _) = fig7_curve(11, &mut Probe::default());
    let repo = fig7::run(1..=FIG7_MACHINES, FIG7_MACHINES, 11);
    assert_eq!(series.points, repo.points);
}

#[test]
fn storm_driver_matches_storm_run() {
    for (shards, threads) in [(1, 1), (2, 2)] {
        let params = StormParams {
            machines: 8,
            run_for: Duration::from_millis(20),
            shards,
            threads,
        };
        let (queue, trace) = storm_run(&params, 9, &mut Probe::traced());
        let repo = storm::run(&StormConfig {
            seed: 9,
            machines: 8,
            run_for: Duration::from_millis(20),
            shards,
            threads,
            trace: true,
            ..StormConfig::default()
        });
        assert_eq!(queue, repo.queue, "shards={shards} threads={threads}");
        assert_eq!(trace, repo.trace, "shards={shards} threads={threads}");
    }
}

#[test]
fn traced_reps_give_untraced_outputs() {
    let mut traced = Probe::traced();
    assert_eq!(
        util_experiment(&PAPER_HOUR, 11, &mut traced),
        util_experiment(&PAPER_HOUR, 11, &mut Probe::default())
    );
    assert_eq!(
        fig7_point(4, 15, &mut traced),
        fig7_point(4, 15, &mut Probe::default())
    );
    let storm = StormParams {
        machines: 8,
        run_for: Duration::from_millis(20),
        shards: 2,
        threads: 2,
    };
    assert_eq!(
        storm_run(&storm, 9, &mut traced).0,
        storm_run(&storm, 9, &mut Probe::default()).0
    );
    // The traced probe saw every world: the layers are non-empty.
    assert!(traced.run_s > 0.0 && traced.build_s > 0.0);
}
