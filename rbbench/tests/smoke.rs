//! The library entry point at reduced sizes: every metric `BENCHMARK.json`
//! names is emitted with its unit on every workload, and a shape-check
//! miss fails the run.

use rb_benchmark::{run, spec, Checks, Config, Report, Sizes, Workload};
use rb_simcore::{Duration, Json};

const SMALL: Sizes = Sizes {
    paper_experiments: 2,
    paper_hours: 0.5,
    wide_machines: 40,
    wide_hours: 0.05,
    storm_run_for: Duration::from_millis(50),
    fig7_curves: 1,
};

fn small(workloads: Vec<Workload>, trace: bool, checks: Checks) -> Report {
    let mut cfg = Config::new(workloads, 11, 0.001, trace);
    cfg.sizes = SMALL;
    cfg.checks = checks;
    run(&cfg)
}

fn parse_line(line: &str) -> Json {
    let doc = rb_simcore::json::parse(line).expect("result line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("result line is not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    doc
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let spec = spec();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names, "BENCHMARK.json workloads");

    let report = small(Workload::ALL.to_vec(), true, Checks::default());
    assert!(report.correct(), "{}", report.render());
    for w in &report.workloads {
        assert!(w.reps >= 5);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (value, unit) = w
                .metric(&m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.workload.name(), m.name));
            assert_eq!(unit, m.unit, "{} {}", w.workload.name(), m.name);
            assert!(
                value.is_finite(),
                "{} {} = {value}",
                w.workload.name(),
                m.name
            );
        }
        let sim: Vec<&str> = w.sim.iter().map(|r| r.name.as_str()).collect();
        let expected: &[&str] = match w.workload {
            Workload::PaperSweep | Workload::WideUtil => &[
                "sim_idleness_pct",
                "sim_jobs_unfinished",
                "sim_jobs_completed",
            ],
            Workload::Fig7Sweep => &["sim_realloc_s_per_machine", "sim_realloc_r2_min"],
            Workload::StormS2t2 => &[],
        };
        assert_eq!(sim, expected, "{}", w.workload.name());
    }

    // The traced line carries the per-layer metrics, the untraced one the
    // end-to-end ones, each keyed `workload.metric` when several ran.
    for (traced, metrics) in [(true, &spec.per_layer), (false, &spec.end_to_end)] {
        let line = Report {
            trace: traced,
            ..report.clone()
        }
        .result_line(&spec);
        let doc = parse_line(&line);
        for w in &names {
            for m in metrics {
                let key = format!("{w}.{}", m.name);
                let entry = doc.path("metrics").and_then(|d| d.get(&key));
                let unit = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
                assert_eq!(unit, Some(m.unit.as_str()), "{key}");
            }
        }
    }

    // The traced rep adds up.
    let storm = &report.workloads[2];
    let v = |name: &str| storm.metric(name).expect("emitted").0;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(close(
        v("simnet.dispatch_s") + v("simnet.kernel_s"),
        v("simnet.run_s")
    ));
    assert!(close(
        v("simnet.lane.max_s") + v("simnet.barrier_s"),
        v("simnet.run_s")
    ));
}

#[test]
fn a_shape_check_miss_fails_the_run() {
    let spec = spec();
    let clean = small(vec![Workload::PaperSweep], false, Checks::default());
    assert_eq!(clean.failed(), 0);
    assert_eq!(clean.exit_code(), 0);

    // Nothing can be idle less than 0 %: every experiment misses.
    let strict = Checks {
        max_idleness: 0.0,
        ..Checks::default()
    };
    let missed = small(vec![Workload::PaperSweep], false, strict);
    assert!(missed.failed() > 0);
    let frac = |r: &Report| r.failed() as f64 / r.attempted() as f64;
    assert!(frac(&missed) > frac(&clean));
    assert_ne!(missed.exit_code(), 0);
    let doc = parse_line(&missed.result_line(&spec));
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        doc.get("failed").and_then(Json::as_f64),
        Some(missed.failed() as f64)
    );
}
