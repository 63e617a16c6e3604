//! Machine-readable benchmark reports (`BENCH_kernel.json`,
//! `BENCH_table2.json`).
//!
//! Each scenario is a deterministic closure from a seed to a finished
//! simulation; the harness fans independent repetitions across OS threads
//! (`std::thread::scope`), one `SimRng`-seeded world per rep, and reduces
//! wall-clock timings plus kernel event counters into min/median/mean/max
//! summaries. The JSON artifacts give the perf trajectory a baseline: CI
//! re-runs them in reduced-sample mode and the regression guard compares
//! median events/sec against a committed reference.

use crate::json::Json;
use rb_simcore::{QueueStats, Summary};
use std::time::Instant;

/// The git revision the report was produced from: `RB_GIT_REV` when set
/// (CI passes the exact SHA it checked out), else `git rev-parse --short
/// HEAD`, else `"unknown"` (e.g. a source tarball without `.git`).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("RB_GIT_REV") {
        if !rev.trim().is_empty() {
            return rev.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host provenance: the machine the numbers were measured on. CPU model
/// comes from `/proc/cpuinfo` (Linux; `"unknown"` elsewhere — no extra
/// dependencies), core count from the scheduler. Wall-clock medians are
/// meaningless without this next to them.
pub fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj()
        .set("cpu_model", cpu_model.as_str())
        .set("cores", cores)
        .set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH)
}

/// What one repetition of a scenario produced (wall time is measured by the
/// harness around the call).
#[derive(Debug, Clone, Copy)]
pub struct RepOutcome {
    /// Kernel events dispatched during the rep.
    pub queue: QueueStats,
    /// Virtual seconds the scenario simulated.
    pub sim_seconds: f64,
}

/// A named deterministic scenario: seed in, finished run out.
pub struct Scenario {
    pub name: String,
    /// Kernel event shards the scenario runs with (1 = serial kernel) —
    /// provenance for the `BENCH_parallel` family, recorded in the JSON.
    pub shards: usize,
    /// Worker threads the scenario's kernel dispatches with (1 = the
    /// coordinator dispatches inline). Recorded in the JSON; setting it
    /// via [`Scenario::with_threads`] also makes the harness run reps
    /// one at a time so the workers own the host's cores.
    pub threads: usize,
    /// Run reps sequentially instead of fanning them across host threads.
    pub exclusive: bool,
    pub run: Box<dyn Fn(u64) -> RepOutcome + Sync>,
}

impl Scenario {
    pub fn new(name: impl Into<String>, run: impl Fn(u64) -> RepOutcome + Sync + 'static) -> Self {
        Scenario {
            name: name.into(),
            shards: 1,
            threads: 1,
            exclusive: false,
            run: Box::new(run),
        }
    }

    /// Tag the scenario with the shard count it runs under.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Tag the scenario with the worker-thread count its kernel dispatches
    /// with, and switch the harness to sequential (exclusive) reps: a
    /// threaded rep must not share the host's cores with its siblings, or
    /// the wall clocks measure contention instead of the kernel. Tag the
    /// serial row of a speedup sweep with `with_threads(1)` too, so every
    /// row is measured the same way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.exclusive = true;
        self
    }
}

/// Reduced measurements of one scenario across reps.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub name: String,
    pub shards: usize,
    pub threads: usize,
    pub reps: usize,
    pub wall_ms: Summary,
    pub events_per_sec: Summary,
    /// Dispatched events in the first rep (deterministic per seed).
    pub events_dispatched: u64,
    pub peak_queue_depth: usize,
    pub sim_seconds: f64,
}

/// Run `reps` independent repetitions of a scenario, fanned across up to
/// `available_parallelism` threads. Rep `i` runs with seed `base_seed + i`,
/// so every rep is an independent deterministic `SimRng` stream and the
/// fan-out cannot perturb simulation results — only wall clocks differ.
pub fn run_scenario(scenario: &Scenario, base_seed: u64, reps: usize) -> ScenarioReport {
    let reps = reps.max(1);
    let lanes = if scenario.exclusive {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(reps)
    };
    let mut outcomes: Vec<Option<(f64, RepOutcome)>> = Vec::new();
    outcomes.resize_with(reps, || None);

    // Warm-up rep (untimed): faults in code paths and allocators.
    let _ = (scenario.run)(base_seed);

    std::thread::scope(|scope| {
        for (lane, chunk) in outcomes.chunks_mut(reps.div_ceil(lanes)).enumerate() {
            let run = &scenario.run;
            let first_rep = lane * reps.div_ceil(lanes);
            scope.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let seed = base_seed + (first_rep + i) as u64;
                    let t0 = Instant::now();
                    let outcome = run(seed);
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    *slot = Some((wall_ms, outcome));
                }
            });
        }
    });

    let measured: Vec<(f64, RepOutcome)> =
        outcomes.into_iter().map(|o| o.expect("rep ran")).collect();
    let wall_ms = Summary::from_samples(measured.iter().map(|(w, _)| *w).collect());
    let events_per_sec = Summary::from_samples(
        measured
            .iter()
            .map(|(w, o)| o.queue.dispatched as f64 / (w / 1e3).max(1e-9))
            .collect(),
    );
    let first = measured[0].1;
    ScenarioReport {
        name: scenario.name.clone(),
        shards: scenario.shards,
        threads: scenario.threads,
        reps,
        wall_ms,
        events_per_sec,
        events_dispatched: first.queue.dispatched,
        peak_queue_depth: measured
            .iter()
            .map(|(_, o)| o.queue.peak_depth)
            .max()
            .unwrap_or(0),
        sim_seconds: first.sim_seconds,
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj()
        .set("min", s.min())
        .set("median", s.median())
        .set("mean", s.mean())
        .set("max", s.max())
}

/// One scenario as a JSON object.
pub fn scenario_json(r: &ScenarioReport) -> Json {
    Json::obj()
        .set("name", r.name.as_str())
        .set("shards", r.shards)
        .set("threads", r.threads)
        .set("samples", r.reps)
        .set("reps", r.reps)
        .set("wall_ms", summary_json(&r.wall_ms))
        .set("events_per_sec", summary_json(&r.events_per_sec))
        .set("events_dispatched", r.events_dispatched)
        .set("peak_queue_depth", r.peak_queue_depth)
        .set("sim_seconds", r.sim_seconds)
}

/// Assemble a whole report document.
pub fn report_json(schema: &str, reps: usize, scenarios: &[ScenarioReport]) -> Json {
    Json::obj()
        .set("schema", schema)
        .set("generated_by", "rb-bench bench_report")
        .set("git_rev", git_rev())
        .set("host", host_json())
        .set("samples", reps)
        .set("reps", reps)
        .set(
            "scenarios",
            Json::Arr(scenarios.iter().map(scenario_json).collect()),
        )
}

/// A human-readable one-liner per scenario (printed alongside the JSON).
pub fn render_scenario_line(r: &ScenarioReport) -> String {
    format!(
        "scenario {:<44} wall median {:>9.3} ms   events/sec median {:>12.0}   events {:>9}   peak depth {:>6}",
        r.name,
        r.wall_ms.median(),
        r.events_per_sec.median(),
        r.events_dispatched,
        r.peak_queue_depth
    )
}

/// Compare a freshly generated report against a baseline document: every
/// baseline scenario must still be produced and keep
/// `median events/sec >= min_ratio × baseline`. Returns human-readable
/// comparison lines, or the violations.
pub fn check_against_baseline(
    current: &Json,
    baseline: &Json,
    min_ratio: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut violations = Vec::new();
    let empty: Vec<Json> = Vec::new();
    let base_scenarios = baseline
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let cur_scenarios = current
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    fn name_of(s: &Json) -> Option<&str> {
        s.get("name").and_then(Json::as_str)
    }
    for name in base_scenarios.iter().filter_map(name_of) {
        if !cur_scenarios.iter().any(|c| name_of(c) == Some(name)) {
            violations.push(format!("{name}: in the baseline but not produced"));
        }
    }
    for cur in cur_scenarios {
        let Some(name) = name_of(cur) else {
            continue;
        };
        let Some(base) = base_scenarios.iter().find(|b| name_of(b) == Some(name)) else {
            lines.push(format!("{name}: no baseline entry (new scenario)"));
            continue;
        };
        let (Some(cur_eps), Some(base_eps)) = (
            cur.path("events_per_sec.median").and_then(Json::as_f64),
            base.path("events_per_sec.median").and_then(Json::as_f64),
        ) else {
            violations.push(format!("{name}: missing events_per_sec.median"));
            continue;
        };
        let ratio = cur_eps / base_eps.max(1e-9);
        let line =
            format!("{name}: {cur_eps:.0} vs baseline {base_eps:.0} events/sec ({ratio:.2}x)");
        if ratio < min_ratio {
            violations.push(format!("{line} < required {min_ratio:.2}x"));
        } else {
            lines.push(line);
        }
    }
    if violations.is_empty() {
        Ok(lines)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, eps: f64) -> Json {
        Json::obj()
            .set("name", name)
            .set("events_per_sec", Json::obj().set("median", eps))
    }

    fn doc(scenarios: Vec<Json>) -> Json {
        Json::obj().set("scenarios", Json::Arr(scenarios))
    }

    #[test]
    fn scenario_reps_fan_out_deterministically() {
        let s = Scenario::new("spin", |seed| {
            let mut rng = rb_simcore::SimRng::seeded(seed);
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(rng.uniform_u64(0, 1 << 40));
            }
            std::hint::black_box(acc);
            RepOutcome {
                queue: QueueStats {
                    scheduled: 10_000,
                    dispatched: 10_000,
                    peak_depth: 7,
                    depth: 0,
                },
                sim_seconds: 1.0,
            }
        });
        let r = run_scenario(&s, 1, 4);
        assert_eq!(r.reps, 4);
        assert_eq!(r.events_dispatched, 10_000);
        assert_eq!(r.peak_queue_depth, 7);
        assert!(r.events_per_sec.median() > 0.0);
        let j = scenario_json(&r);
        assert_eq!(j.get("name").unwrap().as_str(), Some("spin"));
        assert_eq!(j.get("samples").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn report_doc_carries_provenance() {
        let doc = report_json("rb-bench/test/v1", 3, &[]);
        let rev = doc.get("git_rev").and_then(Json::as_str).unwrap();
        assert!(!rev.is_empty());
        assert_eq!(doc.get("samples").and_then(Json::as_f64), Some(3.0));
        // Host provenance rides every report: cpu model (may be
        // "unknown" off-Linux) and a positive core count.
        assert!(doc.path("host.cpu_model").and_then(Json::as_str).is_some());
        assert!(doc.path("host.cores").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn git_rev_honors_env_override() {
        // Set + restore around the call: tests in this binary run in one
        // process and `git_rev` reads the environment.
        std::env::set_var("RB_GIT_REV", "cafef00d");
        let rev = git_rev();
        std::env::remove_var("RB_GIT_REV");
        assert_eq!(rev, "cafef00d");
    }

    #[test]
    fn baseline_guard_flags_regressions() {
        let base = doc(vec![fake("a", 1000.0), fake("b", 1000.0)]);
        let good = doc(vec![fake("a", 2000.0), fake("b", 990.0)]);
        assert!(check_against_baseline(&good, &base, 0.9).is_ok());
        let bad = doc(vec![fake("a", 400.0), fake("b", 1000.0)]);
        let err = check_against_baseline(&bad, &base, 0.9).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("0.40x"));
    }

    #[test]
    fn baseline_guard_flags_dropped_scenarios() {
        let base = doc(vec![fake("a", 1000.0), fake("gone", 1000.0)]);
        let cur = doc(vec![fake("a", 1000.0)]);
        let err = check_against_baseline(&cur, &base, 0.5).unwrap_err();
        assert_eq!(err, ["gone: in the baseline but not produced"]);
    }

    #[test]
    fn new_scenarios_pass_without_baseline() {
        let base = doc(vec![]);
        let cur = doc(vec![fake("fresh", 10.0)]);
        let lines = check_against_baseline(&cur, &base, 1.0).unwrap();
        assert!(lines[0].contains("no baseline entry"));
    }
}
