//! `bench_report` — machine-readable kernel/scenario benchmark baseline.
//!
//! Runs the kernel microbenchmarks plus the Table-2 and utilization
//! scenarios, fanning independent reps across threads (one deterministic
//! `SimRng` stream per rep), and emits:
//!
//! * `BENCH_kernel.json` — events/sec, wall ms, peak queue depth per
//!   scenario (the simulator's own performance), plus a `metrics`
//!   section (the sampled metrics registry from one profiled
//!   reallocation run — grants, reclaims, queue depths, allocation
//!   latency, `prof.*` dispatch accounting), a `profile` section (the
//!   kernel self-profiler's per-behavior/per-payload wall-time tables
//!   and the critical-path leg percentiles + blame, DESIGN.md §16), and
//!   `host` provenance (CPU model, core count);
//! * `BENCH_table2.json` — the paper-shaped Table 2 rows in simulated
//!   seconds, alongside the harness wall-clock cost of producing them;
//! * `BENCH_parallel.json` — the timer-storm scenario swept across kernel
//!   shard × worker-thread configurations, with each report row carrying
//!   its `shards` and `threads` provenance and a speedup-vs-serial
//!   summary. Lanes dispatch on worker threads now (DESIGN.md §17) and
//!   every configuration replays the serial run byte-identically, so the
//!   sweep measures real wall-clock parallelism: one-thread rows
//!   (`threads=1`) run every window inline and keep the synchronizer's
//!   overhead visible, threaded rows show what the same windows cost
//!   when the lanes run concurrently. Read the speedups next to
//!   `host.cores` — a single-core host bounds wall parallelism at 1x by
//!   construction.
//!
//! ```text
//! bench_report [reps] [--shards=1,2,4,8]
//!   RB_BENCH_SAMPLES=<n>    override rep count (CI smoke uses 2)
//!   RB_BENCH_SHARDS=<list>  shard counts for BENCH_parallel.json
//!                           (comma-separated; same as --shards=)
//!   RB_BENCH_THREADS=<n>    worker-thread cap for the threaded rows
//!                           (default 4)
//!   RB_BENCH_OUT=<dir>      output directory (default: current dir)
//!   RB_BENCH_BASELINE=<f>   compare against a previous BENCH_kernel.json;
//!                           exit 1 if any baseline scenario is missing or
//!                           its median events/sec falls below
//!                           RB_BENCH_MIN_RATIO (default 1.0)
//! ```

use rb_bench::json::Json;
use rb_bench::report::{
    check_against_baseline, render_scenario_line, report_json, run_scenario, RepOutcome, Scenario,
};
use rb_simcore::{EventQueue, SimTime};
use rb_workloads::storm::{self, StormConfig};
use rb_workloads::table2;
use rb_workloads::utilization::{run as run_utilization, UtilizationConfig};
use std::process::ExitCode;

/// Pure event-queue churn: push/pop `n` pseudo-shuffled events.
fn queue_scenario(n: u64) -> Scenario {
    Scenario::new(format!("kernel.event_queue.push_pop_{n}"), move |seed| {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(
                SimTime((i.wrapping_mul(2_654_435_761) ^ seed) % 1_000_000),
                i,
            );
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            debug_assert!(at >= last);
            last = at;
        }
        RepOutcome {
            queue: q.stats(),
            sim_seconds: last.as_secs_f64(),
        }
    })
}

fn table2_scenario(name: &str, plain: bool) -> Scenario {
    Scenario::new(name, move |seed| {
        let out = if plain {
            table2::plain_onto_occupied(seed, table2::loop_cmd())
        } else {
            table2::prime_with_realloc(seed, table2::loop_cmd())
        };
        RepOutcome {
            queue: out.queue,
            sim_seconds: out.elapsed_secs,
        }
    })
}

fn utilization_scenario(hours: f64) -> Scenario {
    Scenario::new(format!("utilization.{hours:.0}h"), move |seed| {
        let report = run_utilization(&UtilizationConfig {
            hours,
            seed,
            ..Default::default()
        });
        RepOutcome {
            queue: report.queue,
            sim_seconds: report.simulated_hours * 3600.0,
        }
    })
}

/// The timer-storm scenario on an explicit shard × worker-thread
/// configuration — the `BENCH_parallel.json` family (DESIGN.md §17). The
/// storm is machine-local-dominant (64 machines, 50µs timers + 20µs CPU
/// bursts, occasional ring pings), so a conservative window holds dense
/// per-lane work and worker threads have something real to spread across
/// cores. Every configuration replays the serial run byte-identically;
/// only the wall clock varies.
fn parallel_scenario(shards: usize, threads: usize) -> Scenario {
    Scenario::new(format!("parallel.storm.s{shards}t{threads}"), move |seed| {
        let report = storm::run(&StormConfig {
            seed,
            shards,
            threads,
            ..StormConfig::default()
        });
        RepOutcome {
            queue: report.queue,
            sim_seconds: report.sim_seconds,
        }
    })
    .with_shards(shards)
    .with_threads(threads)
}

/// Shard counts for the parallel sweep: `--shards=1,2` / `RB_BENCH_SHARDS`
/// override the default {1, 2, 4, 8}. A leading 1 is always included so
/// the speedup baseline exists.
fn shard_counts() -> Vec<usize> {
    let spec = std::env::args()
        .find_map(|a| a.strip_prefix("--shards=").map(str::to_string))
        .or_else(|| std::env::var("RB_BENCH_SHARDS").ok());
    let mut counts: Vec<usize> = match spec {
        Some(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect(),
        None => vec![1, 2, 4, 8],
    };
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Worker-thread cap for the threaded rows (`RB_BENCH_THREADS`, default 4).
fn thread_cap() -> usize {
    std::env::var("RB_BENCH_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// The sweep rows: for every shard count, a one-thread row (`threads=1`,
/// the synchronizer's overhead) and — where it differs — a threaded row
/// (`threads = min(shards, cap)`, the measured parallel dispatch).
fn parallel_configs() -> Vec<(usize, usize)> {
    let cap = thread_cap();
    let mut rows = Vec::new();
    for n in shard_counts() {
        rows.push((n, 1));
        let t = n.min(cap);
        if t > 1 {
            rows.push((n, t));
        }
    }
    rows
}

fn out_path(file: &str) -> std::path::PathBuf {
    let dir = std::env::var("RB_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    std::path::Path::new(&dir).join(file)
}

fn write_doc(file: &str, doc: &Json) {
    let path = out_path(file);
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| {
        panic!("writing {}: {e}", path.display());
    });
    println!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let reps = rb_bench::effective_samples(rb_bench::arg_usize(rb_bench::DEFAULT_REPS));
    const BASE_SEED: u64 = 7_000;

    // ---- BENCH_kernel.json -------------------------------------------
    let scenarios = vec![
        queue_scenario(100_000),
        table2_scenario("table2.plain_loop", true),
        table2_scenario("table2.realloc_loop", false),
        utilization_scenario(1.0),
    ];
    let mut reports = Vec::new();
    for s in &scenarios {
        let r = run_scenario(s, BASE_SEED, reps);
        println!("{}", render_scenario_line(&r));
        reports.push(r);
    }
    // One reallocation run in observability trim — now with the kernel
    // self-profiler on: the sampled metrics registry (counters/gauges/
    // latency histograms, including prof.*) rides along in the kernel
    // report, so a baseline captures not just throughput but what the
    // cluster *did* — grants, reclaims, queue depths, alloc latency —
    // and where the host's dispatch time went while doing it.
    let (_outcome, prof_trace, metrics, profile) =
        table2::prime_with_realloc_profiled(BASE_SEED, table2::loop_cmd());
    // Critical-path provenance over the same run: per-leg p50/p90/p99/
    // p99.9 percentiles plus the component blame table (DESIGN.md §16).
    let critpath = match rb_simcore::parse_rendered(&prof_trace) {
        Ok(events) => rb_analyze::critpath_json(&events),
        Err(e) => Json::obj().set("error", format!("trace parse failed: {e}")),
    };
    let profile_doc = Json::obj()
        .set("enabled", true)
        .set("kernel", profile)
        .set("critpath", critpath);
    // Parallel-safety provenance: the rbrace static Send-readiness
    // summary of the shipped tree, plus a happens-before check over a
    // 4-shard hb-traced realloc run — a baseline records not just how
    // fast the kernel was but that the run it measured was race-free.
    let rbrace_doc = {
        let send = rb_analyze::sendcheck::run_sendcheck(&rb_analyze::sendcheck::SendConfig::new(
            rb_analyze::check::workspace_root(),
        ));
        let (_, hb_cluster) = table2::prime_with_realloc_hb(BASE_SEED, table2::loop_cmd(), 4);
        let hb = rb_analyze::hb::check_recorded(
            hb_cluster.world.trace().events(),
            &rb_analyze::hb::HbConfig::default(),
        );
        let err = |e: String| Json::obj().set("error", e.as_str());
        Json::obj()
            .set("static", send.map_or_else(err, |r| r.summary_json()))
            .set("hb", hb.map_or_else(err, |r| r.summary_json()))
    };
    let kernel_doc = report_json("rb-bench/kernel/v1", reps, &reports)
        .set("metrics", metrics)
        .set("profile", profile_doc)
        .set("rbrace", rbrace_doc);
    write_doc("BENCH_kernel.json", &kernel_doc);

    // ---- BENCH_table2.json -------------------------------------------
    let rows = table2::run(reps);
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .set("operation", r.operation.as_str())
                .set("sim_seconds_median", r.seconds)
        })
        .collect();
    // Throughput context for the same scenario family.
    let table2_scenarios: Vec<&rb_bench::report::ScenarioReport> = reports
        .iter()
        .filter(|r| r.name.starts_with("table2."))
        .collect();
    let table2_doc = Json::obj()
        .set("schema", "rb-bench/table2/v1")
        .set("generated_by", "rb-bench bench_report")
        .set("git_rev", rb_bench::report::git_rev())
        .set("samples", reps)
        .set("reps", reps)
        .set("rows", Json::Arr(rows_json))
        .set(
            "scenarios",
            Json::Arr(
                table2_scenarios
                    .iter()
                    .map(|r| rb_bench::report::scenario_json(r))
                    .collect(),
            ),
        );
    write_doc("BENCH_table2.json", &table2_doc);

    // ---- BENCH_parallel.json -----------------------------------------
    // The shard × thread sweep over the timer storm. Every configuration
    // replays the serial run byte-identically (scheduler_equiv and the
    // storm's own tests prove it), so the rows isolate cost and gain:
    // one-thread rows (threads=1) price the synchronizer, threaded rows
    // measure lanes dispatching on worker threads (DESIGN.md §17).
    let parallel_reports: Vec<_> = parallel_configs()
        .into_iter()
        .map(|(n, t)| {
            let r = run_scenario(&parallel_scenario(n, t), BASE_SEED, reps);
            println!("{}", render_scenario_line(&r));
            r
        })
        .collect();
    let serial_eps = parallel_reports
        .iter()
        .find(|r| r.shards == 1)
        .map(|r| r.events_per_sec.median())
        .expect("parallel_configs always includes the serial row");
    let speedups: Vec<Json> = parallel_reports
        .iter()
        .map(|r| {
            Json::obj()
                .set("shards", r.shards)
                .set("threads", r.threads)
                .set("events_per_sec_median", r.events_per_sec.median())
                .set("speedup_vs_serial", r.events_per_sec.median() / serial_eps)
        })
        .collect();
    let parallel_doc = report_json("rb-bench/parallel/v2", reps, &parallel_reports)
        .set("speedups", Json::Arr(speedups))
        .set(
            "note",
            "lanes dispatch on worker threads (DESIGN.md \u{a7}17); every row \
             replays the serial run byte-identically, so speedup_vs_serial is \
             measured wall parallelism. Interpret it next to host.cores: a \
             single-core host bounds wall speedup at ~1x. threads=1 rows run \
             the same windows inline on the calling thread.",
        );
    write_doc("BENCH_parallel.json", &parallel_doc);

    // ---- regression guard --------------------------------------------
    if let Ok(baseline_path) = std::env::var("RB_BENCH_BASELINE") {
        let min_ratio: f64 = std::env::var("RB_BENCH_MIN_RATIO")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_report: cannot read baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = match rb_bench::json::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_report: bad baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        match check_against_baseline(&kernel_doc, &baseline, min_ratio) {
            Ok(lines) => {
                println!("baseline comparison ({baseline_path}, required {min_ratio:.2}x):");
                for l in lines {
                    println!("  {l}");
                }
            }
            Err(violations) => {
                eprintln!("bench_report: regression guard FAILED:");
                for v in violations {
                    eprintln!("  {v}");
                }
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
