//! # rb-benchmark — the repository's end-to-end benchmark
//!
//! Four workloads taken from the paper's §6.2 and Figure 7 experiments,
//! each a closed batch of fixed simulated size driven from one process:
//!
//! | workload | one rep | stresses |
//! |----------|---------|----------|
//! | `paper_sweep` | 12 §6.2 experiments (8 machines, 5 h) on seeds S… | queue, dispatch, run loop |
//! | `wide_util` | one §6.2 world on 800 machines, a job per second, 30 min | the single broker |
//! | `storm_s2t2` | 64-machine timer storm, 2 s, 2 lanes on 2 threads | lanes and the window barrier |
//! | `fig7_sweep` | 75 Figure 7 curves (k = 1…16 on 16 machines) | world set-up, rsh′ modules, reclaim |
//!
//! Each workload gets one untimed warm-up rep at a tenth of its size, then
//! timed reps (round-robin across workloads when several run) until the
//! time budget is spent, then — with tracing on — one traced rep that
//! yields the per-layer split (`layers`). Every experiment is checked: its
//! paper shape, and a digest of its simulated outputs that must repeat
//! exactly in every rep, traced or not. Metric names, units, directions
//! and bounds come from the repository's `BENCHMARK.json`.

pub mod compare;
pub mod drivers;
pub mod layers;

use drivers::{
    fig7_curve, storm_run, util_experiment, Probe, StormParams, UtilParams, FIG7_MACHINES,
    STORM_PERIOD,
};
use rb_simcore::{Duration, Json, QueueStats, Summary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The benchmark definition, compiled in from the repository root.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the median (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Host seconds of timed reps one run of the benchmark command takes.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Parse [`SPEC_JSON`]. Panics on a malformed file: it is part of the
/// build, and the crate's tests parse it.
pub fn spec() -> Spec {
    let doc = rb_simcore::json::parse(SPEC_JSON).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .to_vec()
    };
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let metrics = |key: &str| {
        list(key)
            .iter()
            .map(|m| MetricSpec {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    WideUtil,
    StormS2t2,
    Fig7Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::WideUtil,
        Workload::StormS2t2,
        Workload::Fig7Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::WideUtil => "wide_util",
            Workload::StormS2t2 => "storm_s2t2",
            Workload::Fig7Sweep => "fig7_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated size of one rep of each workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `paper_sweep`: experiments per rep, on seeds S, S+1, ….
    pub paper_experiments: u64,
    pub paper_hours: f64,
    /// `wide_util`: public machines and simulated hours.
    pub wide_machines: usize,
    pub wide_hours: f64,
    /// `storm_s2t2`: simulated run length after set-up.
    pub storm_run_for: Duration,
    /// `fig7_sweep`: curves per rep; curve i runs on seeds S+16i+k.
    pub fig7_curves: u64,
}

impl Sizes {
    /// The benchmark's sizes: 0.6–1.1 s per rep on a 2-core host, so a
    /// run's median rests on dozens of reps. `wide_hours` stays at half
    /// an hour: at a quarter hour peak memory varied by up to 16 % from
    /// seed to seed, at half an hour by 1–2 %.
    pub const FULL: Sizes = Sizes {
        paper_experiments: 12,
        paper_hours: 5.0,
        wide_machines: 800,
        wide_hours: 0.5,
        storm_run_for: Duration::from_secs(2),
        fig7_curves: 75,
    };

    /// A tenth of each workload: the untimed warm-up.
    pub fn tenth(&self) -> Sizes {
        Sizes {
            paper_experiments: self.paper_experiments.div_ceil(10),
            paper_hours: self.paper_hours,
            wide_machines: self.wide_machines,
            wide_hours: self.wide_hours / 10.0,
            storm_run_for: Duration::from_micros(self.storm_run_for.as_micros() / 10),
            fig7_curves: self.fig7_curves.div_ceil(10),
        }
    }
}

/// The paper's shapes every experiment must show.
#[derive(Debug, Clone, Copy)]
pub struct Checks {
    /// §6.2: detected idleness stays below 1 %.
    pub max_idleness: f64,
    /// Figure 7: about one second per machine, linear.
    pub min_slope: f64,
    pub max_slope: f64,
    pub min_r2: f64,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            max_idleness: 0.01,
            min_slope: 0.8,
            max_slope: 1.3,
            min_r2: 0.98,
        }
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Timed-rep budget per workload, in host seconds.
    pub seconds: f64,
    /// Follow the timed reps with one traced rep per workload.
    pub trace: bool,
    pub sizes: Sizes,
    pub checks: Checks,
}

impl Config {
    pub fn new(workloads: Vec<Workload>, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workloads,
            seed,
            seconds,
            trace,
            sizes: Sizes::FULL,
            checks: Checks::default(),
        }
    }
}

/// Timed reps taken even when the budget runs out first.
const MIN_REPS: usize = 5;

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Row {
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Row {
            name: name.into(),
            unit: unit.to_string(),
            value,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("unit", self.unit.as_str())
            .set("value", self.value)
    }
}

/// One end-to-end metric's per-rep samples.
#[derive(Debug, Clone)]
pub struct Stat {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Stat {
    fn summary(&self) -> Summary {
        Summary::from_samples(self.samples.clone())
    }
    pub fn median(&self) -> f64 {
        self.summary().median()
    }
    pub fn q1(&self) -> f64 {
        self.summary().percentile(25.0)
    }
    pub fn q3(&self) -> f64 {
        self.summary().percentile(75.0)
    }
}

/// User+system CPU seconds of this process, all threads included.
fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in USER_HZ (100 per second on Linux).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() as f64 / 100.0
}

/// Reset `VmHWM` to the current resident set size, so the next
/// [`peak_rss_mb`] reading is the peak of what ran in between. Where the
/// file cannot be written the peak stays the process's since start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One experiment's result: its world-independent digest (queue counters
/// plus simulated outputs), a shape-check miss if any, and the events it
/// dispatched.
struct Experiment {
    digest: Vec<u64>,
    miss: Option<String>,
    events: u64,
}

fn queue_digest(q: &QueueStats) -> [u64; 4] {
    [
        q.scheduled,
        q.dispatched,
        q.peak_depth as u64,
        q.depth as u64,
    ]
}

/// Run `f`, turning a panic into a failed experiment.
fn guarded(what: String, f: impl FnOnce() -> Experiment) -> Experiment {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Experiment {
        digest: Vec::new(),
        miss: Some(format!("{what}: panicked")),
        events: 0,
    })
}

/// What one rep produced: its experiments and its simulated outputs.
struct Rep {
    experiments: Vec<Experiment>,
    sim: Vec<Row>,
}

fn util_rep(
    p: &UtilParams,
    seeds: std::ops::Range<u64>,
    checks: &Checks,
    probe: &mut Probe,
) -> Rep {
    let (mut max_idle, mut unfinished, mut completed) = (0.0f64, 0, 0);
    let experiments = seeds
        .map(|seed| {
            guarded(format!("seed {seed}"), || {
                let o = util_experiment(p, seed, probe);
                max_idle = max_idle.max(o.idleness);
                unfinished += o.unfinished();
                completed += o.completed;
                let mut digest = queue_digest(&o.queue).to_vec();
                digest.extend([
                    o.idleness.to_bits(),
                    o.submitted as u64,
                    o.completed as u64,
                    o.failed as u64,
                ]);
                let miss = if o.idleness >= checks.max_idleness {
                    Some(format!("seed {seed}: idleness {:.4} %", o.idleness * 100.0))
                } else if o.failed > 0 {
                    Some(format!("seed {seed}: {} sequential jobs failed", o.failed))
                } else {
                    None
                };
                Experiment {
                    digest,
                    miss,
                    events: o.queue.dispatched,
                }
            })
        })
        .collect();
    Rep {
        experiments,
        sim: vec![
            Row::new("sim_idleness_pct", "%", max_idle * 100.0),
            Row::new("sim_jobs_unfinished", "jobs", unfinished as f64),
            Row::new("sim_jobs_completed", "jobs", completed as f64),
        ],
    }
}

fn fig7_rep(curves: u64, seed: u64, checks: &Checks, probe: &mut Probe) -> Rep {
    let (mut slopes, mut min_r2) = (Vec::new(), f64::INFINITY);
    let experiments = (0..curves)
        .map(|i| {
            let base = seed + FIG7_MACHINES as u64 * i;
            guarded(format!("curve on seed {base}"), || {
                let (series, queues) = fig7_curve(base, probe);
                let (slope, r2) = (series.slope(), series.r_squared());
                slopes.push(slope);
                min_r2 = min_r2.min(r2);
                let mut digest: Vec<u64> = series.points.iter().map(|p| p.1.to_bits()).collect();
                digest.extend(queues.iter().flat_map(queue_digest));
                let ok =
                    (checks.min_slope..=checks.max_slope).contains(&slope) && r2 >= checks.min_r2;
                Experiment {
                    digest,
                    miss: (!ok).then(|| {
                        format!("curve on seed {base}: slope {slope:.3} s/machine, R² {r2:.4}")
                    }),
                    events: queues.iter().map(|q| q.dispatched).sum(),
                }
            })
        })
        .collect();
    let median_slope = if slopes.is_empty() {
        f64::NAN
    } else {
        Summary::from_samples(slopes).median()
    };
    Rep {
        experiments,
        sim: vec![
            Row::new("sim_realloc_s_per_machine", "s/machine", median_slope),
            Row::new("sim_realloc_r2_min", "ratio", min_r2),
        ],
    }
}

const STORM_MACHINES: usize = 64;

fn storm_rep(run_for: Duration, seed: u64, probe: &mut Probe) -> Rep {
    let p = StormParams {
        machines: STORM_MACHINES,
        run_for,
        shards: 2,
        threads: 2,
    };
    let exp = guarded(format!("storm seed {seed}"), || {
        let (q, _) = storm_run(&p, seed, probe);
        // Every tick dispatches a timer and a CPU completion.
        let ticks = STORM_MACHINES as u64 * run_for.as_micros() / STORM_PERIOD.as_micros();
        Experiment {
            digest: queue_digest(&q).to_vec(),
            miss: (q.dispatched < 2 * ticks).then(|| {
                format!(
                    "storm seed {seed}: {} events for {ticks} ticks",
                    q.dispatched
                )
            }),
            events: q.dispatched,
        }
    });
    Rep {
        experiments: vec![exp],
        sim: Vec::new(),
    }
}

/// The threaded storm must replay the serial kernel byte for byte (the
/// repository's determinism contract), checked on a small traced world.
fn storm_modes_agree(seed: u64) -> Experiment {
    guarded(format!("storm mode check seed {seed}"), || {
        let small = |shards, threads| StormParams {
            machines: 8,
            run_for: Duration::from_millis(20),
            shards,
            threads,
        };
        let serial = storm_run(&small(1, 1), seed, &mut Probe::traced());
        let threaded = storm_run(&small(2, 2), seed, &mut Probe::traced());
        Experiment {
            digest: Vec::new(),
            miss: (serial != threaded)
                .then(|| format!("storm seed {seed}: threaded run diverged from serial")),
            events: serial.0.dispatched,
        }
    })
}

fn run_rep(w: Workload, sizes: &Sizes, seed: u64, checks: &Checks, probe: &mut Probe) -> Rep {
    match w {
        Workload::PaperSweep => {
            let p = UtilParams {
                machines: 8,
                arrival_period_secs: 100,
                hours: sizes.paper_hours,
            };
            util_rep(&p, seed..seed + sizes.paper_experiments, checks, probe)
        }
        Workload::WideUtil => {
            let p = UtilParams {
                machines: sizes.wide_machines,
                arrival_period_secs: 1,
                hours: sizes.wide_hours,
            };
            util_rep(&p, seed..seed + 1, checks, probe)
        }
        Workload::StormS2t2 => storm_rep(sizes.storm_run_for, seed, probe),
        Workload::Fig7Sweep => fig7_rep(sizes.fig7_curves, seed, checks, probe),
    }
}

/// Host measurements of one timed rep.
struct RepTimes {
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    events: u64,
}

/// Everything one workload produced in an invocation.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub reps: usize,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure descriptions.
    pub misses: Vec<String>,
    /// End-to-end metrics, one sample per timed rep.
    pub end_to_end: Vec<Stat>,
    /// Simulated outputs of the first timed rep (deterministic per seed).
    pub sim: Vec<Row>,
    /// The traced rep's per-layer rows; empty without tracing.
    pub layers: Vec<Row>,
}

impl WorkloadReport {
    /// The value the result line reports for a metric, if this workload
    /// produced it.
    pub fn metric(&self, name: &str) -> Option<(f64, &str)> {
        self.end_to_end
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.median(), s.unit.as_str()))
            .or_else(|| {
                self.layers
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| (r.value, r.unit.as_str()))
            })
    }
}

struct State {
    w: Workload,
    times: Vec<RepTimes>,
    /// Digests of the first timed rep, which every later rep must repeat.
    reference: Option<Vec<Vec<u64>>>,
    attempted: usize,
    failed: usize,
    misses: Vec<String>,
    sim: Vec<Row>,
    layers: Vec<Row>,
}

const MAX_MISSES_KEPT: usize = 10;

impl State {
    fn new(w: Workload) -> Self {
        State {
            w,
            times: Vec::new(),
            reference: None,
            attempted: 0,
            failed: 0,
            misses: Vec::new(),
            sim: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn count(&mut self, e: &Experiment, miss: Option<String>) {
        self.attempted += 1;
        if let Some(m) = e.miss.clone().or(miss) {
            self.failed += 1;
            if self.misses.len() < MAX_MISSES_KEPT {
                self.misses.push(m);
            }
        }
    }

    /// Count a rep's experiments, comparing each digest with the first
    /// timed rep's.
    fn record(&mut self, rep: Rep, label: &str) {
        let reference = self
            .reference
            .get_or_insert_with(|| rep.experiments.iter().map(|e| e.digest.clone()).collect());
        let same: Vec<bool> = rep
            .experiments
            .iter()
            .enumerate()
            .map(|(i, e)| reference.get(i) == Some(&e.digest))
            .collect();
        for (i, (e, same)) in rep.experiments.iter().zip(same).enumerate() {
            let diverged =
                (!same).then(|| format!("{label}: experiment {i} differs from the first rep"));
            self.count(e, diverged);
        }
        if self.sim.is_empty() {
            self.sim = rep.sim;
        }
    }

    fn warm_up(&mut self, cfg: &Config) {
        let sizes = cfg.sizes.tenth();
        run_rep(self.w, &sizes, cfg.seed, &cfg.checks, &mut Probe::default());
        if self.w == Workload::StormS2t2 {
            let e = storm_modes_agree(cfg.seed);
            self.count(&e, None);
        }
    }

    fn timed_rep(&mut self, cfg: &Config) {
        let mut probe = Probe::default();
        reset_peak_rss();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let rep = run_rep(self.w, &cfg.sizes, cfg.seed, &cfg.checks, &mut probe);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let peak_rss_mb = peak_rss_mb();
        let events = rep.experiments.iter().map(|e| e.events).sum();
        self.record(rep, &format!("rep {}", self.times.len() + 1));
        self.times.push(RepTimes {
            wall_s,
            cpu_s,
            setup_s: probe.setup_s(),
            peak_rss_mb,
            events,
        });
    }

    fn traced_rep(&mut self, cfg: &Config) {
        let mut probe = Probe::traced();
        let t0 = Instant::now();
        let rep = run_rep(self.w, &cfg.sizes, cfg.seed, &cfg.checks, &mut probe);
        let wall_s = t0.elapsed().as_secs_f64();
        self.record(rep, "traced rep");
        let untraced = Summary::from_samples(self.times.iter().map(|t| t.wall_s).collect());
        let layers = probe.layers.as_ref().expect("traced probe");
        self.layers = layers.rows(
            probe.run_s,
            probe.build_s,
            probe.warm_s,
            wall_s / untraced.median(),
        );
    }

    fn finish(self) -> WorkloadReport {
        let stat = |name: &str, unit: &str, f: &dyn Fn(&RepTimes) -> f64| Stat {
            name: name.to_string(),
            unit: unit.to_string(),
            samples: self.times.iter().map(f).collect(),
        };
        let end_to_end = vec![
            stat("wall_s", "s", &|t| t.wall_s),
            stat("events_per_s", "events/s", &|t| t.events as f64 / t.wall_s),
            stat("cpu_s", "s", &|t| t.cpu_s),
            stat("setup_s", "s", &|t| t.setup_s),
            stat("peak_rss_mb", "MB", &|t| t.peak_rss_mb),
        ];
        WorkloadReport {
            workload: self.w,
            reps: self.times.len(),
            attempted: self.attempted,
            failed: self.failed,
            misses: self.misses,
            end_to_end,
            sim: self.sim,
            layers: self.layers,
        }
    }
}

/// Run the benchmark: warm-up, round-robin timed reps until the budget is
/// spent, then the traced reps.
pub fn run(cfg: &Config) -> Report {
    let mut states: Vec<State> = cfg.workloads.iter().map(|&w| State::new(w)).collect();
    for s in &mut states {
        s.warm_up(cfg);
    }
    let budget = cfg.seconds * states.len() as f64;
    let t0 = Instant::now();
    for round in 1.. {
        let r0 = Instant::now();
        for s in &mut states {
            s.timed_rep(cfg);
        }
        // Stop before a round that would overrun the budget.
        let elapsed = t0.elapsed().as_secs_f64();
        if round >= MIN_REPS && elapsed + r0.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    if cfg.trace {
        for s in &mut states {
            s.traced_rep(cfg);
        }
    }
    Report {
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        workloads: states.into_iter().map(State::finish).collect(),
    }
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workloads: Vec<WorkloadReport>,
}

impl Report {
    pub fn attempted(&self) -> usize {
        self.workloads.iter().map(|w| w.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Process exit status: non-zero when any experiment failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    /// The one-line JSON result: every end-to-end metric of `spec`, or
    /// every per-layer one when traced. With several workloads the metric
    /// names carry a `workload.` prefix.
    pub fn result_line(&self, spec: &Spec) -> String {
        let metrics = if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let single = self.workloads.len() == 1;
        let mut fields = Vec::new();
        for w in &self.workloads {
            for m in metrics {
                let (value, unit) = w
                    .metric(&m.name)
                    .unwrap_or_else(|| panic!("{} produced no {}", w.workload.name(), m.name));
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", w.workload.name(), m.name)
                };
                fields.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            fields.join(", ")
        )
    }

    /// The full result document `benchmark compare` reads.
    pub fn to_json(&self, spec: &Spec) -> Json {
        let workloads = self.workloads.iter().map(|w| {
            let metrics = w.end_to_end.iter().map(|s| {
                let m = spec.end_to_end.iter().find(|m| m.name == s.name);
                Json::obj()
                    .set("name", s.name.as_str())
                    .set("unit", s.unit.as_str())
                    .set("better", m.map_or("", |m| m.better.as_str()))
                    .set("bound", m.and_then(|m| m.bound).unwrap_or(0.0))
                    .set("median", s.median())
                    .set("q1", s.q1())
                    .set("q3", s.q3())
                    .set("n", s.samples.len())
                    .set(
                        "samples",
                        Json::Arr(s.samples.iter().map(|&v| v.into()).collect()),
                    )
            });
            Json::obj()
                .set("name", w.workload.name())
                .set("reps", w.reps)
                .set("attempted", w.attempted)
                .set("failed", w.failed)
                .set(
                    "misses",
                    Json::Arr(w.misses.iter().map(|m| m.as_str().into()).collect()),
                )
                .set("end_to_end", Json::Arr(metrics.collect()))
                .set("sim", Json::Arr(w.sim.iter().map(Row::to_json).collect()))
                .set(
                    "layers",
                    Json::Arr(w.layers.iter().map(Row::to_json).collect()),
                )
        });
        Json::obj()
            .set("schema", "rb-benchmark/v1")
            .set("git_rev", rb_bench::report::git_rev())
            .set("host", rb_bench::report::host_json())
            .set("seed", self.seed)
            .set("seconds", self.seconds)
            .set("trace", self.trace)
            .set("correct", self.correct())
            .set("workloads", Json::Arr(workloads.collect()))
    }

    /// The human-readable table: every metric with its unit, median,
    /// quartiles and sample count, the simulated outputs, and the layers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!(
                "== {}: {} timed reps, {} experiments, {} failed\n",
                w.workload.name(),
                w.reps,
                w.attempted,
                w.failed
            ));
            for m in &w.misses {
                out.push_str(&format!("   FAILED {m}\n"));
            }
            out.push_str(&format!(
                "   {:<32} {:<9} {:>14} {:>14} {:>14} {:>4}\n",
                "metric", "unit", "median", "q1", "q3", "n"
            ));
            for s in &w.end_to_end {
                out.push_str(&format!(
                    "   {:<32} {:<9} {:>14.6} {:>14.6} {:>14.6} {:>4}\n",
                    s.name,
                    s.unit,
                    s.median(),
                    s.q1(),
                    s.q3(),
                    s.samples.len()
                ));
            }
            out.push_str(&format!(
                "   {:<32} {:<9} {:>14.6}   (failed ÷ attempted experiments)\n",
                "failed_frac",
                "ratio",
                w.failed as f64 / w.attempted.max(1) as f64
            ));
            for r in &w.sim {
                out.push_str(&format!(
                    "   {:<32} {:<9} {:>14.6}   (simulated, same every rep)\n",
                    r.name, r.unit, r.value
                ));
            }
            if !w.layers.is_empty() {
                out.push_str("   per layer, one traced rep:\n");
            }
            for r in &w.layers {
                out.push_str(&format!(
                    "   {:<32} {:<9} {:>14.6}\n",
                    r.name, r.unit, r.value
                ));
            }
        }
        out
    }
}

/// A finite number in full precision (Rust's shortest round-trip form,
/// which is valid JSON); non-finite values have no JSON form.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
