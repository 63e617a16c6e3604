//! The traced rep's per-layer split, read from the program's own outputs:
//! `QueueStats`, `ShardStats`, `World::profiler()`, `World::metrics_json()`
//! and `rb_analyze::critical_paths` over the recorded trace, plus a timing
//! wrapper around the allocation policy. Nothing here is inside the
//! simulator; every number is taken at a call the benchmark makes.
//!
//! The profiler costs a clock pair per dispatch, so the traced rep runs
//! slower than the timed reps (`bench.trace_overhead`): read its seconds as
//! shares of `simnet.run_s`, not as end-to-end times.

use crate::Row;
use rb_analyze::critical_paths;
use rb_broker::{AllocContext, Decision, DefaultPolicy, JobView, MachineView, Policy};
use rb_proto::JobId;
use rb_simcore::{Json, Profiler, SpanForest, Summary};
use rb_simnet::World;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls into the allocation policy and their host time.
#[derive(Debug, Default)]
pub struct PolicyStats {
    pub allocate_calls: u64,
    pub allocate_ns: u64,
    pub offer_calls: u64,
    pub offer_ns: u64,
    pub grants: u64,
    pub reclaims: u64,
    pub denies: u64,
}

/// [`DefaultPolicy`] with every `allocate` and `offer` call counted and
/// timed. Decisions are the inner policy's, unchanged.
pub struct TimedPolicy {
    inner: DefaultPolicy,
    stats: Arc<Mutex<PolicyStats>>,
}

impl TimedPolicy {
    pub fn new(inner: DefaultPolicy, stats: Arc<Mutex<PolicyStats>>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(
        &mut self,
        req: &AllocContext,
        machines: &[MachineView],
        jobs: &[JobView],
    ) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.allocate(req, machines, jobs);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.lock().expect("policy stats lock");
        s.allocate_calls += 1;
        s.allocate_ns += ns;
        match d {
            Decision::Grant(_) => s.grants += 1,
            Decision::Reclaim { .. } => s.reclaims += 1,
            Decision::Deny { .. } => s.denies += 1,
        }
        d
    }

    fn offer(&mut self, machine: &MachineView, jobs: &[JobView]) -> Option<JobId> {
        let t0 = Instant::now();
        let j = self.inner.offer(machine, jobs);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.lock().expect("policy stats lock");
        s.offer_calls += 1;
        s.offer_ns += ns;
        j
    }

    fn evict_on_owner_return(&self) -> bool {
        self.inner.evict_on_owner_return()
    }
}

/// Registry counters the broker layer reports, as (metric, registry name).
const REGISTRY_COUNTERS: [(&str, &str); 4] = [
    ("broker.reports", "daemon.reports"),
    ("broker.grants", "broker.grants"),
    ("broker.offers", "broker.offers"),
    ("broker.queued", "broker.queued"),
];

/// Layer outputs summed over every world of a traced rep.
#[derive(Default)]
pub struct Layers {
    pub policy: Arc<Mutex<PolicyStats>>,
    prof: Profiler,
    scheduled: u64,
    dispatched: u64,
    peak_depth: usize,
    trace_records: u64,
    windows: u64,
    barrier_waits: u64,
    counters: BTreeMap<String, u64>,
    /// Simulated seconds of each complete allocation's decide leg and of
    /// its whole request-to-exec span.
    decide_s: Vec<f64>,
    alloc_s: Vec<f64>,
}

impl Layers {
    /// Fold one finished world's outputs in.
    pub fn absorb_world(&mut self, world: &World) {
        if let Some(p) = world.profiler() {
            self.prof.merge(&p);
        }
        let q = world.kernel_stats();
        self.scheduled += q.scheduled;
        self.dispatched += q.dispatched;
        self.peak_depth = self.peak_depth.max(q.peak_depth);
        self.trace_records += world.trace().recorded_events();
        if let Some(s) = world.shard_stats() {
            self.windows += s.windows;
            self.barrier_waits += s.per_shard.iter().map(|l| l.barrier_waits).sum::<u64>();
        }
        let doc = world.metrics_json().unwrap_or_else(Json::obj);
        for c in doc.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(v)) = (
                c.get("name").and_then(Json::as_str),
                c.get("value").and_then(Json::as_f64),
            ) {
                *self.counters.entry(name.to_string()).or_default() += v as u64;
            }
        }
        let events = world.trace().events();
        for a in critical_paths(&SpanForest::from_events(events), events) {
            let decide = a
                .legs
                .iter()
                .find(|l| l.name == "decide")
                .map_or(0.0, |l| l.secs);
            self.decide_s.push(decide);
            self.alloc_s.push(a.total_secs);
        }
    }

    /// Host seconds the profiler saw in behaviors whose name matches.
    fn behavior_s(&self, matches: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = self
            .prof
            .behaviors()
            .filter(|(name, _)| matches(name))
            .map(|(_, e)| e.total_ns)
            .sum();
        ns as f64 / 1e9
    }

    fn behavior_count(&self, name: &str) -> u64 {
        self.prof
            .behaviors()
            .filter(|(n, _)| *n == name)
            .map(|(_, e)| e.count)
            .sum()
    }

    /// Every per-layer row. `run_s`, `build_s` and `warm_s` are the traced
    /// rep's phase times; `trace_overhead` its wall time over the median
    /// untraced rep.
    pub fn rows(&self, run_s: f64, build_s: f64, warm_s: f64, trace_overhead: f64) -> Vec<Row> {
        let share = |s: f64| s / run_s;
        let dispatch_s = self.behavior_s(|_| true);
        // The profiler times lanes only on sharded worlds. A serial world
        // is one lane with no barrier, busy for the whole run.
        let lane_s: Vec<f64> = self
            .prof
            .lanes()
            .iter()
            .map(|e| e.total_ns as f64 / 1e9)
            .collect();
        let (lane_max_s, imbalance) = if lane_s.is_empty() {
            (run_s, 1.0)
        } else {
            let max = lane_s.iter().copied().fold(0.0, f64::max);
            (max, max * lane_s.len() as f64 / lane_s.iter().sum::<f64>())
        };
        let broker_s = self.behavior_s(|n| n == "broker");
        let broker_n = self.behavior_count("broker");
        let policy = self.policy.lock().expect("policy stats lock");
        let pct = |v: &[f64], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                Summary::from_samples(v.to_vec()).percentile(p)
            }
        };
        let mut rows = vec![
            Row::new("simcore.queue.dispatched", "events", self.dispatched as f64),
            Row::new("simcore.queue.scheduled", "events", self.scheduled as f64),
            Row::new("simcore.queue.peak_depth", "events", self.peak_depth as f64),
            Row::new(
                "simcore.trace.records",
                "records",
                self.trace_records as f64,
            ),
            Row::new("simnet.run_s", "s", run_s),
            Row::new("simnet.dispatch_s", "s", dispatch_s),
            Row::new("simnet.kernel_s", "s", run_s - dispatch_s),
            Row::new("simnet.kernel_share", "ratio", share(run_s - dispatch_s)),
            Row::new("simnet.setup.build_s", "s", build_s),
            Row::new("simnet.setup.warm_s", "s", warm_s),
            Row::new("simnet.windows", "count", self.windows as f64),
            Row::new(
                "simnet.events_per_window",
                "events",
                if self.windows == 0 {
                    0.0
                } else {
                    self.dispatched as f64 / self.windows as f64
                },
            ),
            Row::new("simnet.lane.max_s", "s", lane_max_s),
            Row::new("simnet.lane.max_share", "ratio", share(lane_max_s)),
            Row::new("simnet.lane.imbalance", "ratio", imbalance),
            Row::new(
                "simnet.lane.barrier_waits",
                "count",
                self.barrier_waits as f64,
            ),
            Row::new("simnet.barrier_s", "s", run_s - lane_max_s),
            Row::new("simnet.barrier_share", "ratio", share(run_s - lane_max_s)),
            Row::new("broker.broker.dispatches", "count", broker_n as f64),
            Row::new("broker.broker.dispatch_s", "s", broker_s),
            Row::new("broker.broker.dispatch_share", "ratio", share(broker_s)),
            Row::new(
                "broker.broker.ns_per_dispatch",
                "ns",
                if broker_n == 0 {
                    0.0
                } else {
                    broker_s * 1e9 / broker_n as f64
                },
            ),
        ];
        for (layer, behavior) in [
            ("daemon", "rb-daemon"),
            ("appl", "appl"),
            ("subappl", "sub-appl"),
            ("rshprime", "rsh-prime"),
        ] {
            let s = self.behavior_s(|n| n == behavior);
            rows.push(Row::new(format!("broker.{layer}.dispatch_s"), "s", s));
            rows.push(Row::new(
                format!("broker.{layer}.dispatch_share"),
                "ratio",
                share(s),
            ));
        }
        rows.extend([
            Row::new(
                "broker.policy.allocate_calls",
                "count",
                policy.allocate_calls as f64,
            ),
            Row::new(
                "broker.policy.allocate_s",
                "s",
                policy.allocate_ns as f64 / 1e9,
            ),
            Row::new(
                "broker.policy.allocate_share",
                "ratio",
                share(policy.allocate_ns as f64 / 1e9),
            ),
            Row::new(
                "broker.policy.offer_calls",
                "count",
                policy.offer_calls as f64,
            ),
            Row::new("broker.policy.offer_s", "s", policy.offer_ns as f64 / 1e9),
            Row::new("broker.policy.reclaims", "count", policy.reclaims as f64),
            Row::new("broker.policy.denies", "count", policy.denies as f64),
            Row::new(
                "broker.policy.grant_ratio",
                "ratio",
                if policy.allocate_calls == 0 {
                    0.0
                } else {
                    policy.grants as f64 / policy.allocate_calls as f64
                },
            ),
        ]);
        for (metric, counter) in REGISTRY_COUNTERS {
            let v = self.counters.get(counter).copied().unwrap_or(0);
            rows.push(Row::new(metric, "count", v as f64));
        }
        rows.extend([
            Row::new("broker.alloc.count", "count", self.alloc_s.len() as f64),
            Row::new(
                "broker.alloc.decide_p50_s",
                "sim_s",
                pct(&self.decide_s, 50.0),
            ),
            Row::new(
                "broker.alloc.decide_p99_s",
                "sim_s",
                pct(&self.decide_s, 99.0),
            ),
            Row::new(
                "broker.alloc.total_p50_s",
                "sim_s",
                pct(&self.alloc_s, 50.0),
            ),
            Row::new(
                "broker.alloc.total_p99_s",
                "sim_s",
                pct(&self.alloc_s, 99.0),
            ),
        ]);
        for (system, prefix) in [("calypso", "calypso-"), ("pvm", "pvm")] {
            let s = self.behavior_s(|n| n.starts_with(prefix));
            rows.push(Row::new(format!("parsys.{system}.dispatch_s"), "s", s));
            rows.push(Row::new(
                format!("parsys.{system}.dispatch_share"),
                "ratio",
                share(s),
            ));
        }
        rows.push(Row::new("bench.trace_overhead", "ratio", trace_overhead));
        rows
    }
}
