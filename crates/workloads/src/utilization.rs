//! The §6.2 utilization experiment.
//!
//! An adaptive Calypso job initially runs on eight machines. Every 100
//! seconds a script starts a sequential program that runs for t minutes,
//! t uniform in [1, 10]. After five hours, the total detected idleness of
//! the machines was less than 1 % — showing both that the reallocation
//! mechanisms are efficient and that, in the presence of adaptive
//! programs, a resource broker can push network utilization above 99 %.

use crate::scenarios::{await_calypso_workers, broker_testbed_sharded, submit_endless_calypso};
use rb_broker::{submit_job, DefaultPolicy, JobRequest, JobRun};
use rb_proto::CommandSpec;
use rb_simcore::{Duration, SimRng, SimTime};

/// Experiment parameters (defaults mirror the paper).
#[derive(Debug, Clone)]
pub struct UtilizationConfig {
    pub machines: usize,
    /// Seconds between sequential-job arrivals.
    pub arrival_period_secs: u64,
    /// Sequential job runtime bounds, in minutes.
    pub runtime_min_minutes: f64,
    pub runtime_max_minutes: f64,
    /// Total experiment length, in hours.
    pub hours: f64,
    pub seed: u64,
    /// Kernel event shards (1 = serial; results are identical).
    pub shards: usize,
}

impl Default for UtilizationConfig {
    fn default() -> Self {
        UtilizationConfig {
            machines: 8,
            arrival_period_secs: 100,
            runtime_min_minutes: 1.0,
            runtime_max_minutes: 10.0,
            hours: 5.0,
            seed: 11,
            shards: 1,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct UtilizationReport {
    /// Fraction of machine-time with no application process (the paper's
    /// "total detected idleness").
    pub idleness: f64,
    /// Fraction of machine-time with a runnable CPU burst.
    pub cpu_idleness: f64,
    pub seq_jobs_submitted: usize,
    pub seq_jobs_completed: usize,
    pub seq_jobs_failed: usize,
    pub simulated_hours: f64,
    /// Event-queue work counters for the whole run (kernel throughput).
    pub queue: rb_simcore::QueueStats,
}

/// Run the experiment, sampling cluster-wide allocation once a minute.
/// Returns the report plus the timeline series (x = minutes into the
/// measurement window, y = fraction of machine-time allocated during that
/// minute).
pub fn run_with_timeline(cfg: &UtilizationConfig) -> (UtilizationReport, rb_simcore::Series) {
    run_inner(cfg, true)
}

/// Run the experiment.
pub fn run(cfg: &UtilizationConfig) -> UtilizationReport {
    run_inner(cfg, false).0
}

fn run_inner(cfg: &UtilizationConfig, timeline: bool) -> (UtilizationReport, rb_simcore::Series) {
    let mut c = broker_testbed_sharded(
        cfg.machines,
        cfg.seed,
        Box::new(DefaultPolicy::default()),
        false,
        cfg.shards,
    );
    // The adaptive job fills the cluster.
    submit_endless_calypso(&mut c, cfg.machines as u32, 2_000);
    let limit = SimTime(c.world.now().as_micros() + 120_000_000);
    await_calypso_workers(&mut c, cfg.machines, limit);

    // Measurement starts once the cluster is saturated.
    let t_start = c.world.now();
    let mut alloc_at_start = Vec::new();
    let mut busy_at_start = Vec::new();
    for &m in &c.machines[1..] {
        alloc_at_start.push(c.world.allocated_time(m));
        busy_at_start.push(c.world.busy_time(m));
    }

    // Schedule the arrival script.
    let mut rng = SimRng::seeded(cfg.seed ^ 0xABCD);
    let horizon = Duration::from_secs((cfg.hours * 3600.0) as u64);
    let end = t_start + horizon;
    let broker = c.broker;
    let modules = c.modules.clone();
    let home = c.machines[0];
    let appls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut t = t_start + Duration::from_secs(cfg.arrival_period_secs);
    let mut submitted = 0usize;
    while t < end {
        let minutes = rng.uniform_f64(cfg.runtime_min_minutes, cfg.runtime_max_minutes);
        let cpu_millis = (minutes * 60_000.0) as u64;
        let modules = modules.clone();
        let appls = appls.clone();
        c.world.schedule(t, move |w| {
            let appl = submit_job(
                w,
                home,
                broker,
                &modules,
                JobRequest {
                    rsl: "(adaptive=0)".into(),
                    user: "seq".into(),
                    run: JobRun::Remote {
                        host: "anylinux".into(),
                        cmd: CommandSpec::Loop { cpu_millis },
                    },
                },
            );
            appls.lock().unwrap().push(appl);
        });
        submitted += 1;
        t = t + Duration::from_secs(cfg.arrival_period_secs);
    }

    // Optional per-minute allocation sampling.
    let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::<f64>::new()));
    if timeline {
        let machines: Vec<_> = c.machines[1..].to_vec();
        let minutes = (cfg.hours * 60.0) as u64;
        let prev = std::sync::Arc::new(std::sync::Mutex::new(None::<f64>));
        for minute in 1..=minutes {
            let at = t_start + Duration::from_secs(minute * 60);
            let machines = machines.clone();
            let samples = samples.clone();
            let prev = prev.clone();
            c.world.schedule(at, move |w| {
                let total: f64 = machines
                    .iter()
                    .map(|&m| w.allocated_time(m).as_secs_f64())
                    .sum();
                let mut prev = prev.lock().unwrap();
                let delta = total - prev.unwrap_or(total - 60.0 * machines.len() as f64);
                *prev = Some(total);
                samples
                    .lock()
                    .unwrap()
                    .push(delta / (60.0 * machines.len() as f64));
            });
        }
    }

    // Run the full horizon, plus slack for the tail jobs to finish.
    c.world.run_until(end);
    let measured = end - t_start;

    // Idleness over the public machines during the measurement window.
    let mut alloc_total = Duration::ZERO;
    let mut busy_total = Duration::ZERO;
    for (i, &m) in c.machines[1..].iter().enumerate() {
        alloc_total += c.world.allocated_time(m).saturating_sub(alloc_at_start[i]);
        busy_total += c.world.busy_time(m).saturating_sub(busy_at_start[i]);
    }
    let denom = measured.as_secs_f64() * (cfg.machines as f64);
    let idleness = 1.0 - alloc_total.as_secs_f64() / denom;
    let cpu_idleness = 1.0 - busy_total.as_secs_f64() / denom;

    let mut completed = 0;
    let mut failed = 0;
    for &appl in appls.lock().unwrap().iter() {
        match c.world.exit_status(appl) {
            Some(s) if s.is_success() => completed += 1,
            Some(_) => failed += 1,
            None => {} // still running at the horizon
        }
    }

    let mut series = rb_simcore::Series::new("allocated fraction per minute");
    for (i, &v) in samples.lock().unwrap().iter().enumerate() {
        series.push((i + 1) as f64, v);
    }

    (
        UtilizationReport {
            idleness,
            cpu_idleness,
            seq_jobs_submitted: submitted,
            seq_jobs_completed: completed,
            seq_jobs_failed: failed,
            simulated_hours: measured.as_secs_f64() / 3600.0,
            queue: c.world.kernel_stats(),
        },
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hour_run_keeps_idleness_below_one_percent() {
        // A shortened (1 h) version of the 5 h experiment for test time;
        // the bench binary runs the full five hours.
        let report = run(&UtilizationConfig {
            hours: 1.0,
            ..Default::default()
        });
        assert!(report.seq_jobs_submitted >= 30);
        assert!(
            report.seq_jobs_completed > 0,
            "some sequential jobs finished"
        );
        assert!(
            report.idleness < 0.01,
            "idleness {:.4} >= 1%",
            report.idleness
        );
        // CPU idleness is higher (message latencies between tasks) but the
        // machines stay overwhelmingly busy.
        assert!(report.cpu_idleness < 0.05, "{}", report.cpu_idleness);
    }
}
