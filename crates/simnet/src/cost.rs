//! The calibrated cost model.
//!
//! Every latency the simulation charges lives here, in one place, so that
//! the relationship between the model and the paper's measured numbers is
//! auditable. Constants are calibrated against the micro-benchmarks the
//! paper reports on 200 MHz PentiumPro machines with Fast Ethernet and
//! 1999-era `rshd`:
//!
//! * `rsh n01 null` elapses ≈ 0.3 s (Table 1, plain `rsh` row) — dominated
//!   by `rsh` connection setup plus the remote fork/exec.
//! * `rsh' n01 null` elapses ≈ 0.6 s — the extra ≈ 0.3 s pays for the
//!   `appl` startup, one broker round-trip, and the sub-`appl` interposition.
//! * `pvm w/ host` adds < 0.3 ms per machine over plain `rsh` (Table 3) —
//!   the passthrough check in `rsh'` is a string classification plus a
//!   same-machine message.
//! * Reallocating an occupied machine takes ≈ 1 s (Table 2, Figure 7) —
//!   signal delivery, the adaptive runtime's graceful retreat, and the
//!   release/grant round-trips.
//!
//! Changing a constant changes measured outputs but not mechanism order;
//! the integration tests assert both the orderings (always) and the
//! calibrated magnitudes (at default costs).

use rb_simcore::Duration;

/// All timing constants of the simulated substrate and system processes.
#[derive(Debug, Clone)]
pub struct CostModel {
    // --- network ---
    /// One-way message latency between distinct machines (Fast Ethernet,
    /// user-space TCP in 1999).
    pub lan_latency: Duration,
    /// One-way latency between processes on the same machine (Unix socket).
    pub local_latency: Duration,

    // --- rsh / rshd ---
    /// `rsh` client startup + TCP connect + authentication against `rshd`.
    pub rsh_connect: Duration,
    /// `rshd` fork/exec of the remote command.
    pub rshd_fork: Duration,
    /// Failed `rsh` (unknown host / refused) before the client gives up.
    pub rsh_fail: Duration,

    // --- generic process machinery ---
    /// Local fork/exec of an ordinary process.
    pub local_fork: Duration,
    /// Time for `rsh'` to classify its host argument and decide a path.
    pub rsh_prime_overhead: Duration,

    // --- broker / application layer ---
    /// `appl` process startup (submitting a job).
    pub appl_startup: Duration,
    /// sub-`appl` startup once `rshd` has forked it.
    pub subappl_startup: Duration,
    /// Broker's allocation decision (table lookups, policy evaluation).
    pub broker_decision: Duration,
    /// Grace period a sub-`appl` grants its child between SIGTERM and
    /// SIGKILL when vacating a machine.
    pub release_grace: Duration,
    /// Interval between daemon status reports.
    pub daemon_report_interval: Duration,
    /// Broker liveness-ping interval for daemons.
    pub daemon_ping_interval: Duration,

    // --- programming systems ---
    /// PVM console startup (reads `$HOME/.pvmrc`, connects to local pvmd).
    pub pvm_console_startup: Duration,
    /// pvmd initialization before it registers/serves.
    pub pvmd_startup: Duration,
    /// LAM console startup.
    pub lam_console_startup: Duration,
    /// LAM node daemon initialization (LAM's boot protocol does more
    /// handshaking than PVM's, hence the larger constant).
    pub lamd_startup: Duration,
    /// Calypso worker initialization.
    pub calypso_worker_startup: Duration,
    /// PLinda worker initialization.
    pub plinda_worker_startup: Duration,
    /// Time an adaptive runtime needs to retreat gracefully from a machine
    /// after SIGTERM (deregistration, state flush).
    pub graceful_retreat: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            lan_latency: Duration::from_micros(800),
            local_latency: Duration::from_micros(80),

            rsh_connect: Duration::from_millis(240),
            rshd_fork: Duration::from_millis(60),
            rsh_fail: Duration::from_millis(80),

            local_fork: Duration::from_millis(12),
            rsh_prime_overhead: Duration::from_micros(100),

            appl_startup: Duration::from_millis(190),
            subappl_startup: Duration::from_millis(95),
            broker_decision: Duration::from_millis(8),
            release_grace: Duration::from_millis(2_000),
            daemon_report_interval: Duration::from_secs(2),
            daemon_ping_interval: Duration::from_secs(5),

            pvm_console_startup: Duration::from_millis(380),
            pvmd_startup: Duration::from_millis(250),
            lam_console_startup: Duration::from_millis(450),
            lamd_startup: Duration::from_millis(400),
            calypso_worker_startup: Duration::from_millis(40),
            plinda_worker_startup: Duration::from_millis(40),
            graceful_retreat: Duration::from_millis(450),
        }
    }
}

impl CostModel {
    /// Conservative-synchronization lookahead: the minimum latency any
    /// *cross-machine* interaction can carry, i.e. the widest time window
    /// a lane can safely dispatch through before an event from another
    /// lane could still arrive inside it. Same-machine traffic (local
    /// latency, even zero-latency kernel completions) never crosses a
    /// lane, so only `lan_latency` bounds the window. Floored at one
    /// microsecond so every window makes progress; a model whose
    /// `lan_latency` is below the floor (or whose `rsh_connect` is below
    /// the lookahead) cannot bound a window, and
    /// [`WorldBuilder::build`](crate::WorldBuilder::build) keeps its world
    /// on one lane (see `DESIGN.md` §14.2).
    pub fn lookahead(&self) -> Duration {
        self.lan_latency.max(Duration::from_micros(1))
    }

    /// A zero-latency model, useful for logic-only unit tests where timing
    /// is irrelevant but determinism still matters.
    pub fn zero() -> Self {
        CostModel {
            lan_latency: Duration::ZERO,
            local_latency: Duration::ZERO,
            rsh_connect: Duration::ZERO,
            rshd_fork: Duration::ZERO,
            rsh_fail: Duration::ZERO,
            local_fork: Duration::ZERO,
            rsh_prime_overhead: Duration::ZERO,
            appl_startup: Duration::ZERO,
            subappl_startup: Duration::ZERO,
            broker_decision: Duration::ZERO,
            release_grace: Duration::from_millis(100),
            daemon_report_interval: Duration::from_secs(2),
            daemon_ping_interval: Duration::from_secs(5),
            pvm_console_startup: Duration::ZERO,
            pvmd_startup: Duration::ZERO,
            lam_console_startup: Duration::ZERO,
            lamd_startup: Duration::ZERO,
            calypso_worker_startup: Duration::ZERO,
            plinda_worker_startup: Duration::ZERO,
            graceful_retreat: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plain_rsh_null_is_about_300ms() {
        let c = CostModel::default();
        let total = c.rsh_connect + c.rshd_fork;
        let secs = total.as_secs_f64();
        assert!((0.25..=0.35).contains(&secs), "plain rsh null = {secs}");
    }

    #[test]
    fn zero_model_has_no_network_cost() {
        let c = CostModel::zero();
        assert_eq!(c.lan_latency, Duration::ZERO);
        assert_eq!(c.rsh_connect, Duration::ZERO);
    }

    #[test]
    fn lookahead_is_lan_latency_floored_at_one_microsecond() {
        let c = CostModel::default();
        assert_eq!(c.lookahead(), c.lan_latency);
        assert!(c.lookahead() >= c.local_latency);
        assert_eq!(CostModel::zero().lookahead(), Duration::from_micros(1));
    }
}
