//! The conservative time-window synchronizer for lane-parallel dispatch.
//!
//! The kernel partitions machines across *lanes* (see `crate::lane`) and
//! advances them under conservative synchronization: a window `[head,
//! head + lookahead)` is safe to dispatch in parallel because every
//! cross-machine interaction carries at least
//! [`CostModel::lookahead`](crate::cost::CostModel::lookahead) of
//! latency — no lane can schedule an event inside another lane's current
//! window. At the barrier the coordinator merges the lanes' dispatch logs
//! back into the canonical `(time, key)` order, which is what makes every
//! lane and thread count byte-identical to one lane (`DESIGN.md` §17).
//!
//! This module holds the window bookkeeping — the window cursor and the
//! per-lane dispatch/barrier counters published as [`ShardStats`] — not
//! the dispatch machinery itself, which lives in `crate::lane` (lane-owned
//! state) and `crate::world` (the window loop and the barrier).

use rb_simcore::{Duration, SimTime};

/// Number of power-of-two buckets in [`ShardStats::stall_hist`].
pub const STALL_BUCKETS: usize = 16;

/// Per-lane counters of the sharded kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Events this lane dispatched.
    pub dispatched: u64,
    /// Windows this lane spent idle (no event of its own to dispatch) —
    /// time it waited at the barrier for the other lanes.
    pub barrier_waits: u64,
    /// Host wall time this lane spent dispatching, in nanoseconds.
    /// Zero unless the world was built with profiling enabled.
    pub wall_ns: u64,
}

/// Synchronizer statistics of a sharded kernel, for load/overhead reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Number of lanes.
    pub shards: usize,
    /// Synchronizer windows opened so far.
    pub windows: u64,
    /// The conservative lookahead bounding each window.
    pub lookahead: Duration,
    /// Per-lane counters, indexed by lane.
    pub per_shard: Vec<LaneStats>,
    /// Histogram of inter-window virtual-time stalls (gap between one
    /// window's end and the next head): bucket 0 is a zero gap, bucket
    /// `b` covers gaps of `[2^(b-1), 2^b)` microseconds, the last bucket
    /// is open-ended.
    pub stall_hist: [u64; STALL_BUCKETS],
}

/// Window cursor + per-lane accounting: one `open_window` per window, one
/// `note_dispatch` per dispatched event, in the canonical merged order.
/// The window loop opens a window per lane window, clamped at harness
/// closures, metrics samples and the run limit; a single-event `step`
/// opens a one-lookahead window at its event once the previous window
/// has ended. Dispatch counts are the same either way; the window
/// structure, and so `windows`, `barrier_waits` and the stall histogram,
/// is not.
pub(crate) struct Synchronizer {
    shards: usize,
    windows: u64,
    window_end: SimTime,
    /// Per-lane dispatched-event counters.
    pub(crate) dispatched: Vec<u64>,
    /// Per-lane count of windows the lane sat out.
    pub(crate) barrier_waits: Vec<u64>,
    /// Which lanes dispatched anything in the current window.
    window_had: Vec<bool>,
    stall_hist: [u64; STALL_BUCKETS],
    /// Collect raw stall samples for the metrics registry (enabled iff
    /// the world has metrics).
    collect_stalls: bool,
    pending_stalls: Vec<f64>,
}

impl Synchronizer {
    pub(crate) fn new(shards: usize, collect_stalls: bool) -> Self {
        Synchronizer {
            shards,
            windows: 0,
            window_end: SimTime::ZERO,
            dispatched: vec![0; shards],
            barrier_waits: vec![0; shards],
            window_had: vec![false; shards],
            stall_hist: [0; STALL_BUCKETS],
            collect_stalls,
            pending_stalls: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn window_end(&self) -> SimTime {
        self.window_end
    }

    #[inline]
    pub(crate) fn windows(&self) -> u64 {
        self.windows
    }

    /// Close the previous window (charging idle lanes a barrier wait and
    /// bucketing the virtual-time gap) and open `[head, end)`.
    pub(crate) fn open_window(&mut self, head: SimTime, end: SimTime) {
        if self.windows > 0 {
            for (lane, had) in self.window_had.iter_mut().enumerate() {
                if !*had {
                    self.barrier_waits[lane] += 1;
                }
                *had = false;
            }
            let stall = head.saturating_since(self.window_end);
            let us = stall.as_micros();
            let bucket = if us == 0 {
                0
            } else {
                ((64 - us.leading_zeros()) as usize).min(STALL_BUCKETS - 1)
            };
            self.stall_hist[bucket] += 1;
            if self.collect_stalls {
                self.pending_stalls.push(stall.as_secs_f64());
            }
        }
        self.windows += 1;
        self.window_end = end;
    }

    /// Account one dispatched event to `lane` (in merged dispatch order).
    #[inline]
    pub(crate) fn note_dispatch(&mut self, lane: usize) {
        self.dispatched[lane] += 1;
        self.window_had[lane] = true;
    }

    /// Drain stall samples accumulated since the previous call (for the
    /// `shard.barrier_stall` metrics distribution).
    pub(crate) fn take_pending_stalls(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.pending_stalls)
    }

    pub(crate) fn stats(&self, lookahead: Duration, wall_ns: impl Fn(usize) -> u64) -> ShardStats {
        ShardStats {
            shards: self.shards,
            windows: self.windows,
            lookahead,
            per_shard: (0..self.shards)
                .map(|i| LaneStats {
                    dispatched: self.dispatched[i],
                    barrier_waits: self.barrier_waits[i],
                    wall_ns: wall_ns(i),
                })
                .collect(),
            stall_hist: self.stall_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_and_barrier_accounting() {
        let mut s = Synchronizer::new(2, false);
        s.open_window(SimTime::ZERO, SimTime(800_000));
        s.note_dispatch(0);
        s.note_dispatch(0);
        // Lane 1 idle through window 1 → charged at the next open.
        s.open_window(SimTime(800_000), SimTime(1_600_000));
        s.note_dispatch(1);
        s.open_window(SimTime(2_000_000), SimTime(2_800_000));
        let st = s.stats(Duration::from_micros(800), |_| 0);
        assert_eq!(st.windows, 3);
        assert_eq!(st.per_shard[0].dispatched, 2);
        assert_eq!(st.per_shard[1].dispatched, 1);
        assert_eq!(st.per_shard[1].barrier_waits, 1);
        // Lane 0 idle in window 2.
        assert_eq!(st.per_shard[0].barrier_waits, 1);
        // One window transition had zero gap, one had a 400us gap.
        assert_eq!(st.stall_hist[0], 1);
        let nonzero: u64 = st.stall_hist[1..].iter().sum();
        assert_eq!(nonzero, 1);
        // Every closed window contributed exactly one stall bucket.
        let total: u64 = st.stall_hist.iter().sum();
        assert_eq!(total + 1, st.windows);
    }

    #[test]
    fn stall_samples_collected_only_when_enabled() {
        let mut s = Synchronizer::new(1, true);
        s.open_window(SimTime::ZERO, SimTime(1_000));
        s.open_window(SimTime(5_000), SimTime(6_000));
        let stalls = s.take_pending_stalls();
        assert_eq!(stalls.len(), 1);
        assert!(stalls[0] > 0.0);
        assert!(s.take_pending_stalls().is_empty());
    }
}
