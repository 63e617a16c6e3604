//! # rb-simcore — deterministic discrete-event simulation kernel
//!
//! A minimal, domain-agnostic event kernel: virtual time, a stable-ordered
//! event queue, a seeded random-number generator, and recorders for traces
//! and summary statistics. `rb-simnet` builds the cluster substrate on top
//! of this.
//!
//! Determinism contract: given the same seed and the same sequence of
//! `schedule` calls, a simulation replays identically. Ties in time are
//! broken by insertion sequence number, never by heap internals.

pub mod arena;
pub mod fxhash;
pub mod json;
pub mod key;
pub mod metrics;
pub mod prof;
pub mod queue;
pub mod registry;
pub mod rng;
pub mod sink;
pub mod span;
pub mod spsc;
pub mod time;
pub mod trace;

pub use arena::{Slab, SlabKey};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use json::Json;
pub use key::{merge_dispatch_logs, DispatchKey, KeyStream};
pub use metrics::{Histogram, Series, Summary};
pub use prof::{ProfEntry, ProfTimer, Profiler};
pub use queue::{EventQueue, QueueStats, ScheduleOracle};
pub use registry::MetricsRegistry;
pub use rng::SimRng;
pub use sink::{FullSink, RingSink, StreamSink, TraceSink};
pub use span::{SpanForest, SpanId, SpanRecord, SpanTracker};
pub use spsc::SpscRing;
pub use time::{Duration, SimTime};
pub use trace::{
    parse_rendered, parse_stats_comment, Topic, TraceEvent, TraceFileStats, TraceRecorder,
};
