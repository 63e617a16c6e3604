//! The event queue: a binary heap ordered by `(time, key)`.
//!
//! Events pop in non-decreasing time order, and events at the same instant
//! pop in ascending key order whatever order they were pushed in. Keys are
//! push order for [`EventQueue::push`] and caller-chosen for
//! [`EventQueue::push_seq`], so whole-simulation replays are bit-identical.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry: the event itself for small payloads, a slot index into the
/// queue's slot store for large ones.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Payloads at or below this size stay inline in the heap; larger ones
/// move to the slot store and the heap orders 24-byte `(at, seq, slot)`
/// keys instead. The crossover sits where one extra random store access
/// per pop beats sifting fat entries — measured on a depth-130
/// sliding-window workload, indirection cuts queue time ~38% for ~96-byte
/// simulation events but roughly doubles it for bare `u64` payloads.
const INLINE_MAX_BYTES: usize = 32;

/// Counters describing how hard the event queue worked during a run.
///
/// `scheduled`/`dispatched` are lifetime totals; `peak_depth` is the largest
/// number of simultaneously pending events, the figure long utilization
/// sweeps watch to confirm the kernel stays flat as load grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub scheduled: u64,
    /// Events popped over the queue's lifetime.
    pub dispatched: u64,
    /// Maximum simultaneous pending events.
    pub peak_depth: usize,
    /// Currently pending events.
    pub depth: usize,
}

enum Heap<E> {
    /// Events carried inline in the heap entries.
    Inline(BinaryHeap<Entry<E>>),
    /// Heap over slot keys; events live in the queue's slot store.
    Slab(BinaryHeap<Entry<u32>>),
}

/// A deterministic discrete-event queue.
///
/// Events pop in non-decreasing time order; events at equal times pop in
/// ascending sequence-key order. This tie-break is what makes
/// whole-simulation replays bit-identical across runs and platforms.
pub struct EventQueue<E> {
    heap: Heap<E>,
    /// Free-list slot store for event payloads when the slab
    /// representation is active; unused (and unallocated) otherwise.
    store: Vec<Option<E>>,
    free: Vec<u32>,
    /// Next sequence number [`push`](EventQueue::push) would assign. With
    /// [`push_seq`](EventQueue::push_seq) sequence numbers may be
    /// externally allocated (shared across a sharded kernel's lanes), so
    /// `seq` is an ordering watermark, not a push count.
    seq: u64,
    /// Events pushed over the queue's lifetime.
    scheduled: u64,
    popped: u64,
    /// Currently pending events. Tracked explicitly because `seq` no
    /// longer counts pushes when sequence numbers come from outside.
    depth: usize,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue. The in-memory representation (inline vs. slot
    /// store) is picked from the payload size; both honor the same
    /// ordering contract, so the choice is invisible to everything but the
    /// profiler.
    pub fn new() -> Self {
        EventQueue {
            heap: if std::mem::size_of::<E>() > INLINE_MAX_BYTES {
                Heap::Slab(BinaryHeap::new())
            } else {
                Heap::Inline(BinaryHeap::new())
            },
            store: Vec::new(),
            free: Vec::new(),
            seq: 0,
            scheduled: 0,
            popped: 0,
            depth: 0,
            peak: 0,
        }
    }

    /// Pre-size the backing storage for an expected pending-event depth,
    /// sparing short-lived worlds the first few growth reallocations.
    pub fn reserve(&mut self, depth: usize) {
        match &mut self.heap {
            Heap::Inline(heap) => heap.reserve(depth),
            Heap::Slab(heap) => {
                heap.reserve(depth);
                self.store.reserve(depth);
                self.free.reserve(depth);
            }
        }
    }

    fn store_take(&mut self, slot: u32) -> E {
        let event = self.store[slot as usize]
            .take()
            .expect("heap keys and slot store in sync");
        self.free.push(slot);
        event
    }

    /// Hand `event` to the heap under an already-assigned sequence number.
    /// Shared by [`push`], [`push_seq`] and [`requeue`]; counter
    /// maintenance stays with the callers.
    ///
    /// [`push`]: EventQueue::push
    /// [`push_seq`]: EventQueue::push_seq
    /// [`requeue`]: EventQueue::requeue
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        match &mut self.heap {
            Heap::Inline(heap) => heap.push(Entry { at, seq, event }),
            Heap::Slab(heap) => {
                let slot = if let Some(slot) = self.free.pop() {
                    self.store[slot as usize] = Some(event);
                    slot
                } else {
                    assert!(self.store.len() < u32::MAX as usize, "event queue overflow");
                    self.store.push(Some(event));
                    (self.store.len() - 1) as u32
                };
                heap.push(Entry {
                    at,
                    seq,
                    event: slot,
                });
            }
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.push_seq(at, seq, event);
    }

    /// Schedule `event` at `at` under an externally allocated sequence
    /// key. The parallel kernel assigns machine-affine dispatch keys
    /// ([`crate::DispatchKey`]) at push time; they are unique and strictly
    /// increasing *per origin machine* but arbitrary per queue, so no
    /// watermark is enforced — ties in `at` break by the key's `u64`
    /// order, whatever interleaving the keys arrived in.
    pub fn push_seq(&mut self, at: SimTime, seq: u64, event: E) {
        self.seq = self.seq.max(seq + 1);
        self.scheduled += 1;
        self.place(at, seq, event);
        self.depth += 1;
        if self.depth > self.peak {
            self.peak = self.depth;
        }
    }

    /// Remove and return the earliest event together with its insertion
    /// sequence number, without touching the lifetime counters.
    fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        match &mut self.heap {
            Heap::Inline(heap) => heap.pop().map(|e| (e.at, e.seq, e.event)),
            Heap::Slab(heap) => {
                let e = heap.pop()?;
                Some((e.at, e.seq, self.store_take(e.event)))
            }
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _, event) = self.pop_entry()?;
        self.popped += 1;
        self.depth -= 1;
        Some((at, event))
    }

    /// Remove and return *every* event scheduled for the earliest pending
    /// instant, in FIFO (sequence) order. Each entry carries its original
    /// sequence number so unchosen entries can be [`requeue`]d without
    /// disturbing the tie-break of later pops.
    ///
    /// [`requeue`]: EventQueue::requeue
    pub fn pop_front_batch(&mut self) -> Option<(SimTime, Vec<(u64, E)>)> {
        let at = self.peek_time()?;
        let mut batch = Vec::new();
        while self.peek_time() == Some(at) {
            let (_, seq, event) = self.pop_entry().expect("peeked time implies an event");
            batch.push((seq, event));
        }
        self.popped += batch.len() as u64;
        self.depth -= batch.len();
        Some((at, batch))
    }

    /// Put back an event taken by [`pop_front_batch`] with its original
    /// sequence number, undoing its share of the dispatch accounting.
    /// Requeues may come in any order: the heap restores `(time, seq)`
    /// order on its own.
    ///
    /// [`pop_front_batch`]: EventQueue::pop_front_batch
    pub fn requeue(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "requeue of a sequence never issued");
        self.place(at, seq, event);
        self.popped -= 1;
        self.depth += 1;
    }

    /// Visit every pending event in unspecified order. Intended for
    /// order-independent accounting such as state fingerprinting; nothing
    /// about iteration order is stable.
    pub fn for_each_pending(&self, mut f: impl FnMut(SimTime, u64, &E)) {
        match &self.heap {
            Heap::Inline(heap) => {
                for e in heap.iter() {
                    f(e.at, e.seq, &e.event);
                }
            }
            Heap::Slab(heap) => {
                for e in heap.iter() {
                    let ev = self.store[e.event as usize]
                        .as_ref()
                        .expect("heap keys and slot store in sync");
                    f(e.at, e.seq, ev);
                }
            }
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, sequence)` key of the earliest pending event — what the
    /// lane coordinator compares across lane queues to find the globally
    /// next dispatch without popping.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match &self.heap {
            Heap::Inline(heap) => heap.peek().map(|e| (e.at, e.seq)),
            Heap::Slab(heap) => heap.peek().map(|e| (e.at, e.seq)),
        }
    }

    pub fn len(&self) -> usize {
        self.depth
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled so far (including popped ones).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events dispatched so far.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Largest number of simultaneously pending events so far.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Snapshot of the queue's work counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled,
            dispatched: self.popped,
            peak_depth: self.peak,
            depth: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn batch_pop_and_requeue_preserve_fifo_and_counters() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "a");
        q.push(SimTime(5), "b");
        q.push(SimTime(5), "c");
        q.push(SimTime(9), "z");
        let (at, batch) = q.pop_front_batch().unwrap();
        assert_eq!(at, SimTime(5));
        assert_eq!(
            batch.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        // Dispatch "b"; requeue the rest, last first.
        for (seq, e) in batch.into_iter().rev().filter(|&(_, e)| e != "b") {
            q.requeue(at, seq, e);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(5), "a")));
        assert_eq!(q.pop(), Some((SimTime(5), "c")));
        assert_eq!(q.pop(), Some((SimTime(9), "z")));
        assert_eq!(q.scheduled_total(), 4);
        assert_eq!(q.popped_total(), 4);
    }

    #[test]
    fn push_seq_interleaves_with_external_counter() {
        // Two lanes fed from one shared counter: each lane sees a gapping
        // but increasing sequence stream and pops in global (time, seq)
        // order; depth/scheduled counters track pushes, not the watermark.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut next = 0u64;
        let mut alloc = || {
            let s = next;
            next += 1;
            s
        };
        a.push_seq(SimTime(5), alloc(), "a0");
        b.push_seq(SimTime(5), alloc(), "b0");
        b.push_seq(SimTime(3), alloc(), "b1");
        a.push_seq(SimTime(5), alloc(), "a1");
        assert_eq!(a.len(), 2);
        assert_eq!(a.scheduled_total(), 2);
        assert_eq!(b.peek_key(), Some((SimTime(3), 2)));
        assert_eq!(a.peek_key(), Some((SimTime(5), 0)));
        assert_eq!(b.pop(), Some((SimTime(3), "b1")));
        assert_eq!(b.peek_key(), Some((SimTime(5), 1)));
        assert_eq!(a.pop(), Some((SimTime(5), "a0")));
        assert_eq!(b.pop(), Some((SimTime(5), "b0")));
        assert_eq!(a.pop(), Some((SimTime(5), "a1")));
        assert_eq!(a.stats().depth + b.stats().depth, 0);
    }

    #[test]
    fn peek_key_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        for (t, v) in [(30u64, 0u64), (10, 1), (10, 2), (900_000, 3), (10, 4)] {
            q.push(SimTime(t), v);
        }
        while let Some((at, seq)) = q.peek_key() {
            let (pat, _) = q.pop().unwrap();
            assert_eq!(pat, at);
            // seq numbers were assigned in push order 0..5.
            assert!(seq < 5);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn for_each_pending_sees_exactly_the_pending_multiset() {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.push(SimTime(i % 4), i);
        }
        q.pop();
        q.pop();
        let mut seen = Vec::new();
        q.for_each_pending(|at, _seq, &ev| seen.push((at, ev)));
        assert_eq!(seen.len(), q.len());
        seen.sort();
        let mut expect: Vec<_> = (0..20u64).map(|i| (SimTime(i % 4), i)).collect();
        expect.sort();
        assert_eq!(seen, expect[2..].to_vec());
    }

    #[test]
    fn counters_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), ());
        q.push(SimTime(3), ());
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.peak_depth(), 2);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashSet;
    use std::fmt::Debug;

    /// Popping never yields a time earlier than the previous pop, and
    /// every pushed event comes back exactly once.
    #[test]
    fn pops_are_monotone_and_complete() {
        let mut rng = SimRng::seeded(0x0101);
        for _ in 0..128 {
            let times: Vec<u64> = (0..rng.uniform_u64(1, 200))
                .map(|_| rng.uniform_u64(0, 1_000))
                .collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut seen = vec![false; times.len()];
            let mut last = SimTime::ZERO;
            while let Some((at, idx)) = q.pop() {
                assert!(at >= last);
                assert_eq!(at, SimTime(times[idx]));
                assert!(!seen[idx]);
                seen[idx] = true;
                last = at;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// FIFO among equal timestamps holds for arbitrary interleavings.
    #[test]
    fn fifo_within_timestamp() {
        let mut rng = SimRng::seeded(0x0202);
        for _ in 0..128 {
            let times: Vec<u64> = (0..rng.uniform_u64(1, 100))
                .map(|_| rng.uniform_u64(0, 5))
                .collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut last_seq_at: std::collections::HashMap<u64, usize> = Default::default();
            while let Some((at, idx)) = q.pop() {
                if let Some(&prev) = last_seq_at.get(&at.0) {
                    assert!(idx > prev, "FIFO violated at t={}", at.0);
                }
                last_seq_at.insert(at.0, idx);
            }
        }
    }

    /// The queue next to a sorted-`Vec` model of its contract: `model`
    /// holds the pending `(at, seq, id)` triples in ascending order, so
    /// its head is what the queue must pop next.
    struct Model {
        pending: Vec<(SimTime, u64, u64)>,
        seq: u64,
        stats: QueueStats,
    }

    impl Model {
        fn insert(&mut self, at: SimTime, seq: u64, id: u64) {
            let pos = self
                .pending
                .partition_point(|&(t, s, _)| (t, s) < (at, seq));
            self.pending.insert(pos, (at, seq, id));
            self.stats.depth += 1;
        }

        fn push(&mut self, at: SimTime, seq: u64, id: u64) {
            self.seq = self.seq.max(seq + 1);
            self.insert(at, seq, id);
            self.stats.scheduled += 1;
            self.stats.peak_depth = self.stats.peak_depth.max(self.stats.depth);
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
            if self.pending.is_empty() {
                return None;
            }
            self.stats.depth -= 1;
            self.stats.dispatched += 1;
            Some(self.pending.remove(0))
        }
    }

    /// Drive the queue and the model through the same random stream of
    /// `push`, `push_seq` with machine-affine keys, `pop`, and
    /// `pop_front_batch` + shuffled `requeue` (what `World`'s schedule
    /// oracle does), checking every popped event, every peeked key and
    /// the counters along the way.
    fn matches_sorted_vec_model<P: PartialEq + Debug>(payload: impl Fn(u64) -> P) {
        let mut rng = SimRng::seeded(0x0505);
        for round in 0..48 {
            let mut q = EventQueue::new();
            let mut model = Model {
                pending: Vec::new(),
                seq: 0,
                stats: QueueStats::default(),
            };
            // Per-origin key streams in the lane kernel's shape,
            // `(origin << 40) | local`: strictly increasing per origin,
            // interleaved arbitrarily across origins. `push` keys come
            // from the queue's watermark; `issued` keeps every key unique.
            let mut local = [0u64; 4];
            let mut issued = HashSet::new();
            let mut now = 0u64;
            for id in 0..600u64 {
                assert_eq!(
                    q.peek_key(),
                    model.pending.first().map(|&(t, s, _)| (t, s)),
                    "round {round}"
                );
                // Multiples of 4 within a few µs of `now` make ties common.
                let spread = 1 << rng.uniform_u64(0, 16);
                let at = SimTime(now + rng.uniform_u64(0, spread) / 4 * 4);
                match rng.uniform_u64(0, 10) {
                    0..=1 => {
                        issued.insert(model.seq);
                        model.push(at, model.seq, id);
                        q.push(at, payload(id));
                    }
                    2..=4 => {
                        let origin = rng.index(local.len());
                        let key = loop {
                            local[origin] += rng.uniform_u64(1, 4);
                            let key = ((origin as u64) << 40) | local[origin];
                            if issued.insert(key) {
                                break key;
                            }
                        };
                        model.push(at, key, id);
                        q.push_seq(at, key, payload(id));
                    }
                    5..=6 => {
                        let want = model.pop();
                        assert_eq!(q.pop(), want.map(|(t, _, id)| (t, payload(id))));
                        now = want.map_or(now, |(t, _, _)| t.0);
                    }
                    _ => {
                        let Some((at, batch)) = q.pop_front_batch() else {
                            assert!(model.pending.is_empty());
                            continue;
                        };
                        let want: Vec<_> = std::iter::from_fn(|| {
                            (model.pending.first()?.0 == at).then(|| model.pop().unwrap())
                        })
                        .collect();
                        let expect: Vec<_> =
                            want.iter().map(|&(_, s, id)| (s, payload(id))).collect();
                        assert_eq!(batch, expect, "round {round}");
                        // Dispatch a random subset and requeue the rest in
                        // shuffled order.
                        let mut entries: Vec<_> = batch.into_iter().zip(want).collect();
                        for i in (1..entries.len()).rev() {
                            entries.swap(i, rng.index(i + 1));
                        }
                        let keep = rng.index(entries.len() + 1);
                        for ((seq, p), (t, _, id)) in entries.drain(keep..) {
                            q.requeue(at, seq, p);
                            model.insert(t, seq, id);
                            model.stats.dispatched -= 1;
                        }
                        now = at.0;
                    }
                }
                assert_eq!(q.stats(), model.stats, "round {round}");
            }
            while let Some((t, _, id)) = model.pop() {
                assert_eq!(q.pop(), Some((t, payload(id))), "round {round}");
            }
            assert_eq!(q.pop(), None);
            assert_eq!(q.stats(), model.stats, "round {round}");
        }
    }

    #[test]
    fn inline_payload_matches_sorted_vec_model() {
        assert!(std::mem::size_of::<u64>() <= INLINE_MAX_BYTES);
        matches_sorted_vec_model(|id| id);
    }

    #[test]
    fn slot_store_payload_matches_sorted_vec_model() {
        #[derive(Debug, PartialEq)]
        struct Big([u64; 12]);
        assert!(std::mem::size_of::<Big>() > INLINE_MAX_BYTES);
        matches_sorted_vec_model(|id| Big([id; 12]));
    }
}
