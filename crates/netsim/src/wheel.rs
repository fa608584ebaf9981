//! The hierarchical timing wheel behind [`QueueKind::Wheel`], plus the
//! [`EventQueue`] façade the event loop schedules through.
//!
//! A `BinaryHeap` pays `O(log n)` per push/pop and one allocation per
//! queued event. The wheel makes the common case ~O(1): a calendar
//! queue of [`LEVELS`] levels × [`SLOTS`] slots (6 bits of the
//! microsecond timestamp per level), per-level occupancy bitmasks so
//! find-min is a `trailing_zeros`, and an [`EventPool`] slab that
//! recycles queued-event records instead of allocating per event.
//!
//! # Pop-order contract
//!
//! The wheel pops in exactly the heap's total order — the full
//! `(time, seq)` [`EventKey`] — under arbitrary interleaving of
//! pushes and pops. Three auxiliary structures close the gaps a plain
//! wheel would leave (DESIGN.md §16 carries the argument in full):
//!
//! * **bucket** — all events at the frontier timestamp, kept as a tiny
//!   binary heap ordered by full key. Same-timestamp ties (including
//!   zero-delay self-events created *while* the timestamp is being
//!   drained) funnel through it in key order.
//! * **backlog** — a heap for the rare push strictly before the wheel
//!   frontier `cur` (a `schedule_route_change` between run segments
//!   after a peek advanced the frontier). Pop compares backlog and
//!   bucket heads by full key, so strays still come out in global order.
//! * **overflow** — a heap for events beyond the wheel horizon
//!   (`2^42` µs ≈ 51 days from `cur`); when the wheel empties, the
//!   frontier jumps to the overflow minimum and every event sharing its
//!   high bits migrates into the wheel.
//!
//! Until the first pop/peek after the queue was (re-)emptied the wheel
//! is *unbased*: pushes collect in a staging list and the frontier is
//! fixed at the staged minimum on first use. This keeps arbitrary
//! push orders cheap at topology-build time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::sim::{Event, EventKey, Queued};

/// Bits of the timestamp consumed per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level (one occupancy `u64` per level).
pub(crate) const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `2^(6*7) = 2^42` µs from `cur`.
pub(crate) const LEVELS: usize = 7;
/// Timestamp bits the wheel levels can represent relative to `cur`.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;

const NIL: u32 = u32::MAX;

/// Which event-queue implementation a [`Simulator`](crate::Simulator)
/// schedules through. Both produce byte-identical runs; the heap is the
/// original `BinaryHeap` kept as the live oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The original `BinaryHeap<Reverse<Queued>>`: `O(log n)` per
    /// operation, one allocation per queued event. Kept verbatim as the
    /// oracle the wheel is property-tested against.
    Heap,
    /// Hierarchical timing wheel over a recycling event pool: ~O(1)
    /// push/pop in the common case. The default.
    #[default]
    Wheel,
}

/// One pooled queued-event record. `next` chains the intrusive per-slot
/// FIFO lists and the free list.
struct PoolSlot {
    key: EventKey,
    event: Event,
    next: u32,
}

/// Inert placeholder occupying freed pool slots (dropping the real
/// event's payload eagerly).
fn vacant_event() -> Event {
    Event::Timer {
        node: NodeId(0),
        token: 0,
    }
}

/// Slab of queued-event records with an intrusive free list: push
/// recycles a freed record instead of allocating, so steady-state
/// scheduling does no per-event allocation.
struct EventPool {
    slots: Vec<PoolSlot>,
    free_head: u32,
}

impl EventPool {
    fn new() -> Self {
        EventPool {
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    fn alloc(&mut self, q: Queued) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.key = q.key;
            slot.event = q.event;
            slot.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event pool overflow");
            self.slots.push(PoolSlot {
                key: q.key,
                event: q.event,
                next: NIL,
            });
            idx
        }
    }

    fn free(&mut self, idx: u32) -> Queued {
        let slot = &mut self.slots[idx as usize];
        let key = slot.key;
        let event = std::mem::replace(&mut slot.event, vacant_event());
        slot.next = self.free_head;
        self.free_head = idx;
        Queued { key, event }
    }

    fn key(&self, idx: u32) -> EventKey {
        self.slots[idx as usize].key
    }
}

/// A pooled event plus its key, ordered by key — the element type of
/// the bucket and overflow heaps.
struct PooledEntry {
    key: EventKey,
    idx: u32,
}

impl PartialEq for PooledEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for PooledEntry {}
impl PartialOrd for PooledEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PooledEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Head/tail of one slot's intrusive FIFO list into the pool.
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// The hierarchical timing wheel. See the module docs for the layout
/// and the pop-order contract.
pub(crate) struct TimingWheel {
    pool: EventPool,
    levels: Vec<[SlotList; SLOTS]>,
    occupancy: [u64; LEVELS],
    /// Frontier: the timestamp the wheel is currently based at. All
    /// wheel content is at `cur ..= cur + 2^42 - 1` µs (events outside
    /// live in `overflow`, strays below in `backlog`). Only meaningful
    /// while `based`.
    cur: u64,
    based: bool,
    /// Pool indexes pushed while unbased, placed on first frontier use.
    staging: Vec<u32>,
    /// Events at exactly `cur`, popped in full-key order.
    bucket: BinaryHeap<Reverse<PooledEntry>>,
    /// Events pushed below `cur` (rare; see module docs).
    backlog: BinaryHeap<Reverse<Queued>>,
    /// Events at or beyond `cur + 2^42` µs.
    overflow: BinaryHeap<Reverse<PooledEntry>>,
    len: usize,
}

impl TimingWheel {
    pub(crate) fn new() -> Self {
        TimingWheel {
            pool: EventPool::new(),
            levels: vec![[EMPTY_SLOT; SLOTS]; LEVELS],
            occupancy: [0; LEVELS],
            cur: 0,
            based: false,
            staging: Vec::new(),
            bucket: BinaryHeap::new(),
            backlog: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, q: Queued) {
        self.len += 1;
        if !self.based {
            let idx = self.pool.alloc(q);
            self.staging.push(idx);
            return;
        }
        let t = q.key.at.as_micros();
        if t < self.cur {
            self.backlog.push(Reverse(q));
            return;
        }
        if t == self.cur && !self.bucket.is_empty() {
            // The frontier timestamp is being drained right now; joining
            // the bucket keeps full-key order among its remaining ties.
            let key = q.key;
            let idx = self.pool.alloc(q);
            self.bucket.push(Reverse(PooledEntry { key, idx }));
            return;
        }
        let idx = self.pool.alloc(q);
        self.place(idx, t);
    }

    /// File a pooled event into its wheel level (or overflow). Requires
    /// `based` and `t >= self.cur`.
    fn place(&mut self, idx: u32, t: u64) {
        debug_assert!(self.based && t >= self.cur);
        let diff = t ^ self.cur;
        if diff >> HORIZON_BITS != 0 {
            let key = self.pool.key(idx);
            self.overflow.push(Reverse(PooledEntry { key, idx }));
            return;
        }
        // Highest 6-bit group where `t` differs from the frontier; all
        // lower groups stay ambiguous until the wheel cascades down to
        // this level, which is exactly when they become decisive.
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
        };
        let slot = ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let list = &mut self.levels[level][slot];
        if list.head == NIL {
            list.head = idx;
        } else {
            self.pool.slots[list.tail as usize].next = idx;
        }
        list.tail = idx;
        self.occupancy[level] |= 1 << slot;
    }

    /// Detach a slot's FIFO list, returning its head.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let list = std::mem::replace(&mut self.levels[level][slot], EMPTY_SLOT);
        self.occupancy[level] &= !(1u64 << slot);
        list.head
    }

    /// Advance the frontier until the bucket holds the earliest wheel
    /// timestamp (or the wheel side is empty). Sound because `cur` only
    /// ever advances to the minimum *pending* wheel timestamp — never
    /// past an event still queued — so causal pushes (always at or
    /// after the event being processed) land at or after `cur`, and the
    /// acausal remainder is exactly what `backlog` absorbs.
    fn ensure_frontier(&mut self) {
        if !self.based {
            if self.staging.is_empty() {
                return;
            }
            self.cur = self
                .staging
                .iter()
                .map(|&idx| self.pool.key(idx).at.as_micros())
                .min()
                .expect("staging non-empty");
            self.based = true;
            for idx in std::mem::take(&mut self.staging) {
                let t = self.pool.key(idx).at.as_micros();
                self.place(idx, t);
            }
        }
        loop {
            if !self.bucket.is_empty() {
                return;
            }
            // Level 0: one timestamp per slot — drain it into the bucket.
            if self.occupancy[0] != 0 {
                let slot = self.occupancy[0].trailing_zeros() as usize;
                let mut idx = self.take_slot(0, slot);
                self.cur = (self.cur & !SLOT_MASK) | slot as u64;
                while idx != NIL {
                    let next = self.pool.slots[idx as usize].next;
                    self.pool.slots[idx as usize].next = NIL;
                    let key = self.pool.key(idx);
                    debug_assert_eq!(key.at.as_micros(), self.cur);
                    self.bucket.push(Reverse(PooledEntry { key, idx }));
                    idx = next;
                }
                return;
            }
            // Cascade the first occupied slot of the lowest occupied
            // level: rebase the frontier on that slot's prefix and
            // re-place its events, which now land strictly below it.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if self.occupancy[level] == 0 {
                    continue;
                }
                let slot = self.occupancy[level].trailing_zeros() as usize;
                let mut idx = self.take_slot(level, slot);
                let shift = SLOT_BITS * level as u32;
                self.cur =
                    (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((slot as u64) << shift);
                while idx != NIL {
                    let next = self.pool.slots[idx as usize].next;
                    self.pool.slots[idx as usize].next = NIL;
                    let t = self.pool.key(idx).at.as_micros();
                    self.place(idx, t);
                    idx = next;
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Inner wheel empty: jump to the overflow minimum and pull
            // in its whole 2^42 µs window.
            let Some(Reverse(head)) = self.overflow.peek() else {
                return;
            };
            let base = head.key.at.as_micros();
            self.cur = base;
            let window = base >> HORIZON_BITS;
            while let Some(Reverse(head)) = self.overflow.peek() {
                if head.key.at.as_micros() >> HORIZON_BITS != window {
                    break;
                }
                let Reverse(entry) = self.overflow.pop().expect("peeked");
                self.place(entry.idx, entry.key.at.as_micros());
            }
        }
    }

    pub(crate) fn peek_key(&mut self) -> Option<EventKey> {
        self.ensure_frontier();
        let wheel_min = self.bucket.peek().map(|Reverse(e)| e.key);
        let backlog_min = self.backlog.peek().map(|Reverse(q)| q.key);
        match (wheel_min, backlog_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Queued> {
        self.ensure_frontier();
        let from_backlog = match (self.bucket.peek(), self.backlog.peek()) {
            (Some(Reverse(e)), Some(Reverse(q))) => q.key < e.key,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        let q = if from_backlog {
            let Reverse(q) = self.backlog.pop().expect("peeked");
            q
        } else {
            let Reverse(entry) = self.bucket.pop().expect("peeked");
            self.pool.free(entry.idx)
        };
        self.len -= 1;
        if self.len == 0 {
            // Fully drained: forget the frontier so the next batch of
            // pushes re-bases at its own minimum instead of landing in
            // the backlog below a stale `cur`.
            self.based = false;
        }
        Some(q)
    }
}

/// The event queue the simulator schedules through: the original
/// binary heap or the timing wheel, selected by [`QueueKind`].
pub(crate) enum EventQueue {
    Heap(BinaryHeap<Reverse<Queued>>),
    Wheel(Box<TimingWheel>),
}

impl EventQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            QueueKind::Wheel => EventQueue::Wheel(Box::new(TimingWheel::new())),
        }
    }

    pub(crate) fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Heap(_) => QueueKind::Heap,
            EventQueue::Wheel(_) => QueueKind::Wheel,
        }
    }

    pub(crate) fn push(&mut self, q: Queued) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(q)),
            EventQueue::Wheel(w) => w.push(q),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Queued> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(q)| q),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// Key of the earliest pending event. Takes `&mut self` because the
    /// wheel advances its frontier to answer (a pure state-machine step;
    /// observable order is unchanged).
    pub(crate) fn peek_key(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(q)| q.key),
            EventQueue::Wheel(w) => w.peek_key(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One scheduler operation captured by
/// [`Simulator::record_schedule`](crate::Simulator::record_schedule).
///
/// A recorded run is a flat sequence of these; replaying it through
/// [`replay_schedule`] exercises a queue kind with exactly the push/pop
/// interleaving, timestamps, and depth profile of the original
/// simulation, but none of its dispatch work — a scheduler-isolated
/// benchmark on a real workload's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOp {
    /// An event was scheduled for this absolute simulation time (µs).
    Push(u64),
    /// The earliest pending event was dequeued.
    Pop,
}

/// Replay a recorded schedule through a fresh queue of `kind` and
/// return the number of events popped.
///
/// Every push carries a minimal `Timer` payload and a monotonic
/// insertion key, identical across kinds, so the measured cost is the
/// queue discipline itself (plus the pool/allocator traffic it
/// implies) and nothing else. Popped keys are folded into a checksum
/// handed to [`std::hint::black_box`] so the loop cannot be optimized
/// away.
#[must_use]
pub fn replay_schedule(ops: &[ScheduleOp], kind: QueueKind) -> u64 {
    let mut queue = EventQueue::new(kind);
    let mut seq = 0u64;
    let mut pops = 0u64;
    let mut checksum = 0u64;
    for &op in ops {
        match op {
            ScheduleOp::Push(at) => {
                queue.push(Queued {
                    key: EventKey {
                        at: crate::time::SimTime::from_micros(at),
                        seq,
                    },
                    event: Event::Timer {
                        node: NodeId(0),
                        token: seq,
                    },
                });
                seq += 1;
            }
            ScheduleOp::Pop => {
                if let Some(q) = queue.pop() {
                    checksum ^= q.key.at.as_micros().wrapping_mul(q.key.seq | 1);
                    pops += 1;
                }
            }
        }
    }
    std::hint::black_box(checksum);
    pops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn q(at: u64, seq: u64) -> Queued {
        Queued {
            key: EventKey {
                at: SimTime::from_micros(at),
                seq,
            },
            event: Event::Timer {
                node: NodeId(0),
                token: seq,
            },
        }
    }

    fn drain_keys(w: &mut TimingWheel) -> Vec<EventKey> {
        let mut out = Vec::new();
        while let Some(popped) = w.pop() {
            out.push(popped.key);
        }
        out
    }

    #[test]
    fn pops_in_full_key_order() {
        let mut w = TimingWheel::new();
        let mut keys: Vec<EventKey> = Vec::new();
        // Same-time tie bursts, distinct times, out-of-order pushes.
        for (at, seq) in [
            (50, 6),
            (10, 4),
            (50, 3),
            (50, 2),
            (0, 9),
            (10, 1),
            (1 << 20, 0),
            (50, 7),
        ] {
            w.push(q(at, seq));
            keys.push(q(at, seq).key);
        }
        keys.sort();
        assert_eq!(drain_keys(&mut w), keys);
    }

    #[test]
    fn same_timestamp_push_during_drain_joins_bucket() {
        let mut w = TimingWheel::new();
        w.push(q(100, 5));
        w.push(q(100, 7));
        // Start draining t=100.
        let first = w.pop().unwrap();
        assert_eq!(first.key.seq, 5);
        // An event joining the timestamp mid-drain with a *lower* key
        // than the remaining tie must still pop before it.
        w.push(q(100, 6));
        assert_eq!(w.pop().unwrap().key.seq, 6);
        assert_eq!(w.pop().unwrap().key.seq, 7);
        assert!(w.pop().is_none());
    }

    #[test]
    fn push_below_frontier_lands_in_backlog_and_pops_first() {
        let mut w = TimingWheel::new();
        w.push(q(1_000, 0));
        w.push(q(5_000, 1));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 1_000);
        // Frontier has advanced past 1 000; a later environment-style
        // push below it must still come out in time order.
        assert_eq!(w.peek_key().unwrap().at.as_micros(), 5_000);
        w.push(q(2_000, 2));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 2_000);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 5_000);
    }

    /// Satellite: rollover across a wheel-level boundary. Times chosen
    /// to straddle slot and level boundaries at level 0/1/2 (64 µs and
    /// 4096 µs periods) so cascades re-place events correctly.
    #[test]
    fn level_boundary_rollover_keeps_order() {
        let mut w = TimingWheel::new();
        let mut expect = Vec::new();
        let boundaries = [63, 64, 65, 4_095, 4_096, 4_097, 262_143, 262_144];
        for (i, &at) in boundaries.iter().enumerate() {
            w.push(q(at, i as u64));
            expect.push(q(at, i as u64).key);
        }
        expect.sort();
        assert_eq!(drain_keys(&mut w), expect);
    }

    /// Interleaved pop/push across a level boundary: after draining the
    /// last slot of a level-0 revolution the cascade must pick up the
    /// next level-1 slot, including events pushed after basing.
    #[test]
    fn interleaved_rollover_across_level_boundary() {
        let mut w = TimingWheel::new();
        w.push(q(60, 0));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 60);
        // Frontier now 60; push just past the level-0 horizon (64) and
        // beyond the level-1 horizon (4096).
        w.push(q(63, 1));
        w.push(q(64, 2));
        w.push(q(5_000, 3));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 63);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 64);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 5_000);
        assert!(w.pop().is_none());
    }

    #[test]
    fn far_future_times_go_through_overflow() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 50; // beyond the 2^42 µs horizon
        w.push(q(5, 0));
        w.push(q(far + 3, 1));
        w.push(q(far, 2));
        w.push(q(far + (1 << 44), 3)); // a *different* overflow window
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 5);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), far);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), far + 3);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), far + (1 << 44));
        assert!(w.pop().is_none());
    }

    #[test]
    fn drained_wheel_rebases_for_late_pushes() {
        let mut w = TimingWheel::new();
        w.push(q(1 << 30, 0));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 1 << 30);
        assert!(w.pop().is_none());
        // Empty again: pushes far below the stale frontier must take
        // the fast wheel path (re-based), not the backlog.
        w.push(q(7, 1));
        w.push(q(3, 2));
        assert!(w.backlog.is_empty());
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 3);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 7);
    }

    #[test]
    fn pool_recycles_slots() {
        let mut w = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.push(q(round * 1_000 + i, round * 100 + i));
            }
            for _ in 0..100 {
                w.pop().unwrap();
            }
        }
        // 1000 events passed through, but the slab never held more than
        // one round's worth.
        assert!(w.pool.slots.len() <= 100);
    }

    /// Randomized differential check against a `BinaryHeap` with
    /// interleaved pushes and pops (a deterministic xorshift drives the
    /// schedule; the proptest suite in `tests/` covers the adversarial
    /// cases).
    #[test]
    fn differential_vs_heap_interleaved() {
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
        let mut now = 0u64;
        for i in 0..20_000u64 {
            let r = step();
            if r % 3 != 0 {
                // Push at or after the last popped time, with occasional
                // same-time ties and far-future jumps.
                let delta = match r % 7 {
                    0 => 0,
                    1..=4 => r % 1_024,
                    5 => r % (1 << 20),
                    _ => 1 << (36 + (r % 12)),
                };
                // `seq` is not monotone in push order, so same-time ties
                // exercise the bucket's key order, not just FIFO.
                let seq = (r % 5) << 32 | i;
                wheel.push(q(now + delta, seq));
                heap.push(Reverse(q(now + delta, seq)));
            } else {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse(x)| x);
                match (&got, &want) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.key, b.key, "diverged at step {i}");
                        now = a.key.at.as_micros();
                    }
                    _ => panic!("one queue empty, the other not, at step {i}"),
                }
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(wheel.pop().unwrap().key, want.key);
        }
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn replay_schedule_drains_both_kinds_fully() {
        // A schedule shaped like a sim run: a burst of pushes, then
        // interleaved pop/push pairs, then a drain.
        let mut ops = Vec::new();
        let mut t = 0u64;
        for i in 0..100 {
            ops.push(ScheduleOp::Push(i * 17));
        }
        for i in 0..1_000u64 {
            ops.push(ScheduleOp::Pop);
            t += i % 3;
            ops.push(ScheduleOp::Push(t + 1_000));
        }
        for _ in 0..1_100 {
            ops.push(ScheduleOp::Pop);
        }
        assert_eq!(replay_schedule(&ops, QueueKind::Heap), 1_100);
        assert_eq!(replay_schedule(&ops, QueueKind::Wheel), 1_100);
    }
}
