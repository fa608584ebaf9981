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
//!
//! # Cancellation
//!
//! [`TimingWheel::cancel`] takes a pending event out in O(1). Slot
//! lists are doubly linked, so an entry in one is unlinked and its pool
//! slot freed at once. An entry in the bucket, staging, overflow or
//! backlog is only marked; it is dropped, unseen, wherever it is next
//! met. Either way it leaves [`len`](TimingWheel::len) at once, and
//! cancelling the last live entry empties and unbases the wheel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::fxhash::FxBuild;
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

/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;
/// `prev` of a pending entry outside the slot lists (staging, bucket,
/// overflow or backlog).
const DETACHED: u32 = u32::MAX - 1;
/// `prev` of a free pool slot.
const FREE: u32 = u32::MAX - 2;
/// `next` of a detached entry that was cancelled.
const CANCELLED: u32 = u32::MAX - 1;

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

/// One pooled queued-event record. `next` and `prev` link the per-slot
/// FIFO lists; `next` also chains the free list.
pub(crate) struct PoolSlot {
    key: EventKey,
    event: Event,
    next: u32,
    prev: u32,
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

    /// Store `q` as a detached entry.
    fn alloc(&mut self, q: Queued) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.key = q.key;
            slot.event = q.event;
            slot.next = NIL;
            slot.prev = DETACHED;
            idx
        } else {
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i < FREE)
                .expect("event pool overflow");
            self.slots.push(PoolSlot {
                key: q.key,
                event: q.event,
                next: NIL,
                prev: DETACHED,
            });
            idx
        }
    }

    fn free(&mut self, idx: u32) -> Queued {
        let slot = &mut self.slots[idx as usize];
        let key = slot.key;
        let event = std::mem::replace(&mut slot.event, vacant_event());
        slot.next = self.free_head;
        slot.prev = FREE;
        self.free_head = idx;
        Queued { key, event }
    }

    fn key(&self, idx: u32) -> EventKey {
        self.slots[idx as usize].key
    }

    /// Mark a detached entry cancelled and drop its payload now.
    fn mark_cancelled(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.prev, DETACHED);
        slot.next = CANCELLED;
        slot.event = vacant_event();
    }

    fn is_cancelled(&self, idx: u32) -> bool {
        self.slots[idx as usize].next == CANCELLED
    }
}

/// A pooled event plus its key, ordered by key — the element type of
/// the bucket, backlog and overflow heaps.
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

/// Pop the cancelled entries off the top of a pooled heap, freeing
/// their slots, so its head is live (or it is empty).
fn purge_head(heap: &mut BinaryHeap<Reverse<PooledEntry>>, pool: &mut EventPool) {
    while let Some(Reverse(head)) = heap.peek() {
        if !pool.is_cancelled(head.idx) {
            return;
        }
        let Reverse(entry) = heap.pop().expect("peeked");
        pool.free(entry.idx);
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

/// The wheel level of a timestamp that differs from the frontier in
/// the bits `diff` (below the horizon): its highest differing 6-bit
/// group. All lower groups stay ambiguous until the wheel cascades
/// down to this level, which is exactly when they become decisive.
fn level_of(diff: u64) -> usize {
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
    }
}

fn slot_of(t: u64, level: usize) -> usize {
    ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize
}

/// The hierarchical timing wheel. See the module docs for the layout,
/// the pop-order contract and cancellation.
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
    backlog: BinaryHeap<Reverse<PooledEntry>>,
    /// Events at or beyond `cur + 2^42` µs.
    overflow: BinaryHeap<Reverse<PooledEntry>>,
    /// Live (pushed, not yet popped or cancelled) events.
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

    /// Queue `q`; returns its pool index, the handle
    /// [`cancel`](Self::cancel) takes while the event is pending.
    pub(crate) fn push(&mut self, q: Queued) -> u32 {
        self.len += 1;
        let key = q.key;
        let t = key.at.as_micros();
        let idx = self.pool.alloc(q);
        if !self.based {
            self.staging.push(idx);
        } else if t < self.cur {
            self.backlog.push(Reverse(PooledEntry { key, idx }));
        } else if t == self.cur && !self.bucket.is_empty() {
            // The frontier timestamp is being drained right now; joining
            // the bucket keeps full-key order among its remaining ties.
            self.bucket.push(Reverse(PooledEntry { key, idx }));
        } else {
            self.place(idx, t);
        }
        idx
    }

    /// File a pooled event into its wheel level (or overflow). Requires
    /// `based` and `t >= self.cur`.
    fn place(&mut self, idx: u32, t: u64) {
        debug_assert!(self.based && t >= self.cur);
        let diff = t ^ self.cur;
        if diff >> HORIZON_BITS != 0 {
            let slot = &mut self.pool.slots[idx as usize];
            slot.next = NIL;
            slot.prev = DETACHED;
            let key = slot.key;
            self.overflow.push(Reverse(PooledEntry { key, idx }));
            return;
        }
        let level = level_of(diff);
        let slot = slot_of(t, level);
        let list = &mut self.levels[level][slot];
        let tail = list.tail;
        if tail == NIL {
            list.head = idx;
        } else {
            self.pool.slots[tail as usize].next = idx;
        }
        list.tail = idx;
        let entry = &mut self.pool.slots[idx as usize];
        entry.next = NIL;
        entry.prev = tail;
        self.occupancy[level] |= 1 << slot;
    }

    /// Detach a slot's FIFO list, returning its head.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let list = std::mem::replace(&mut self.levels[level][slot], EMPTY_SLOT);
        self.occupancy[level] &= !(1u64 << slot);
        list.head
    }

    /// Cancel the pending event at pool index `idx` (a handle
    /// [`push`](Self::push) returned, for an event not yet popped or
    /// cancelled).
    pub(crate) fn cancel(&mut self, idx: u32) {
        let slot = &self.pool.slots[idx as usize];
        assert!(
            slot.prev != FREE && slot.next != CANCELLED,
            "cancel of an event that is no longer pending"
        );
        if slot.prev == DETACHED {
            self.pool.mark_cancelled(idx);
        } else {
            self.unlink(idx);
            self.pool.free(idx);
        }
        self.len -= 1;
        if self.len == 0 {
            self.release_cancelled();
        }
    }

    /// Unlink a slot-list entry. Its list is recomputed from the key:
    /// `cur` never passes a pending event and only advances into a
    /// slot by cascading it, so while an entry sits in a list its
    /// highest 6-bit group differing from `cur` is still the one
    /// [`place`](Self::place) filed it by.
    fn unlink(&mut self, idx: u32) {
        let PoolSlot {
            key, next, prev, ..
        } = self.pool.slots[idx as usize];
        let t = key.at.as_micros();
        let level = level_of(t ^ self.cur);
        let slot = slot_of(t, level);
        let list = &mut self.levels[level][slot];
        if prev == NIL {
            debug_assert_eq!(list.head, idx, "entry not in its computed list");
            list.head = next;
        } else {
            self.pool.slots[prev as usize].next = next;
        }
        if next == NIL {
            debug_assert_eq!(list.tail, idx, "entry not in its computed list");
            list.tail = prev;
        } else {
            self.pool.slots[next as usize].prev = prev;
        }
        if list.head == NIL {
            self.occupancy[level] &= !(1u64 << slot);
        }
    }

    /// With no live event left, free every cancelled entry still
    /// parked in staging, bucket, overflow or backlog and unbase, so the
    /// next batch of pushes re-bases at its own minimum instead of
    /// landing in the backlog below a stale `cur`.
    fn release_cancelled(&mut self) {
        debug_assert!(self.occupancy.iter().all(|&o| o == 0));
        for idx in std::mem::take(&mut self.staging) {
            self.pool.free(idx);
        }
        for heap in [&mut self.bucket, &mut self.backlog, &mut self.overflow] {
            for Reverse(entry) in heap.drain() {
                debug_assert!(self.pool.is_cancelled(entry.idx));
                self.pool.free(entry.idx);
            }
        }
        self.based = false;
    }

    /// Advance the frontier until the bucket's head is the earliest live
    /// wheel event (or the wheel side is empty). Sound because `cur`
    /// only ever advances to the minimum *pending* wheel timestamp —
    /// never past an event still queued — so causal pushes (always at
    /// or after the event being processed) land at or after `cur`, and
    /// the acausal remainder is exactly what `backlog` absorbs.
    fn ensure_frontier(&mut self) {
        if !self.based {
            let mut staged = std::mem::take(&mut self.staging);
            staged.retain(|&idx| {
                let cancelled = self.pool.is_cancelled(idx);
                if cancelled {
                    self.pool.free(idx);
                }
                !cancelled
            });
            let Some(min) = staged
                .iter()
                .map(|&idx| self.pool.key(idx).at.as_micros())
                .min()
            else {
                return;
            };
            self.cur = min;
            self.based = true;
            for idx in staged {
                let t = self.pool.key(idx).at.as_micros();
                self.place(idx, t);
            }
        }
        loop {
            purge_head(&mut self.bucket, &mut self.pool);
            if !self.bucket.is_empty() {
                return;
            }
            // Level 0: one timestamp per slot — drain it into the bucket.
            if self.occupancy[0] != 0 {
                let slot = self.occupancy[0].trailing_zeros() as usize;
                let mut idx = self.take_slot(0, slot);
                self.cur = (self.cur & !SLOT_MASK) | slot as u64;
                while idx != NIL {
                    let entry = &mut self.pool.slots[idx as usize];
                    let next = entry.next;
                    entry.next = NIL;
                    entry.prev = DETACHED;
                    let key = entry.key;
                    debug_assert_eq!(key.at.as_micros(), self.cur);
                    self.bucket.push(Reverse(PooledEntry { key, idx }));
                    idx = next;
                }
                return;
            }
            // Cascade the first occupied slot of the lowest occupied
            // level: rebase the frontier on that slot's prefix and
            // re-place its events, which now land strictly below it.
            if let Some(level) = (1..LEVELS).find(|&l| self.occupancy[l] != 0) {
                let slot = self.occupancy[level].trailing_zeros() as usize;
                let mut idx = self.take_slot(level, slot);
                let shift = SLOT_BITS * level as u32;
                self.cur =
                    (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((slot as u64) << shift);
                while idx != NIL {
                    let next = self.pool.slots[idx as usize].next;
                    let t = self.pool.key(idx).at.as_micros();
                    self.place(idx, t);
                    idx = next;
                }
                continue;
            }
            // Inner wheel empty: jump to the overflow minimum and pull
            // in its whole 2^42 µs window.
            purge_head(&mut self.overflow, &mut self.pool);
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
                if self.pool.is_cancelled(entry.idx) {
                    self.pool.free(entry.idx);
                } else {
                    self.place(entry.idx, entry.key.at.as_micros());
                }
            }
        }
    }

    pub(crate) fn peek_key(&mut self) -> Option<EventKey> {
        self.ensure_frontier();
        purge_head(&mut self.backlog, &mut self.pool);
        let wheel_min = self.bucket.peek().map(|Reverse(e)| e.key);
        let backlog_min = self.backlog.peek().map(|Reverse(e)| e.key);
        match (wheel_min, backlog_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Queued> {
        self.ensure_frontier();
        purge_head(&mut self.backlog, &mut self.pool);
        let from_backlog = match (self.bucket.peek(), self.backlog.peek()) {
            (Some(Reverse(e)), Some(Reverse(b))) => b.key < e.key,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        let heap = if from_backlog {
            &mut self.backlog
        } else {
            &mut self.bucket
        };
        let Reverse(entry) = heap.pop().expect("peeked");
        let q = self.pool.free(entry.idx);
        self.len -= 1;
        if self.len == 0 {
            self.release_cancelled();
        }
        Some(q)
    }
}

/// A pending event's address in an [`EventQueue`]: its key, plus its
/// pool index on the wheel. Valid until the event pops or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventHandle {
    pub(crate) key: EventKey,
    slot: u32,
}

/// The original binary heap plus the `seq`s of its cancelled entries,
/// which pop and peek skip.
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<Queued>>,
    cancelled: HashSet<u64, FxBuild>,
}

impl HeapQueue {
    fn pop(&mut self) -> Option<Queued> {
        loop {
            let Reverse(q) = self.heap.pop()?;
            if !self.cancelled.remove(&q.key.seq) {
                return Some(q);
            }
        }
    }

    fn peek_key(&mut self) -> Option<EventKey> {
        loop {
            let key = self.heap.peek()?.0.key;
            if !self.cancelled.remove(&key.seq) {
                return Some(key);
            }
            self.heap.pop();
        }
    }
}

/// The event queue the simulator schedules through: the original
/// binary heap or the timing wheel, selected by [`QueueKind`].
pub(crate) enum EventQueue {
    Heap(HeapQueue),
    Wheel(Box<TimingWheel>),
}

impl EventQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => EventQueue::Heap(HeapQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::default(),
            }),
            QueueKind::Wheel => EventQueue::Wheel(Box::new(TimingWheel::new())),
        }
    }

    pub(crate) fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Heap(_) => QueueKind::Heap,
            EventQueue::Wheel(_) => QueueKind::Wheel,
        }
    }

    pub(crate) fn push(&mut self, q: Queued) -> EventHandle {
        let key = q.key;
        let slot = match self {
            EventQueue::Heap(h) => {
                h.heap.push(Reverse(q));
                NIL
            }
            EventQueue::Wheel(w) => w.push(q),
        };
        EventHandle { key, slot }
    }

    pub(crate) fn pop(&mut self) -> Option<Queued> {
        match self {
            EventQueue::Heap(h) => h.pop(),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// Take a pending event out of the queue; it is never popped.
    pub(crate) fn cancel(&mut self, handle: EventHandle) {
        match self {
            EventQueue::Heap(h) => {
                let fresh = h.cancelled.insert(handle.key.seq);
                debug_assert!(fresh, "event cancelled twice");
            }
            EventQueue::Wheel(w) => {
                debug_assert!(w.pool.key(handle.slot) == handle.key);
                w.cancel(handle.slot);
            }
        }
    }

    /// Key of the earliest pending event. Takes `&mut self` because the
    /// wheel advances its frontier to answer (a pure state-machine step;
    /// observable order is unchanged).
    pub(crate) fn peek_key(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Heap(h) => h.peek_key(),
            EventQueue::Wheel(w) => w.peek_key(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.heap.len() - h.cancelled.len(),
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
/// [`replay_schedule`] exercises a queue kind with exactly the
/// push/pop/cancel interleaving, timestamps, and depth profile of the
/// original simulation, but none of its dispatch work — a
/// scheduler-isolated benchmark on a real workload's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOp {
    /// An event was scheduled for this absolute simulation time (µs).
    Push(u64),
    /// The earliest pending event was dequeued.
    Pop,
    /// The event of the recording's push with this ordinal (0 = its
    /// first `Push`) was cancelled while pending.
    Cancel(u64),
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
    let mut pops = 0u64;
    let mut checksum = 0u64;
    replay_schedule_with(ops, kind, |popped, _| {
        if let Some((at, ordinal)) = popped {
            checksum ^= at.wrapping_mul(ordinal | 1);
            pops += 1;
        }
    });
    std::hint::black_box(checksum);
    pops
}

/// [`replay_schedule`] with an observer: after every op, `observe`
/// gets the `(time µs, push ordinal)` of the event a `Pop` dequeued
/// (`None` for other ops and for a `Pop` of an empty queue) and the
/// number of events left pending. A `Cancel` of an ordinal that is not
/// pending is ignored.
pub fn replay_schedule_with(
    ops: &[ScheduleOp],
    kind: QueueKind,
    mut observe: impl FnMut(Option<(u64, u64)>, usize),
) {
    let mut queue = EventQueue::new(kind);
    // Handle of each push, by ordinal, while it is pending.
    let mut pending: Vec<Option<EventHandle>> = Vec::new();
    for &op in ops {
        let popped = match op {
            ScheduleOp::Push(at) => {
                let seq = pending.len() as u64;
                let handle = queue.push(Queued {
                    key: EventKey {
                        at: crate::time::SimTime::from_micros(at),
                        seq,
                    },
                    event: Event::Timer {
                        node: NodeId(0),
                        token: seq,
                    },
                });
                pending.push(Some(handle));
                None
            }
            ScheduleOp::Pop => queue.pop().map(|q| {
                pending[q.key.seq as usize] = None;
                (q.key.at.as_micros(), q.key.seq)
            }),
            ScheduleOp::Cancel(ordinal) => {
                let handle = usize::try_from(ordinal)
                    .ok()
                    .and_then(|i| pending.get_mut(i))
                    .and_then(Option::take);
                if let Some(handle) = handle {
                    queue.cancel(handle);
                }
                None
            }
        };
        observe(popped, queue.len());
    }
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

    /// Where a pending entry sits.
    fn in_list(w: &TimingWheel, idx: u32) -> bool {
        w.pool.slots[idx as usize].prev != DETACHED
    }

    fn pop_times(w: &mut TimingWheel) -> Vec<u64> {
        drain_keys(w).iter().map(|k| k.at.as_micros()).collect()
    }

    /// Three entries of one slot list (same timestamp, past level 0);
    /// cancelling its head, middle or tail leaves the other two in
    /// order and the list's occupancy bit as long as anything is left.
    #[test]
    fn cancel_unlinks_list_head_middle_and_tail() {
        for victims in [&[0][..], &[1], &[2], &[0, 1], &[1, 2], &[0, 2], &[2, 0, 1]] {
            let mut w = TimingWheel::new();
            w.push(q(10, 100));
            assert_eq!(w.peek_key().unwrap().at.as_micros(), 10);
            let idx: Vec<u32> = (0..3).map(|i| w.push(q(5_000, i))).collect();
            w.push(q(9_000, 50));
            assert!(idx.iter().all(|&i| in_list(&w, i)));
            for &v in victims {
                w.cancel(idx[v]);
            }
            assert_eq!(w.len(), 5 - victims.len());
            let mut want: Vec<EventKey> = (0..3u64)
                .filter(|i| !victims.contains(&(*i as usize)))
                .map(|i| q(5_000, i).key)
                .collect();
            want.insert(0, q(10, 100).key);
            want.push(q(9_000, 50).key);
            assert_eq!(drain_keys(&mut w), want, "victims {victims:?}");
        }
    }

    #[test]
    fn cancel_in_level_zero_slot_clears_its_occupancy() {
        let mut w = TimingWheel::new();
        w.push(q(0, 0));
        w.peek_key();
        let a = w.push(q(7, 1));
        w.push(q(9, 2));
        assert!(in_list(&w, a));
        w.cancel(a);
        assert_eq!(w.occupancy[0] & (1 << 7), 0);
        assert_eq!(pop_times(&mut w), [0, 9]);
    }

    /// An entry already drained into the bucket is marked, skipped when
    /// it reaches the bucket's top, and its slot recycled.
    #[test]
    fn cancel_in_bucket_is_skipped() {
        let mut w = TimingWheel::new();
        w.push(q(100, 0));
        let b = w.push(q(100, 1));
        w.push(q(100, 2));
        w.push(q(200, 3));
        assert_eq!(w.pop().unwrap().key.seq, 0);
        assert!(!in_list(&w, b) && w.bucket.len() == 2);
        w.cancel(b);
        assert_eq!(w.len(), 2);
        assert_eq!(drain_keys(&mut w), [q(100, 2).key, q(200, 3).key]);
        assert!(w.bucket.is_empty());
        // Three slots in play at most; the cancelled one was recycled.
        w.push(q(300, 4));
        assert!(w.pool.slots.len() <= 4);
    }

    #[test]
    fn cancel_staged_entry_before_basing() {
        let mut w = TimingWheel::new();
        let first = w.push(q(5, 0));
        w.push(q(50, 1));
        w.cancel(first);
        assert!(!w.based);
        // The frontier bases at the live minimum, not the cancelled one.
        assert_eq!(w.peek_key().unwrap().at.as_micros(), 50);
        assert_eq!(w.cur, 50);
        assert_eq!(pop_times(&mut w), [50]);
    }

    #[test]
    fn cancel_overflow_entry() {
        let far = 1u64 << 50;
        let mut w = TimingWheel::new();
        w.push(q(5, 0));
        w.peek_key();
        let a = w.push(q(far, 1));
        w.push(q(far + 1, 2));
        let c = w.push(q(far + (1 << 44), 3));
        assert_eq!(w.overflow.len(), 3);
        w.cancel(a);
        w.cancel(c);
        assert_eq!(pop_times(&mut w), [5, far + 1]);
    }

    /// The overflow minimum it would have jumped to is cancelled: the
    /// frontier jumps to the live one instead.
    #[test]
    fn cancelled_overflow_head_does_not_set_the_frontier() {
        let far = 1u64 << 50;
        let mut w = TimingWheel::new();
        w.push(q(5, 0));
        w.peek_key();
        let a = w.push(q(far, 1));
        w.push(q(far + (1 << 44), 2));
        w.cancel(a);
        assert_eq!(pop_times(&mut w), [5, far + (1 << 44)]);
    }

    #[test]
    fn cancel_backlog_entry() {
        let mut w = TimingWheel::new();
        w.push(q(1_000, 0));
        w.push(q(5_000, 1));
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 1_000);
        assert_eq!(w.peek_key().unwrap().at.as_micros(), 5_000);
        let stray = w.push(q(2_000, 2));
        w.push(q(3_000, 3));
        assert_eq!(w.backlog.len(), 2);
        w.cancel(stray);
        assert_eq!(w.peek_key().unwrap().at.as_micros(), 3_000);
        assert_eq!(pop_times(&mut w), [3_000, 5_000]);
    }

    /// Cancelling the last live entry empties the wheel: every parked
    /// cancelled entry is freed and the next pushes re-base, whatever
    /// their times.
    #[test]
    fn cancelling_the_last_live_entry_unbases() {
        let mut w = TimingWheel::new();
        w.push(q(1 << 30, 0));
        let tie = w.push(q(1 << 30, 1));
        assert_eq!(w.pop().unwrap().key.seq, 0);
        let stray = w.push(q(10, 2));
        let far = w.push(q(1 << 50, 3));
        let listed = w.push(q((1 << 30) + 5_000, 4));
        let bucketed = w.push(q(w.cur, 5));
        assert!(w.bucket.len() == 2 && w.backlog.len() == 1 && w.overflow.len() == 1);
        assert!(in_list(&w, listed));
        for idx in [stray, far, bucketed, tie, listed] {
            w.cancel(idx);
        }
        assert_eq!(w.len(), 0);
        assert!(!w.based);
        assert!(w.bucket.is_empty() && w.backlog.is_empty() && w.overflow.is_empty());
        assert!(w.occupancy.iter().all(|&o| o == 0));
        w.push(q(7, 6));
        w.push(q(3, 7));
        assert!(w.backlog.is_empty());
        assert_eq!(pop_times(&mut w), [3, 7]);
    }

    /// A cascade re-places the survivors of a list some entries of
    /// which were cancelled, and later cancels find them in their new
    /// lists.
    #[test]
    fn cancel_after_cascade_finds_the_new_list() {
        let mut w = TimingWheel::new();
        w.push(q(0, 0));
        w.peek_key();
        let idx: Vec<u32> = (0..6).map(|i| w.push(q(4_096 + i * 70, i + 1))).collect();
        w.cancel(idx[2]);
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 0);
        // Popping 4 096 cascades the 4 096..4 446 list into level 1/0.
        assert_eq!(w.pop().unwrap().key.at.as_micros(), 4_096);
        w.cancel(idx[4]);
        w.cancel(idx[5]);
        assert_eq!(pop_times(&mut w), [4_166, 4_306]);
    }

    #[test]
    #[should_panic(expected = "no longer pending")]
    fn cancelling_a_popped_event_panics() {
        let mut w = TimingWheel::new();
        let a = w.push(q(1, 0));
        w.push(q(2, 1));
        w.pop();
        w.cancel(a);
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
