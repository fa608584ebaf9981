//! The byte cache: packet store plus fingerprint index.
//!
//! Both the encoder and the decoder keep one of these. The *packet store*
//! holds recent packet payloads under a byte budget (FIFO eviction); the
//! *fingerprint index* maps each retained representative fingerprint to
//! the most recent packet containing it and the window's offset there —
//! "most recent" because, as in the paper, inserting an existing
//! fingerprint *replaces* the previous entry. That replacement rule is
//! load-bearing: it is what makes a naive encoder point a fingerprint at
//! a packet the decoder never received.
//!
//! # Layout
//!
//! Packets live in a slab arena of generational slots: eviction bumps a
//! slot's generation and recycles it through a free list, so a handle
//! held by a stale index entry can never resolve to the wrong packet.
//! Both indexes are open-addressing tables with linear probing:
//!
//! * the **fingerprint table** maps `fingerprint → (slot, generation,
//!   offset)` in 16-byte entries, four to a 64-byte group, so a hit, a
//!   miss and an insert each touch one cache line (see [`FpTable`]). An
//!   entry is not deleted when its packet leaves the store (matching the
//!   paper's semantics, where an index entry simply stops resolving) — a
//!   lookup whose generation disagrees with the slot's current
//!   generation is stale and reports a miss. Stale entries are reclaimed
//!   in bulk: when one of the table's 64 regions reaches its load limit
//!   it first purges everything that no longer resolves (if anything
//!   can have stopped resolving since its last pass) and doubles only
//!   if the live entries alone still crowd it, so the table's size
//!   follows the cache's contents, not the count of fingerprints ever
//!   seen.
//! * the **id table** maps `packet id → slot` and supports true deletion
//!   (backward-shift, no tombstones) because ids are removed on every
//!   eviction.
//!
//! Sampled fingerprints have `sample_bits` low zero bits by construction,
//! so both tables mix keys with a Fibonacci multiply and take the *high*
//! bits of the product for the bucket index.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use bytecache_packet::{FlowId, SeqNum};
use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, LaneScratch};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::config::DreConfig;

/// Identifier of a cached packet. Encoders assign these sequentially and
/// carry them (truncated to 32 bits) in the shim header; decoders adopt
/// the encoder's ids so the two stores stay aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl core::fmt::Display for PacketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Metadata recorded with every cached packet; the encoding policies'
/// eligibility checks read these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Flow the packet belonged to.
    pub flow: FlowId,
    /// TCP sequence number of its first payload byte.
    pub seq: SeqNum,
    /// Sequence number one past its last payload byte.
    pub seq_end: SeqNum,
    /// Zero-based index of this packet within its flow at this cache.
    pub flow_index: u64,
}

/// A cached packet: payload plus metadata.
#[derive(Debug, Clone)]
pub struct Stored {
    /// The original (pre-encoding) payload.
    pub payload: Bytes,
    /// Policy-relevant metadata.
    pub meta: EntryMeta,
}

/// Counters the cache maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets inserted.
    pub inserts: u64,
    /// Packets evicted by the byte/packet budget.
    pub evictions: u64,
    /// Fingerprint index insertions that found the key already in the
    /// table. A stale entry (its packet gone) still counts until the
    /// table's next purge drops it, so this counter — alone among the
    /// cache's — depends on when the table last reclaimed space and may
    /// differ between two builds whose wire output is identical.
    pub replacements: u64,
    /// Full flushes.
    pub flushes: u64,
    /// Indexing passes skipped because the packet was already gone —
    /// e.g. evicted by its own insert when the payload exceeds the byte
    /// budget. Counted instead of panicking so one oversized or racing
    /// packet cannot abort the engine.
    pub index_skips: u64,
}

impl CacheStats {
    /// Fold another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.replacements += other.replacements;
        self.flushes += other.flushes;
        self.index_skips += other.index_skips;
    }
}

/// Counters describing one indexing pass over a packet's payload.
///
/// Returned by [`Cache::index_payload`] and [`Cache::index_sampled`] so
/// the encoder/decoder stats can report scan effort without touching the
/// hot loop twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexOutcome {
    /// Windows the pass rolled a fingerprint over (zero for
    /// [`Cache::index_sampled`], whose windows were rolled by the scan).
    pub windows: u64,
    /// Windows that passed the sampler (zero for `index_sampled`).
    pub sampled: u64,
    /// Fingerprint-table insertions performed.
    pub insertions: u64,
    /// 1 if the pass was skipped because the packet was no longer
    /// stored (see [`CacheStats::index_skips`]), else 0.
    pub skipped: u64,
}

/// Fibonacci multiplier (⌊2^64/φ⌋, odd): spreads keys whose low bits are
/// constrained — sampled fingerprints always end in `sample_bits` zeros.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-rotate hasher (FxHash-style) for the per-packet flow
/// and address lookups: the cache's flow counters, the policies'
/// per-flow maps and the gateways' destination sets. Their keys (a
/// 12-byte `FlowId`, a 4-byte address) are hashed two or three times
/// per data packet; SipHash's per-call setup dwarfs the mixing for keys
/// this small, and the tables need no DoS resistance — their keys come
/// from the deployment's own traffic, not an adversarial hash-flooding
/// surface. Having no per-instance key, two tables filled with the same
/// keys in the same order also iterate, and print, alike.
#[derive(Default)]
pub(crate) struct FlowHasher(u64);

impl FlowHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(FIB);
    }
}

impl std::hash::Hasher for FlowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    /// The multiply leaves its best-mixed bits at the top, and std's
    /// tables pick a bucket by the low ones, so the top bits are rotated
    /// down. An address hashes as one `u32` whose low byte is its first
    /// octet: unrotated, a set of thousands of `40.x.y.2` clients would
    /// share a few home buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`FlowHasher`] builder, for every crate table keyed by flow or
/// address.
pub(crate) type FlowState = std::hash::BuildHasherDefault<FlowHasher>;

type FlowMap = HashMap<FlowId, u64, FlowState>;

/// One resident packet in the arena.
#[derive(Debug)]
struct SlotData {
    id: PacketId,
    stored: Stored,
    /// Informed marking: the peer reported this packet lost.
    dead: bool,
}

#[derive(Debug)]
struct Slot {
    /// Bumped every time the slot is freed; stale handles miss.
    gen: u32,
    data: Option<SlotData>,
}

impl Slot {
    /// Take the packet out and bump the generation, so no handle to it
    /// resolves again, and count that in `departures` (see
    /// [`Region::grow`]).
    fn vacate(&mut self, departures: &mut u64) -> Option<SlotData> {
        let data = self.data.take()?;
        self.gen = self.gen.wrapping_add(1);
        *departures += 1;
        Some(data)
    }
}

/// Handle to a slot at a specific generation (what the FIFO queue and
/// the fingerprint table hold instead of packet ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlotRef {
    index: u32,
    gen: u32,
}

/// The packet a handle points at, if it is still the one stored there.
#[inline]
fn resolve(arena: &[Slot], slot: SlotRef) -> Option<&SlotData> {
    let s = arena.get(slot.index as usize)?;
    if s.gen != slot.gen {
        return None; // stale: the packet left the store
    }
    s.data.as_ref()
}

/// One fingerprint-table slot.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// `1 << 63 | key << 16 | offset`, or 0 for an empty slot. `key` is
    /// the low [`FpTable::KEY_BITS`] bits of the mixed fingerprint; the
    /// region the entry sits in supplies the rest.
    head: u64,
    slot: SlotRef,
}

impl Entry {
    #[inline]
    fn new(key: u64, slot: SlotRef, offset: u16) -> Self {
        Entry {
            head: 1 << 63 | key << 16 | u64::from(offset),
            slot,
        }
    }

    /// Occupancy bit and key, without the offset: what a probe compares.
    #[inline]
    fn tag(self) -> u64 {
        self.head >> 16
    }

    #[inline]
    fn key(self) -> u64 {
        self.tag() & FpTable::KEY_MASK
    }

    #[inline]
    fn offset(self) -> u16 {
        self.head as u16
    }
}

/// Four entries on one cache line: the unit a probe reads.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Group([Entry; Region::GROUP]);

impl Group {
    /// Which of the four entries carry `tag`, as a bit mask; a tag of 0
    /// finds the empty ones. Computed without a branch per entry, so a
    /// probe takes one or two branches that follow the traffic (hit or
    /// miss) where an early-exit scan takes up to four that follow
    /// where in the group a key happens to sit; the early-exit form
    /// measured 10 % slower end to end on `gw_web_1400`.
    #[inline]
    fn matching(&self, tag: u64) -> usize {
        (self.0.iter().enumerate()).fold(0, |mask, (i, e)| mask | usize::from(e.tag() == tag) << i)
    }

    /// Index of the first entry in a non-empty
    /// [`matching`](Self::matching) mask. The remainder is the identity
    /// on a four-bit mask's bit positions; it spares the bounds check.
    #[inline]
    fn first(mask: usize) -> usize {
        mask.trailing_zeros() as usize % Region::GROUP
    }
}

// A probe's cost is the lines it touches, so the layout is part of the
// table's contract: a denser or wider entry changes what a group spans.
const _: () = {
    assert!(std::mem::size_of::<Entry>() == 16);
    assert!(std::mem::size_of::<Group>() == 64);
    assert!(std::mem::align_of::<Group>() == 64);
};

/// What [`Region::put`] did with a key.
enum Put {
    /// Placed in a free slot, outside its home group if `spilled`.
    New { spilled: bool },
    /// Overwrote the entry already holding the key.
    Replaced,
}

/// One of the [`FpTable::REGIONS`] parts of the fingerprint table: a
/// group-linear open-addressing table of its own, holding the keys
/// whose mixed fingerprint starts with the region's 6 bits.
#[derive(Debug)]
struct Region {
    /// A power of two of them (slot count = groups × GROUP).
    groups: Vec<Group>,
    len: usize,
    /// The cache's departure count when every entry here last resolved:
    /// at the region's creation, its last growth pass or its clear.
    resolved_at: u64,
}

impl Region {
    /// Slots per group: 4 × 16-byte entries = one 64-byte cache line.
    const GROUP: usize = 4;
    /// 4 initial groups = 16 slots.
    const INITIAL_GROUPS: usize = 4;

    fn new(groups: usize, departures: u64) -> Self {
        Region {
            groups: vec![Group::default(); groups],
            len: 0,
            resolved_at: departures,
        }
    }

    fn slots(&self) -> usize {
        self.groups.len() * Self::GROUP
    }

    /// Smallest size that holds `entries` at no more than half the load
    /// limit — the occupancy a doubling leaves behind, so a region
    /// sized here takes as many further inserts as it holds before it
    /// next has to make room.
    fn groups_for(entries: usize) -> usize {
        // entries / slots ≤ 3/8 with slots = 4 × groups.
        let groups = (entries * 2).div_ceil(3).next_power_of_two();
        groups.max(Self::INITIAL_GROUPS)
    }

    /// Home group of a key: its top bits (the mix leaves the
    /// sampler-zeroed bits of a fingerprint at the bottom).
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key >> (FpTable::KEY_BITS - self.groups.len().trailing_zeros())) as usize
    }

    /// Whether one more entry would pass the 3/4 load limit.
    #[inline]
    fn at_load_limit(&self) -> bool {
        (self.len + 1) * 4 > self.slots() * 3
    }

    /// Place `entry` in the first free slot of its probe chain, or
    /// overwrite the entry holding its key. The load limit guarantees a
    /// free slot.
    fn put(&mut self, entry: Entry) -> Put {
        let gmask = self.groups.len() - 1;
        let home = self.home(entry.key());
        let mut g = home;
        loop {
            let group = &mut self.groups[g];
            let held = group.matching(entry.tag());
            if held != 0 {
                group.0[Group::first(held)] = entry;
                return Put::Replaced;
            }
            let free = group.matching(0);
            if free != 0 {
                group.0[Group::first(free)] = entry;
                self.len += 1;
                return Put::New { spilled: g != home };
            }
            g = (g + 1) & gmask;
        }
    }

    fn get(&self, key: u64) -> Option<(SlotRef, u16)> {
        let gmask = self.groups.len() - 1;
        let tag = 1 << FpTable::KEY_BITS | key;
        let mut g = self.home(key);
        loop {
            let group = &self.groups[g];
            let held = group.matching(tag);
            if held != 0 {
                let e = group.0[Group::first(held)];
                return Some((e.slot, e.offset()));
            }
            if group.matching(0) != 0 {
                return None;
            }
            g = (g + 1) & gmask;
        }
    }

    /// Make room at the load limit: purge what `arena` no longer
    /// resolves, then double only if the live entries alone still hold
    /// more than half the limit. Either way the region is at most 3/8
    /// full afterwards, so inserts numbering 3/8 of its slots pay for
    /// the next O(slots) pass, and it stays within a constant factor of
    /// its live entries — without the purge it would grow with every
    /// distinct fingerprint ever seen, as each doubling re-inserted the
    /// stale ones. A purged key already read as a miss, so lookups
    /// cannot tell.
    ///
    /// `departures` counts every packet that has left the store and
    /// every handle filed that never resolved. If it has not moved
    /// since `resolved_at`, nothing here can be stale and the purge is
    /// skipped: it would be an identity, since without a deletion every
    /// entry goes back into the slot it was lifted from. Returns
    /// whether it purged.
    fn grow(&mut self, arena: &[Slot], departures: u64) -> bool {
        let purge = departures != self.resolved_at;
        if purge {
            self.purge(arena);
        }
        self.resolved_at = departures;
        if self.len * 8 > self.slots() * 3 {
            let old = std::mem::replace(self, Region::new(self.groups.len() * 2, departures));
            for entry in old.groups.iter().flat_map(|g| g.0) {
                if entry.head != 0 {
                    self.put(entry);
                }
            }
        }
        purge
    }

    /// Drop every entry whose handle `arena` no longer resolves — its
    /// packet was evicted, or it is a `u32::MAX` shadow handle that
    /// never resolved — compacting the survivors in place.
    ///
    /// Group-linear probing is linear probing over slots from the home
    /// group's first slot, so a key may sit anywhere between its home
    /// and the first empty slot after it. Walking the slots in probe
    /// order from just past an empty one, lifting each entry out and
    /// putting the live ones back, lands every survivor between its
    /// home and the slot it came from: the slots before it are final,
    /// the one it left is free, and no chain spans the starting gap.
    /// The pass is sequential over the region and allocates nothing.
    fn purge(&mut self, arena: &[Slot]) {
        let mask = self.slots() - 1;
        let at = |i: usize| (i / Self::GROUP, i % Self::GROUP);
        let Some(start) = (0..=mask).find(|&i| {
            let (g, s) = at(i);
            self.groups[g].0[s].head == 0
        }) else {
            return; // unreachable below the load limit
        };
        self.len = 0;
        for step in 1..=mask {
            let (g, s) = at((start + step) & mask);
            let entry = std::mem::take(&mut self.groups[g].0[s]);
            if entry.head != 0 && resolve(arena, entry.slot).is_some() {
                self.put(entry);
            }
        }
    }

    /// Drop every entry, at a cost proportional to how many there were.
    /// A dense region is zeroed in place and keeps its size, so a
    /// flush-heavy policy does not re-pay the growth rehashes every
    /// epoch. A sparse one — more than 16 slots per entry held — is
    /// replaced by a region sized for what it held: zeroing megabytes
    /// to forget the 30 packets since the last flush was the largest
    /// single cost of the Cache Flush policy.
    fn clear(&mut self, departures: u64) {
        if self.slots() > 16 * self.len.max(1) {
            *self = Region::new(Self::groups_for(self.len), departures);
        } else {
            self.groups.fill(Group::default());
            self.len = 0;
            self.resolved_at = departures;
        }
    }
}

/// Open-addressing `fingerprint → (slot, gen, offset)` table with no
/// per-entry deletion: space is reclaimed in bulk, by
/// [`clear`](Self::clear) on a flush and by [`Region::grow`]'s purge of
/// entries whose packet has left the store.
///
/// # Layout
///
/// The encoder probes the table once per sampled window and both sides
/// write it once per sampled window, at random positions in a table far
/// larger than L2, so the cost of an operation is the cache lines (and
/// page walks) it touches. Key, offset and handle therefore share one
/// 16-byte [`Entry`], four entries share one 64-byte-aligned [`Group`],
/// and a hit, a miss and an insert each resolve on the key's home line;
/// only a key displaced from a full home group
/// ([`spills`](Self::spills)) costs a second, adjacent one.
///
/// An entry has 47 bits for its key and fingerprints have 53, and keys
/// stay exact: the fingerprint is mixed by an odd multiply modulo 2^53
/// (a bijection, so equal mixed keys mean equal fingerprints), the top
/// 6 bits of the mixed key pick one of [`Self::REGIONS`] regions and
/// the other 47 are the key inside it. Which region an entry sits in is
/// thus the 6 bits its word does not hold. Each [`Region`] is a table of
/// its own — its own allocation, load limit and growth — so making room
/// is a pass over 1/64 of the table, a doubling holds 1/64 of the table
/// twice rather than all of it, and the chunks it frees are the size
/// the next region's doubling asks for. Keys that crowd one region grow
/// that region alone.
///
/// # Sizing
///
/// Every whole-table cost is proportional to what the table holds, not
/// to the cache's configured budget. A table starts at 1024 slots and
/// grows on demand, so a gateway that lives for one 587 KB download
/// keeps a table that fits in L2 instead of spraying probes over one
/// sized for 32 MiB. `clear` zeroes dense regions in place and replaces
/// sparse ones with regions sized for what they held, so a policy that
/// flushes every few packets pays kilobytes per flush. And when a
/// region reaches its load limit, stale entries go first: the table is
/// bounded by a constant factor of the *live* fingerprints however much
/// distinct traffic has passed through. A region that nothing can have
/// gone stale in since its last pass skips that purge.
#[derive(Debug)]
struct FpTable {
    regions: [Region; Self::REGIONS],
    /// [`Region::grow`] passes run over the table's lifetime.
    rehashes: u64,
    /// Those of them that purged.
    purges: u64,
    /// Inserts that placed a new key outside its home group.
    spills: u64,
}

impl FpTable {
    /// Independent parts of the table (see the type docs).
    const REGIONS: usize = 1 << Self::REGION_BITS;
    const REGION_BITS: u32 = 6;
    const FP_BITS: u32 = bytecache_rabin::FINGERPRINT_BITS;
    /// Mixed-key bits an entry stores; its region implies the others.
    const KEY_BITS: u32 = Self::FP_BITS - Self::REGION_BITS;
    const KEY_MASK: u64 = (1 << Self::KEY_BITS) - 1;

    fn new() -> Self {
        FpTable {
            regions: std::array::from_fn(|_| Region::new(Region::INITIAL_GROUPS, 0)),
            rehashes: 0,
            purges: 0,
            spills: 0,
        }
    }

    fn slots(&self) -> usize {
        self.regions.iter().map(Region::slots).sum()
    }

    fn len(&self) -> usize {
        self.regions.iter().map(|r| r.len).sum()
    }

    /// Split a fingerprint into its region and its key there, through
    /// `fp × FIB mod 2^53`. The multiplier is odd, so this permutes the
    /// 53-bit values, and it carries the sampler-zeroed low bits into
    /// the *high* bits, which pick the region and then the home group.
    #[inline]
    fn locate(fp: u64) -> (usize, u64) {
        let mixed = fp.wrapping_mul(FIB) & ((1 << Self::FP_BITS) - 1);
        ((mixed >> Self::KEY_BITS) as usize, mixed & Self::KEY_MASK)
    }

    /// Load the home line of every fingerprint in `sampled`, all at
    /// once: the loads are independent, so the memory system overlaps
    /// as many misses as it has buffers for instead of the probe or
    /// insert loop that follows meeting them one at a time. These are
    /// plain loads, not intrinsics — the crate forbids `unsafe`.
    /// Purely a performance hint; no observable state changes.
    #[inline]
    fn touch(&self, sampled: &[(u16, u64)]) {
        let mut acc = 0;
        for &(_, fp) in sampled {
            let (region, key) = Self::locate(fp);
            let region = &self.regions[region];
            acc ^= region.groups[region.home(key)].0[0].head;
        }
        std::hint::black_box(acc);
    }

    /// Insert or overwrite; returns `true` when the key already existed
    /// (the paper's replacement event). `arena` is the packet arena the
    /// handles point into and `departures` the count of handles into it
    /// that stopped or never started resolving: when the key's region
    /// is at its load limit, entries it no longer resolves are dropped
    /// before the region is allowed to grow (see [`Region::grow`]).
    ///
    /// # Panics
    ///
    /// Panics if `fp` does not fit in 53 bits: the mix would file it
    /// under the key of `fp mod 2^53`.
    fn insert(
        &mut self,
        fp: u64,
        slot: SlotRef,
        offset: u16,
        arena: &[Slot],
        departures: u64,
    ) -> bool {
        assert!(fp >> Self::FP_BITS == 0, "fingerprints are 53-bit");
        let (region, key) = Self::locate(fp);
        let region = &mut self.regions[region];
        if region.at_load_limit() {
            self.rehashes += 1;
            self.purges += u64::from(region.grow(arena, departures));
        }
        match region.put(Entry::new(key, slot, offset)) {
            Put::New { spilled } => {
                self.spills += u64::from(spilled);
                false
            }
            Put::Replaced => true,
        }
    }

    /// The entry filed under `fp`, if any. A value that is not a 53-bit
    /// fingerprint (match tokens carry 64 bits off the air) is a miss.
    fn get(&self, fp: u64) -> Option<(SlotRef, u16)> {
        if fp >> Self::FP_BITS != 0 {
            return None;
        }
        let (region, key) = Self::locate(fp);
        self.regions[region].get(key)
    }

    /// Drop every entry, at a cost proportional to how many there were
    /// (see [`Region::clear`]).
    fn clear(&mut self, departures: u64) {
        self.regions.iter_mut().for_each(|r| r.clear(departures));
    }
}

/// Open-addressing `packet id → slot index` table with linear probing
/// and backward-shift deletion (ids leave the table on every eviction,
/// so tombstones would accumulate).
#[derive(Debug)]
struct IdTable {
    entries: Vec<IdEntry>,
    log2: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct IdEntry {
    key: u64,
    slot: u32,
    used: bool,
}

impl IdTable {
    const INITIAL_LOG2: u32 = 6;

    fn new() -> Self {
        IdTable {
            entries: vec![IdEntry::default(); 1 << Self::INITIAL_LOG2],
            log2: Self::INITIAL_LOG2,
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> (64 - self.log2)) as usize
    }

    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &mut self.entries[i];
            if !e.used {
                *e = IdEntry {
                    key,
                    slot,
                    used: true,
                };
                self.len += 1;
                return;
            }
            if e.key == key {
                e.slot = slot;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &self.entries[i];
            if !e.used {
                return None;
            }
            if e.key == key {
                return Some(e.slot);
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) {
        let mask = self.entries.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let e = &self.entries[i];
            if !e.used {
                return; // absent
            }
            if e.key == key {
                break;
            }
            i = (i + 1) & mask;
        }
        self.len -= 1;
        // Backward-shift deletion: pull displaced entries into the hole
        // so probe chains stay contiguous without tombstones.
        let mut j = i;
        loop {
            self.entries[i].used = false;
            loop {
                j = (j + 1) & mask;
                if !self.entries[j].used {
                    return;
                }
                let home = self.bucket(self.entries[j].key);
                // The entry at j may fill the hole at i only if its home
                // bucket does not lie cyclically between i (exclusive)
                // and j (inclusive).
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    self.entries[i] = self.entries[j];
                    i = j;
                    break;
                }
            }
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.entries,
            vec![IdEntry::default(); 1 << (self.log2 + 1)],
        );
        self.log2 += 1;
        self.len = 0;
        for e in old {
            if e.used {
                self.insert(e.key, e.slot);
            }
        }
    }

    fn clear(&mut self) {
        *self = IdTable::new();
    }
}

/// The one fingerprint-insert loop: file `sampled` under `slot`, in
/// order. The candidates are random fingerprints, so nearly every
/// insert opens a cold line of a table that has outgrown the CPU cache;
/// touching all of the packet's home lines first overlaps those misses.
/// On the encoder the scan's own touch pass has already brought them
/// in, and the second pass hits L1.
fn insert_sampled(
    table: &mut FpTable,
    arena: &[Slot],
    departures: u64,
    stats: &mut CacheStats,
    slot: SlotRef,
    sampled: &[(u16, u64)],
) {
    table.touch(sampled);
    for &(offset, fp) in sampled {
        if table.insert(fp, slot, offset, arena, departures) {
            stats.replacements += 1;
        }
    }
}

/// Packet store + fingerprint index under one budget.
#[derive(Debug)]
pub struct Cache {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// FIFO of live insertions; stale refs (generation mismatch) are
    /// skipped during eviction.
    order: VecDeque<SlotRef>,
    ids: IdTable,
    fingerprints: FpTable,
    /// Packets that have left the store plus never-resolving handles
    /// filed (see [`Region::grow`]).
    departures: u64,
    bytes_used: usize,
    byte_budget: usize,
    max_packets: Option<usize>,
    live: usize,
    next_id: u64,
    flow_counters: FlowMap,
    stats: CacheStats,
    telemetry: Recorder,
    /// Reused by [`index_payload`](Self::index_payload): the scan
    /// kernel's lane buffers and the sampled pairs it emits.
    lanes: LaneScratch,
    sampled: Vec<(u16, u64)>,
}

impl Cache {
    /// Empty cache with the configuration's budgets.
    #[must_use]
    pub fn new(config: &DreConfig) -> Self {
        Cache {
            slots: Vec::new(),
            free: Vec::new(),
            order: VecDeque::new(),
            ids: IdTable::new(),
            fingerprints: FpTable::new(),
            departures: 0,
            bytes_used: 0,
            byte_budget: config.cache_bytes,
            max_packets: config.max_packets,
            live: 0,
            next_id: 0,
            flow_counters: FlowMap::default(),
            stats: CacheStats::default(),
            telemetry: Recorder::disabled(),
            lanes: LaneScratch::default(),
            sampled: Vec::new(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Enable or disable telemetry (eviction events, evicted-byte
    /// histogram). Disabled — the default — costs one branch per
    /// eviction.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// The live telemetry recorder (events recorded so far).
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// A telemetry snapshot: the live event data plus the cache's
    /// counters (`cache.*`) and occupancy gauges at snapshot time.
    /// Empty when telemetry is disabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut rec = self.telemetry.clone();
        rec.count("cache.inserts", self.stats.inserts);
        rec.count("cache.evictions", self.stats.evictions);
        rec.count("cache.replacements", self.stats.replacements);
        rec.count("cache.flushes", self.stats.flushes);
        rec.count("cache.index_skips", self.stats.index_skips);
        rec.gauge("cache.bytes_used", self.bytes_used as u64);
        rec.gauge("cache.entries", self.live as u64);
        rec.gauge("cache.fp_slots", self.fingerprints.slots() as u64);
        rec.gauge("cache.fp_entries", self.fingerprints.len() as u64);
        rec.count("cache.fp_rehashes", self.fingerprints.rehashes);
        rec.count("cache.fp_purges", self.fingerprints.purges);
        rec.count("cache.fp_spills", self.fingerprints.spills);
        rec
    }

    /// Number of packets currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Payload bytes currently stored.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The id the next [`insert`](Self::insert) will assign.
    #[must_use]
    pub fn next_id(&self) -> PacketId {
        PacketId(self.next_id)
    }

    /// The flow index the next packet of `flow` will receive.
    #[must_use]
    pub fn flow_index(&self, flow: &FlowId) -> u64 {
        self.flow_counters.get(flow).copied().unwrap_or(0)
    }

    /// Insert a packet with an auto-assigned id (encoder side).
    pub fn insert(&mut self, payload: Bytes, flow: FlowId, seq: SeqNum) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.insert_with_id(id, payload, flow, seq);
        id
    }

    /// Insert a packet under an externally assigned id (decoder side,
    /// adopting the encoder's shim id).
    pub fn insert_with_id(&mut self, id: PacketId, payload: Bytes, flow: FlowId, seq: SeqNum) {
        let counter = self.flow_counters.entry(flow).or_insert(0);
        let flow_index = *counter;
        *counter += 1;
        let meta = EntryMeta {
            flow,
            seq,
            seq_end: seq + payload.len(),
            flow_index,
        };
        // The protocol never reuses a live id, but if a caller does, the
        // new copy wins and the old one is released (no byte leak).
        if let Some(old_slot) = self.ids.get(id.0) {
            self.release(old_slot);
        }
        self.bytes_used += payload.len();
        let index = self.alloc(SlotData {
            id,
            stored: Stored { payload, meta },
            dead: false,
        });
        let gen = self.slots[index as usize].gen;
        self.ids.insert(id.0, index);
        self.order.push_back(SlotRef { index, gen });
        self.live += 1;
        self.next_id = self.next_id.max(id.0 + 1);
        self.stats.inserts += 1;
        self.evict_to_budget();
    }

    fn alloc(&mut self, data: SlotData) -> u32 {
        if let Some(index) = self.free.pop() {
            self.slots[index as usize].data = Some(data);
            index
        } else {
            self.slots.push(Slot {
                gen: 0,
                data: Some(data),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Free a slot: drop its packet, bump its generation (invalidating
    /// every outstanding handle) and recycle it.
    fn release(&mut self, index: u32) {
        let Some(data) = self.slots[index as usize].vacate(&mut self.departures) else {
            return;
        };
        self.bytes_used -= data.stored.payload.len();
        self.live -= 1;
        self.ids.remove(data.id.0);
        self.free.push(index);
    }

    fn evict_to_budget(&mut self) {
        while self.bytes_used > self.byte_budget
            || self.max_packets.is_some_and(|cap| self.live > cap)
        {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            let slot = &self.slots[oldest.index as usize];
            if slot.gen == oldest.gen {
                if let Some(data) = &slot.data {
                    if self.telemetry.is_enabled() {
                        let bytes = data.stored.payload.len() as u64;
                        let id = data.id.0;
                        self.telemetry
                            .event(Event::new(EventKind::Eviction).details(id, bytes));
                        self.telemetry.record("cache.evicted_bytes", bytes);
                    }
                    self.release(oldest.index);
                    self.stats.evictions += 1;
                }
            }
            // Stale refs (the slot was already released by an id
            // overwrite) are simply discarded.
        }
    }

    /// Index one representative fingerprint of packet `id` at `offset`.
    /// Replaces any existing entry for the fingerprint (the paper's
    /// update rule).
    ///
    /// # Panics
    ///
    /// Panics if `fingerprint` does not fit in 53 bits, which no
    /// [`Fingerprinter`] output does: a caller bug, not an input.
    pub fn index_fingerprint(&mut self, fingerprint: u64, id: PacketId, offset: u16) {
        // A non-resident id still shadows the previous entry (as the
        // paper's index does): record a handle that can never resolve.
        let slot = self.ids.get(id.0).map_or(
            SlotRef {
                index: u32::MAX,
                gen: u32::MAX,
            },
            |index| SlotRef {
                index,
                gen: self.slots[index as usize].gen,
            },
        );
        if self
            .fingerprints
            .insert(fingerprint, slot, offset, &self.slots, self.departures)
        {
            self.stats.replacements += 1;
        }
        // Counted once filed: counted first, a growth pass making room
        // for it would record that count as one at which its region all
        // resolves, and the next pass would skip the purge that drops it.
        if slot.index == u32::MAX {
            self.departures += 1;
        }
    }

    /// The handle indexing passes file packet `id`'s fingerprints under.
    /// If `id` is no longer stored — a payload larger than the cache
    /// budget is evicted by its own insert, and a peer can evict a
    /// packet between store and index under divergence repair — the
    /// pass is skipped and counted (`skipped`, `CacheStats.index_skips`)
    /// rather than aborting the engine.
    fn index_target(&mut self, id: PacketId) -> Result<SlotRef, IndexOutcome> {
        let Some(index) = self.ids.get(id.0) else {
            self.stats.index_skips += 1;
            return Err(IndexOutcome {
                skipped: 1,
                ..IndexOutcome::default()
            });
        };
        Ok(SlotRef {
            index,
            gen: self.slots[index as usize].gen,
        })
    }

    /// Run the paper's *cache update procedure* for packet `id`: slide
    /// the window over its payload and index every sampled fingerprint.
    ///
    /// This is the decoder's whole per-byte cost (it never scans for
    /// matches), and the path of state import and of packets a policy
    /// sends unscanned. It rolls the payload through the same multi-lane
    /// kernel as the encoder's scan
    /// ([`Fingerprinter::scan_sampled_batched`]) and files the pairs
    /// through the same insert loop as
    /// [`index_sampled`](Self::index_sampled), which the encoder feeds
    /// from its scan to skip the re-fingerprinting.
    ///
    /// A packet that is no longer stored is skipped and counted, not
    /// indexed.
    pub fn index_payload(
        &mut self,
        engine: &Fingerprinter,
        sampler: &Sampler,
        id: PacketId,
    ) -> IndexOutcome {
        let slot = match self.index_target(id) {
            Ok(slot) => slot,
            Err(skipped) => return skipped,
        };
        // Split borrows: read the payload out of the arena while the
        // kernel fills the scratch — no payload copy, no allocation.
        let payload: &[u8] = &self.slots[slot.index as usize]
            .data
            .as_ref()
            .expect("live slot")
            .stored
            .payload;
        let sampled = &mut self.sampled;
        sampled.clear();
        engine.scan_sampled_batched(payload, sampler, &mut self.lanes, |pos, fp| {
            sampled.push((pos as u16, fp));
        });
        let windows = (payload.len() + 1).saturating_sub(engine.window_size()) as u64;
        insert_sampled(
            &mut self.fingerprints,
            &self.slots,
            self.departures,
            &mut self.stats,
            slot,
            sampled,
        );
        IndexOutcome {
            windows,
            sampled: sampled.len() as u64,
            insertions: sampled.len() as u64,
            skipped: 0,
        }
    }

    /// Index packet `id` from fingerprints already sampled by the
    /// encoder's scan: insert each `(offset, fingerprint)` pair, in
    /// order, under the packet's slot. Produces exactly the
    /// fingerprint-table state [`index_payload`](Self::index_payload)
    /// would — the pairs are the sampled windows of the payload in
    /// increasing offset order — without touching the payload again.
    ///
    /// A packet that is no longer stored is skipped and counted, not
    /// indexed.
    ///
    /// # Panics
    ///
    /// Panics if a fingerprint does not fit in 53 bits (see
    /// [`index_fingerprint`](Self::index_fingerprint)).
    pub fn index_sampled(&mut self, id: PacketId, sampled: &[(u16, u64)]) -> IndexOutcome {
        let slot = match self.index_target(id) {
            Ok(slot) => slot,
            Err(skipped) => return skipped,
        };
        insert_sampled(
            &mut self.fingerprints,
            &self.slots,
            self.departures,
            &mut self.stats,
            slot,
            sampled,
        );
        IndexOutcome {
            insertions: sampled.len() as u64,
            ..IndexOutcome::default()
        }
    }

    /// Hint that a [`lookup`](Self::lookup) /
    /// [`lookup_entry`](Self::lookup_entry) for each fingerprint in
    /// `sampled` is coming: load all their fingerprint-table home lines
    /// in one pass of independent reads. The encoder's batched scan
    /// calls this between its two phases, when it knows every candidate
    /// of the packet; the probes that follow, and the
    /// [`index_sampled`](Self::index_sampled) that files the same
    /// fingerprints afterwards, find the lines resident.
    #[inline]
    pub(crate) fn touch_fingerprints(&self, sampled: &[(u16, u64)]) {
        self.fingerprints.touch(sampled);
    }

    /// Second-stage scan prefetch: resolve `fingerprint` through the
    /// (already touched) fingerprint table and pull the slot and
    /// the referenced stored-payload line toward the cache. A hit in
    /// the probe loop immediately dereferences both for match
    /// extension, and those two dependent loads are otherwise demand
    /// misses on the serial path. Purely a hint: stale generations and
    /// dead entries are prefetched harmlessly and re-checked by the
    /// real lookup.
    #[inline]
    pub fn prefetch_candidate(&self, fingerprint: u64) {
        if let Some((slot, offset)) = self.fingerprints.get(fingerprint) {
            if let Some(s) = self.slots.get(slot.index as usize) {
                if let Some(data) = s.data.as_ref() {
                    let payload: &[u8] = &data.stored.payload;
                    if let Some(&b) = payload.get(usize::from(offset)) {
                        std::hint::black_box(b);
                    }
                }
            }
        }
    }

    /// Look up a fingerprint: the stored packet it points to (if that
    /// packet is still resident) and the window offset within it. Any
    /// `u64` may be asked for — a match token's fingerprint field comes
    /// off the air — and one that is not a 53-bit fingerprint is a miss.
    #[must_use]
    pub fn lookup(&self, fingerprint: u64) -> Option<(PacketId, u16, &Stored)> {
        let (id, offset, stored, _) = self.lookup_entry(fingerprint)?;
        Some((id, offset, stored))
    }

    /// Like [`lookup`](Self::lookup) but also reports the entry's
    /// dead mark, saving the scan hot path a second id-table probe
    /// (the mark lives in the slot the lookup already resolved).
    #[must_use]
    pub fn lookup_entry(&self, fingerprint: u64) -> Option<(PacketId, u16, &Stored, bool)> {
        let (slot, offset) = self.fingerprints.get(fingerprint)?;
        let data = resolve(&self.slots, slot)?;
        Some((data.id, offset, &data.stored, data.dead))
    }

    /// Borrow a stored packet by id.
    #[must_use]
    pub fn packet(&self, id: PacketId) -> Option<&Stored> {
        let index = self.ids.get(id.0)?;
        Some(&self.slots[index as usize].data.as_ref()?.stored)
    }

    /// Iterate the live packets in insertion (FIFO) order, oldest
    /// first, yielding each exactly once (stale queue refs left behind
    /// by eviction are skipped). This is the cache-migration export
    /// order: re-inserting the yielded packets into a fresh cache
    /// reproduces both the contents and the eviction order. Stale
    /// fingerprint-index entries are *not* reproduced, which is
    /// behaviorally equivalent — a stale entry resolves to a miss here,
    /// and the encoder's mirrored table carries the same staleness so it
    /// never emits a match token against one.
    pub fn iter_in_order(&self) -> impl Iterator<Item = (PacketId, &Stored)> + '_ {
        self.order
            .iter()
            .filter_map(|&slot| resolve(&self.slots, slot).map(|data| (data.id, &data.stored)))
    }

    /// Mark a packet as lost at the peer (informed marking): it will be
    /// reported by [`is_dead`](Self::is_dead) until evicted.
    pub fn mark_dead(&mut self, id: PacketId) {
        if let Some(index) = self.ids.get(id.0) {
            if let Some(data) = self.slots[index as usize].data.as_mut() {
                data.dead = true;
            }
        }
    }

    /// Whether a packet was marked dead.
    #[must_use]
    pub fn is_dead(&self, id: PacketId) -> bool {
        self.ids
            .get(id.0)
            .and_then(|index| self.slots[index as usize].data.as_ref())
            .is_some_and(|data| data.dead)
    }

    /// Drop all packets and fingerprints (the Cache Flush policy's
    /// action). Ids and per-flow indices keep counting monotonically.
    pub fn flush(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.ids.clear();
        self.fingerprints.clear(self.departures);
        self.bytes_used = 0;
        self.live = 0;
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecache_rabin::Polynomial;
    use std::net::Ipv4Addr;

    fn flow() -> FlowId {
        FlowId {
            src: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 80,
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 4000,
        }
    }

    fn cache() -> Cache {
        Cache::new(&DreConfig::default())
    }

    /// A stand-in packet arena of `n` occupied slots at generation 0,
    /// for driving [`FpTable`] without a [`Cache`] around it.
    fn arena(n: usize) -> Vec<Slot> {
        (0..n)
            .map(|i| Slot {
                gen: 0,
                data: Some(SlotData {
                    id: PacketId(i as u64),
                    stored: Stored {
                        payload: Bytes::new(),
                        meta: EntryMeta {
                            flow: flow(),
                            seq: SeqNum::new(0),
                            seq_end: SeqNum::new(0),
                            flow_index: 0,
                        },
                    },
                    dead: false,
                }),
            })
            .collect()
    }

    /// Deterministic incompressible bytes (xorshift64*).
    fn fresh_bytes(state: &mut u64, len: usize) -> Bytes {
        (0..len)
            .map(|_| {
                *state ^= *state >> 12;
                *state ^= *state << 25;
                *state ^= *state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect::<Vec<u8>>()
            .into()
    }

    /// Heap bytes of the cache's fingerprint table.
    fn table_bytes(c: &Cache) -> usize {
        let regions = &c.fingerprints.regions;
        regions
            .iter()
            .map(|r| std::mem::size_of_val(r.groups.as_slice()))
            .sum()
    }

    /// Entries of the cache's fingerprint table that still resolve.
    fn live_fingerprints(c: &Cache) -> usize {
        let regions = &c.fingerprints.regions;
        (regions.iter().flat_map(|r| &r.groups).flat_map(|g| g.0))
            .filter(|e| e.head != 0 && resolve(&c.slots, e.slot).is_some())
            .count()
    }

    #[test]
    fn insert_assigns_sequential_ids_and_flow_indices() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"aaaa"), flow(), SeqNum::new(1));
        let b = c.insert(Bytes::from_static(b"bbbb"), flow(), SeqNum::new(5));
        assert_eq!(a, PacketId(0));
        assert_eq!(b, PacketId(1));
        assert_eq!(c.packet(a).unwrap().meta.flow_index, 0);
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
        assert_eq!(c.packet(b).unwrap().meta.seq_end, SeqNum::new(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes_used(), 8);
    }

    #[test]
    fn flow_indices_are_per_flow() {
        let mut c = cache();
        let other = FlowId {
            src_port: 81,
            ..flow()
        };
        c.insert(Bytes::from_static(b"x"), flow(), SeqNum::new(0));
        c.insert(Bytes::from_static(b"y"), other, SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"z"), other, SeqNum::new(1));
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
        assert_eq!(c.flow_index(&flow()), 1);
        assert_eq!(c.flow_index(&other), 2);
    }

    #[test]
    fn fingerprint_lookup_and_replacement() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"first"), flow(), SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"second"), flow(), SeqNum::new(5));
        c.index_fingerprint(0xF00, a, 3);
        let (id, off, stored) = c.lookup(0xF00).unwrap();
        assert_eq!((id, off), (a, 3));
        assert_eq!(&stored.payload[..], b"first");
        // Replacement points the fingerprint at the newer packet.
        c.index_fingerprint(0xF00, b, 1);
        let (id, off, stored) = c.lookup(0xF00).unwrap();
        assert_eq!((id, off), (b, 1));
        assert_eq!(&stored.payload[..], b"second");
        assert_eq!(c.stats().replacements, 1);
    }

    #[test]
    fn lookup_of_evicted_packet_is_none() {
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(2),
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"aa"), flow(), SeqNum::new(0));
        c.index_fingerprint(7, a, 0);
        c.insert(Bytes::from_static(b"bb"), flow(), SeqNum::new(2));
        c.insert(Bytes::from_static(b"cc"), flow(), SeqNum::new(4));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(7).is_none(), "entry must die with its packet");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        let mut c = Cache::new(&DreConfig {
            cache_bytes: 10,
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"12345"), flow(), SeqNum::new(0));
        let b = c.insert(Bytes::from_static(b"67890"), flow(), SeqNum::new(5));
        assert_eq!(c.bytes_used(), 10);
        let d = c.insert(Bytes::from_static(b"x"), flow(), SeqNum::new(10));
        assert!(c.packet(a).is_none(), "oldest evicted");
        assert!(c.packet(b).is_some());
        assert!(c.packet(d).is_some());
        assert_eq!(c.bytes_used(), 6);
    }

    #[test]
    fn index_payload_indexes_sampled_windows() {
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(2);
        let mut c = cache();
        let data: Bytes = (0..300u32)
            .map(|i| (i * 7 % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        let id = c.insert(data.clone(), flow(), SeqNum::new(0));
        c.index_payload(&engine, &sampler, id);
        // Every sampled window must resolve back to this packet at the
        // right offset.
        for (off, fp) in engine.windows(&data) {
            if sampler.selects(fp) {
                let (pid, stored_off, _) = c.lookup(fp).expect("indexed");
                assert_eq!(pid, id);
                // Duplicate content may alias offsets; the window content
                // at the stored offset must at least equal this window.
                let so = stored_off as usize;
                assert_eq!(&data[so..so + 8], &data[off..off + 8]);
            }
        }
    }

    #[test]
    fn index_sampled_equals_index_payload() {
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(2);
        let data: Bytes = (0..400u32)
            .map(|i| (i * 13 % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        // Cache A: full indexing pass. Cache B: pre-sampled pairs.
        let mut a = cache();
        let ida = a.insert(data.clone(), flow(), SeqNum::new(0));
        let outcome_a = a.index_payload(&engine, &sampler, ida);
        let mut b = cache();
        let idb = b.insert(data.clone(), flow(), SeqNum::new(0));
        let pairs: Vec<(u16, u64)> = engine
            .windows(&data)
            .filter(|&(_, fp)| sampler.selects(fp))
            .map(|(off, fp)| (off as u16, fp))
            .collect();
        let outcome_b = b.index_sampled(idb, &pairs);
        assert_eq!(outcome_a.insertions, outcome_b.insertions);
        assert_eq!(outcome_a.sampled, pairs.len() as u64);
        assert_eq!(outcome_a.windows, (data.len() - 7) as u64);
        assert_eq!(a.stats().replacements, b.stats().replacements);
        // Identical lookup results for every sampled window.
        for (off, fp) in &pairs {
            let (pa, oa, _) = a.lookup(*fp).expect("indexed in A");
            let (pb, ob, _) = b.lookup(*fp).expect("indexed in B");
            assert_eq!((pa, oa), (ida, ob));
            assert_eq!(pb, idb);
            let _ = off;
        }
    }

    #[test]
    fn lookup_entry_reports_dead_mark() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"payload"), flow(), SeqNum::new(0));
        c.index_fingerprint(0xAA0, a, 0);
        let (_, _, _, dead) = c.lookup_entry(0xAA0).unwrap();
        assert!(!dead);
        c.mark_dead(a);
        let (_, _, _, dead) = c.lookup_entry(0xAA0).unwrap();
        assert!(dead);
    }

    #[test]
    fn flush_clears_but_keeps_counters() {
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"data"), flow(), SeqNum::new(0));
        c.index_fingerprint(1, a, 0);
        c.mark_dead(a);
        c.flush();
        assert!(c.is_empty());
        assert!(c.lookup(1).is_none());
        assert!(!c.is_dead(a));
        assert_eq!(c.stats().flushes, 1);
        // Ids and flow indices continue, they never rewind.
        let b = c.insert(Bytes::from_static(b"next"), flow(), SeqNum::new(4));
        assert_eq!(b, PacketId(1));
        assert_eq!(c.packet(b).unwrap().meta.flow_index, 1);
    }

    #[test]
    fn dead_marks_require_residency_and_clear_on_eviction() {
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(1),
            ..DreConfig::default()
        });
        c.mark_dead(PacketId(99));
        assert!(!c.is_dead(PacketId(99)), "unknown packets cannot be dead");
        let a = c.insert(Bytes::from_static(b"a"), flow(), SeqNum::new(0));
        c.mark_dead(a);
        assert!(c.is_dead(a));
        c.insert(Bytes::from_static(b"b"), flow(), SeqNum::new(1));
        assert!(!c.is_dead(a), "eviction clears the dead mark");
    }

    #[test]
    fn insert_with_external_id_advances_next_id() {
        let mut c = cache();
        c.insert_with_id(
            PacketId(10),
            Bytes::from_static(b"x"),
            flow(),
            SeqNum::new(0),
        );
        assert_eq!(c.next_id(), PacketId(11));
        let b = c.insert(Bytes::from_static(b"y"), flow(), SeqNum::new(1));
        assert_eq!(b, PacketId(11));
    }

    #[test]
    fn slot_reuse_never_resolves_stale_fingerprints() {
        // Evict a packet, insert a new one into the recycled slot, and
        // verify the old fingerprint entry does not resolve to the new
        // packet (the generation check).
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(1),
            ..DreConfig::default()
        });
        let a = c.insert(Bytes::from_static(b"old-old-old"), flow(), SeqNum::new(0));
        c.index_fingerprint(0xAB, a, 2);
        let b = c.insert(Bytes::from_static(b"new-new-new"), flow(), SeqNum::new(11));
        assert!(c.packet(a).is_none());
        assert!(c.packet(b).is_some(), "new packet resident in reused slot");
        assert!(
            c.lookup(0xAB).is_none(),
            "stale entry must not alias the recycled slot"
        );
        // Re-pointing the fingerprint at the live packet works.
        c.index_fingerprint(0xAB, b, 1);
        let (id, off, _) = c.lookup(0xAB).unwrap();
        assert_eq!((id, off), (b, 1));
    }

    #[test]
    fn duplicate_id_insert_replaces_without_leaking() {
        let mut c = cache();
        let id = PacketId(5);
        c.insert_with_id(id, Bytes::from_static(b"aaaaaaaa"), flow(), SeqNum::new(0));
        c.insert_with_id(id, Bytes::from_static(b"bb"), flow(), SeqNum::new(8));
        assert_eq!(c.len(), 1, "the newer copy wins");
        assert_eq!(c.bytes_used(), 2);
        assert_eq!(&c.packet(id).unwrap().payload[..], b"bb");
    }

    #[test]
    fn tables_survive_many_inserts_and_evictions() {
        // Stress growth + backward-shift deletion with a small window.
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(64),
            ..DreConfig::default()
        });
        for i in 0..5000u64 {
            let payload: Bytes = vec![(i % 251) as u8; 32].into();
            let id = c.insert(payload, flow(), SeqNum::new((i * 32) as u32));
            c.index_fingerprint(i.wrapping_mul(0x1000) ^ 0xBEEF, id, 0);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.stats().evictions, 5000 - 64);
        // Exactly the last 64 ids are resident.
        for i in 0..5000u64 {
            assert_eq!(c.packet(PacketId(i)).is_some(), i >= 5000 - 64, "id {i}");
        }
        // And their fingerprints resolve while older ones are stale.
        for i in 0..5000u64 {
            let hit = c.lookup(i.wrapping_mul(0x1000) ^ 0xBEEF).is_some();
            assert_eq!(hit, i >= 5000 - 64, "fp of id {i}");
        }
    }

    #[test]
    fn oversized_payload_index_is_skipped_not_panicking() {
        // A payload bigger than the byte budget is evicted by its own
        // insert; the indexing pass that follows must skip (and count)
        // rather than panic.
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let sampler = Sampler::new(0);
        let mut c = Cache::new(&DreConfig {
            cache_bytes: 16,
            ..DreConfig::default()
        });
        let id = c.insert(vec![7u8; 64].into(), flow(), SeqNum::new(0));
        assert!(c.packet(id).is_none(), "evicted by its own insert");
        let a = c.index_payload(&engine, &sampler, id);
        assert_eq!((a.skipped, a.insertions, a.windows), (1, 0, 0));
        let b = c.index_sampled(id, &[(0, 0x123), (5, 0x456)]);
        assert_eq!((b.skipped, b.insertions), (1, 0));
        assert_eq!(c.stats().index_skips, 2);
        assert!(c.lookup(0x123).is_none(), "no entries for a skipped pass");
    }

    #[test]
    fn fp_table_bucketized_groups_resolve_and_spill() {
        // Fill well past several grow cycles; every key must resolve to
        // its latest value, including keys displaced into later groups.
        let mut t = FpTable::new();
        let n = 6000u64;
        let arena = arena(n as usize);
        for i in 0..n {
            let fp = i.wrapping_mul(0x9E37_79B9) & ((1 << 53) - 1);
            t.touch(&[(0, fp)]); // exercise the hint path; must be a no-op
            let slot = SlotRef {
                index: i as u32,
                gen: 0,
            };
            assert!(
                !t.insert(fp, slot, (i % 1000) as u16, &arena, 0),
                "fresh key {i}"
            );
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.spills > 0 && t.spills < n / 2, "{} spills", t.spills);
        for i in 0..n {
            let fp = i.wrapping_mul(0x9E37_79B9) & ((1 << 53) - 1);
            let (slot, off) = t.get(fp).expect("present");
            assert_eq!((slot.index, off), (i as u32, (i % 1000) as u16));
        }
        // Overwrites report the replacement and win the lookup.
        let fp0 = 0u64;
        let slot = SlotRef { index: 99, gen: 3 };
        assert!(t.insert(fp0, slot, 77, &arena, 0));
        let (s, off) = t.get(fp0).unwrap();
        assert_eq!((s.index, s.gen, off), (99, 3, 77));
        assert!(t.get(0xDEAD_BEEF_CAFE).is_none());
    }

    /// The fingerprint whose mixed key is `region`'s 6 bits followed by
    /// `key`: the inverse of [`FpTable::locate`].
    fn fp_in_region(region: usize, key: u64) -> u64 {
        // Newton's iteration for the inverse of an odd number modulo a
        // power of two doubles the correct low bits each round, from 3.
        let mut inverse = FIB;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inverse)));
        }
        let mixed = (region as u64) << FpTable::KEY_BITS | key;
        let fp = mixed.wrapping_mul(inverse) & ((1 << FpTable::FP_BITS) - 1);
        assert_eq!(FpTable::locate(fp), (region, key));
        fp
    }

    /// A random in-region key ending, like a sampled fingerprint's, in
    /// four zero bits.
    fn sampled_key(state: &mut u64) -> u64 {
        let bytes = fresh_bytes(state, 8);
        u64::from_le_bytes(bytes[..].try_into().unwrap()) >> (64 - FpTable::KEY_BITS) & !0xF
    }

    #[test]
    fn fp_table_boundary_values_round_trip() {
        let arena = arena(1);
        let shadow = SlotRef {
            index: u32::MAX,
            gen: u32::MAX,
        };
        let max_fp = (1u64 << 53) - 1;
        let max_key = (1u64 << FpTable::KEY_BITS) - 1;
        let cases = [
            (0, SlotRef::default(), 0),
            (max_fp, shadow, u16::MAX),
            (fp_in_region(0, 1), shadow, 0),
            (fp_in_region(0, max_key), SlotRef::default(), u16::MAX),
            (fp_in_region(63, 0), SlotRef { index: 7, gen: 9 }, 1),
            (fp_in_region(63, max_key), shadow, 65_534),
        ];
        let mut t = FpTable::new();
        for &(fp, slot, offset) in &cases {
            t.insert(fp, slot, offset, &arena, 0);
        }
        for &(fp, slot, offset) in &cases {
            assert_eq!(t.get(fp), Some((slot, offset)), "fp {fp:#x}");
            // No value outside 53 bits aliases it.
            for bit in 53..64 {
                assert_eq!(t.get(fp | 1 << bit), None, "fp {fp:#x} bit {bit}");
            }
        }
        assert_eq!(t.get(u64::MAX), None);
        t.touch(&[(0, u64::MAX), (0, 1 << 53)]); // a hint never panics
    }

    #[test]
    #[should_panic(expected = "fingerprints are 53-bit")]
    fn fp_table_insert_rejects_a_54_bit_key() {
        FpTable::new().insert(1 << 53, SlotRef::default(), 0, &arena(1), 0);
    }

    #[test]
    fn keys_sharing_a_region_purge_then_double_it_alone() {
        // Every key lands in region 21, so that region meets its load
        // limit again and again while the other 63 never leave their
        // initial size. Packets are evicted along the way, so some
        // passes purge and others have to double.
        const REGION: usize = 21;
        let mut arena = arena(40);
        let mut departures = 0;
        let mut table = FpTable::new();
        let mut model: HashMap<u64, (SlotRef, u16)> = HashMap::new();
        let mut seed = 0xC0FFEE_u64;
        let mut doubled = 0;
        let mut purged_only = 0;
        for step in 0..4000usize {
            let fp = fp_in_region(REGION, sampled_key(&mut seed));
            if step % 50 == 49 {
                // Evict half the packets and store new ones there.
                for slot in &mut arena[step / 50 % 2 * 20..][..20] {
                    slot.data = slot.vacate(&mut departures);
                }
            }
            let index = step % arena.len();
            let slot = SlotRef {
                index: index as u32,
                gen: arena[index].gen,
            };
            let (rehashes, slots) = (table.rehashes, table.regions[REGION].slots());
            let existed = table.insert(fp, slot, step as u16, &arena, departures);
            if table.rehashes != rehashes {
                model.retain(|_, v| resolve(&arena, v.0).is_some());
                if table.regions[REGION].slots() == 2 * slots {
                    doubled += 1;
                } else {
                    assert_eq!(table.regions[REGION].slots(), slots);
                    purged_only += 1;
                }
            }
            assert_eq!(existed, model.insert(fp, (slot, step as u16)).is_some());
            assert_eq!(table.len(), model.len());
        }
        assert!(
            doubled >= 3 && purged_only >= 3,
            "{doubled} / {purged_only}"
        );
        for (&fp, &v) in &model {
            assert_eq!(table.get(fp), Some(v));
        }
        for (r, region) in table.regions.iter().enumerate() {
            assert_eq!(
                region.slots() == 16 && region.len == 0,
                r != REGION,
                "region {r}"
            );
        }
    }

    #[test]
    fn three_consecutive_doublings_keep_every_key() {
        // All packets stay resident, so each pass at the load limit
        // finds nothing to purge and has to double.
        let arena = arena(1);
        let mut table = FpTable::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut seed = 0xD0_u64;
        let check = |table: &FpTable, keys: &[u64]| {
            for (i, &fp) in keys.iter().enumerate() {
                assert_eq!(table.get(fp), Some((SlotRef::default(), i as u16)));
            }
        };
        let mut doublings = 0;
        while doublings < 3 {
            let region = &table.regions[5];
            let (full, slots) = (region.at_load_limit(), region.slots());
            if full {
                check(&table, &keys);
            }
            let fp = fp_in_region(5, sampled_key(&mut seed));
            assert!(!table.insert(fp, SlotRef::default(), keys.len() as u16, &arena, 0));
            keys.push(fp);
            if full {
                assert_eq!(table.regions[5].slots(), 2 * slots);
                check(&table, &keys);
                doublings += 1;
            }
        }
        assert_eq!((table.rehashes, table.purges), (3, 0));
        assert_eq!(table.len(), keys.len());
    }

    #[test]
    fn a_shadow_handle_is_gone_after_the_next_grow() {
        // A fingerprint filed for a packet that is not stored holds a
        // handle that never resolves. Its region then fills up with
        // live entries and nothing is evicted: the growth pass must
        // still purge it.
        const REGION: usize = 9;
        let mut c = cache();
        let a = c.insert(Bytes::from_static(b"resident"), flow(), SeqNum::new(0));
        let mut seed = 0x5AD0_u64;
        let shadow = fp_in_region(REGION, sampled_key(&mut seed));
        c.index_fingerprint(shadow, PacketId(999), 0);
        assert!(c.fingerprints.get(shadow).is_some(), "filed");
        let mut live = 0;
        while c.fingerprints.rehashes == 0 {
            c.index_fingerprint(fp_in_region(REGION, sampled_key(&mut seed)), a, 0);
            live += 1;
        }
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.fingerprints.purges, 1);
        assert_eq!(c.fingerprints.get(shadow), None);
        assert_eq!(c.fingerprints.len(), live);
    }

    #[test]
    fn a_growth_only_stream_never_purges() {
        // Nothing leaves a 32 MiB store in 400 packets, so no growth
        // pass could find a stale entry, and none runs the purge.
        let config = DreConfig::default();
        let engine = Fingerprinter::new(Polynomial::default(), config.window);
        let sampler = Sampler::new(config.sample_bits);
        let mut c = Cache::new(&config);
        c.set_telemetry_enabled(true);
        let mut seed = 3u64;
        for _ in 0..400 {
            let id = c.insert(fresh_bytes(&mut seed, 1400), flow(), SeqNum::new(0));
            c.index_payload(&engine, &sampler, id);
        }
        let snapshot = c.telemetry_snapshot();
        assert_eq!(c.stats().evictions, 0);
        assert!(snapshot.counter("cache.fp_rehashes") > 64);
        assert_eq!(snapshot.counter("cache.fp_purges"), 0);
    }

    #[test]
    fn one_eviction_makes_the_next_grow_of_a_region_purge() {
        const REGION: usize = 40;
        let mut c = Cache::new(&DreConfig {
            max_packets: Some(1),
            ..DreConfig::default()
        });
        let mut seed = 0xE1_u64;
        // File fingerprints of `id` in REGION until it next grows.
        let mut fill = |c: &mut Cache, id: PacketId| {
            let rehashes = c.fingerprints.rehashes;
            let mut filed = 0;
            while c.fingerprints.rehashes == rehashes {
                c.index_fingerprint(fp_in_region(REGION, sampled_key(&mut seed)), id, 0);
                filed += 1;
            }
            filed
        };
        let a = c.insert(Bytes::from_static(b"first"), flow(), SeqNum::new(0));
        fill(&mut c, a);
        assert_eq!(c.fingerprints.purges, 0, "nothing has left the store");
        // `b` evicts `a`, so every entry in REGION is stale now.
        let b = c.insert(Bytes::from_static(b"second"), flow(), SeqNum::new(5));
        assert_eq!(c.stats().evictions, 1);
        let filed = fill(&mut c, b);
        assert_eq!(c.fingerprints.purges, 1);
        assert_eq!(c.fingerprints.len(), filed, "a's entries went in the purge");
    }

    #[test]
    fn index_payload_matches_the_scalar_reference_at_every_length() {
        // Lengths cover: shorter than the window, exactly one window,
        // the kernel's `8 × window` scalar-fallback boundary, and every
        // remainder the four stripes can be left with.
        let config = DreConfig::default();
        let engine = Fingerprinter::new(Polynomial::default(), config.window);
        let sampler = Sampler::new(config.sample_bits);
        let mut seed = 0x5EED_u64;
        for len in 0..=2048usize {
            let data = fresh_bytes(&mut seed, len);
            let reference: Vec<(usize, u64)> = engine
                .windows(&data)
                .filter(|&(_, fp)| sampler.selects(fp))
                .collect();
            // Cache A: the product path. Cache B: the reference pairs,
            // one `index_fingerprint` at a time.
            let mut a = Cache::new(&config);
            let ida = a.insert(data.clone(), flow(), SeqNum::new(0));
            let outcome = a.index_payload(&engine, &sampler, ida);
            let mut b = Cache::new(&config);
            let idb = b.insert(data.clone(), flow(), SeqNum::new(0));
            for &(off, fp) in &reference {
                b.index_fingerprint(fp, idb, off as u16);
            }
            assert_eq!(
                outcome,
                IndexOutcome {
                    windows: (len + 1).saturating_sub(config.window) as u64,
                    sampled: reference.len() as u64,
                    insertions: reference.len() as u64,
                    skipped: 0,
                },
                "outcome at len {len}"
            );
            assert_eq!(
                a.fingerprints.len(),
                b.fingerprints.len(),
                "entries at len {len}"
            );
            for &(_, fp) in &reference {
                let (pa, oa, _) = a.lookup(fp).expect("indexed by index_payload");
                let (pb, ob, _) = b.lookup(fp).expect("indexed by the reference");
                assert_eq!((pa, oa), (pb, ob), "fp {fp:#x} at len {len}");
            }
        }
    }

    #[test]
    fn fresh_cache_starts_with_a_minimal_table() {
        // The default config budgets 32 MiB of payload; the table must
        // not be sized for it before anything is stored.
        let c = cache();
        assert!(c.fingerprints.slots() <= 1024);
        assert!(table_bytes(&c) <= 16 * 1024);
    }

    #[test]
    fn flush_cost_follows_what_the_table_held() {
        let config = DreConfig::default();
        let engine = Fingerprinter::new(Polynomial::default(), config.window);
        let sampler = Sampler::new(config.sample_bits);
        let mut c = Cache::new(&config);
        let mut seed = 7u64;
        let mut feed = |c: &mut Cache, packets: usize| {
            for _ in 0..packets {
                let id = c.insert(fresh_bytes(&mut seed, 1400), flow(), SeqNum::new(0));
                c.index_payload(&engine, &sampler, id);
            }
        };
        feed(&mut c, 750); // ~1 MiB
        let grown = c.fingerprints.slots();
        assert!(grown >= 64 * 1024, "1 MiB indexes ~65k fingerprints");
        // A dense table is zeroed in place: the next epoch of the same
        // size re-pays no growth.
        c.flush();
        assert_eq!(c.fingerprints.slots(), grown);
        assert_eq!(c.fingerprints.len(), 0);
        // 30 packets later the table is sparse, and the flush swaps it
        // for one sized for those 30 packets.
        feed(&mut c, 30);
        let held = c.fingerprints.len();
        c.flush();
        let slots = c.fingerprints.slots();
        assert!(slots <= 16 * 1024, "{slots} slots after holding {held}");
        assert!(table_bytes(&c) <= 256 * 1024);
        assert!(slots * 3 >= held * 8, "room for a like-sized epoch");
        assert_eq!(c.stats().flushes, 2);
    }

    #[test]
    fn no_stale_hit_across_a_flush() {
        // After a flush the arena restarts at slot 0, generation 0, so a
        // surviving table entry would resolve to whatever lands there
        // next. Check both ways `clear` empties the table.
        for sparse in [false, true] {
            let mut c = cache();
            let a = c.insert(Bytes::from_static(b"before"), flow(), SeqNum::new(0));
            c.index_fingerprint(0xABC0, a, 1);
            if sparse {
                // Grow the table well past 16 slots per entry held, then
                // empty it in place so the next clear sees it sparse.
                for i in 0..4000u64 {
                    c.index_fingerprint((i + 1) << 20, a, 0);
                }
                c.flush();
                let a = c.insert(Bytes::from_static(b"before"), flow(), SeqNum::new(0));
                c.index_fingerprint(0xABC0, a, 1);
                assert!(c.fingerprints.slots() > 16 * 64);
            }
            c.flush();
            let b = c.insert(Bytes::from_static(b"after!"), flow(), SeqNum::new(6));
            assert!(c.lookup(0xABC0).is_none(), "sparse={sparse}");
            c.index_fingerprint(0xABC0, b, 2);
            let (id, off, stored) = c.lookup(0xABC0).unwrap();
            assert_eq!((id, off, &stored.payload[..]), (b, 2, &b"after!"[..]));
        }
    }

    #[test]
    fn table_is_bounded_by_live_content_not_by_traffic_seen() {
        // 16 × the cache's budget of never-repeating payload. Entries
        // are not deleted on eviction, so without the purge in `grow`
        // the table ends sized for every fingerprint that ever passed.
        let config = DreConfig {
            cache_bytes: 256 * 1024,
            ..DreConfig::default()
        };
        let engine = Fingerprinter::new(Polynomial::default(), config.window);
        let sampler = Sampler::new(config.sample_bits);
        let mut c = Cache::new(&config);
        let mut seed = 99u64;
        let mut fed = 0usize;
        while fed < 16 * config.cache_bytes {
            let id = c.insert(fresh_bytes(&mut seed, 1400), flow(), SeqNum::new(0));
            c.index_payload(&engine, &sampler, id);
            fed += 1400;
        }
        let live = live_fingerprints(&c);
        let slots = c.fingerprints.slots();
        assert!(live > 10_000, "a full 256 KiB cache indexes ~16k windows");
        assert!(slots <= 8 * live, "{slots} slots for {live} live");
        assert_eq!(table_bytes(&c), 16 * slots);
        assert!(c.fingerprints.rehashes > 0);
        // Every live packet's windows still resolve to it.
        let (id, stored) = c.iter_in_order().last().expect("non-empty");
        for (off, fp) in engine.windows(&stored.payload) {
            if sampler.selects(fp) {
                assert_eq!(c.lookup(fp).map(|(p, o, _)| (p, o)), Some((id, off as u16)));
            }
        }
    }

    proptest::proptest! {
        /// The IdTable (linear probing + backward-shift deletion) agrees
        /// with a BTreeMap model under random insert/remove/lookup
        /// interleavings. The backward-shift condition at
        /// [`IdTable::remove`] is the invariant under attack: a wrong
        /// cyclic-range comparison silently breaks probe chains, making
        /// live keys unreachable.
        #[test]
        fn id_table_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..3, 0u64..48, proptest::prelude::any::<u32>()), 1..400),
        ) {
            use std::collections::BTreeMap;
            let mut table = IdTable::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (op, key, slot) in ops {
                match op {
                    0 => {
                        table.insert(key, slot);
                        model.insert(key, slot);
                    }
                    1 => {
                        table.remove(key);
                        model.remove(&key);
                    }
                    _ => {
                        proptest::prop_assert_eq!(table.get(key), model.get(&key).copied());
                    }
                }
            }
            // Full sweep: every key in the domain agrees at the end.
            for key in 0..48u64 {
                proptest::prop_assert_eq!(table.get(key), model.get(&key).copied(), "key {}", key);
            }
            proptest::prop_assert_eq!(table.len, model.len());
        }

        /// The FpTable agrees with a HashMap model under random insert /
        /// get / clear / forced-grow interleavings while packets come
        /// and go in a stand-in arena, so the purge has stale handles
        /// and never-resolving shadow handles to drop. The model purges
        /// exactly what the table does — the inserted key's region,
        /// when the `rehashes` count moves — so `len` and the
        /// insert-returns-existed flag must agree too. The test reports
        /// the departures it causes the way `Cache` does, so a growth
        /// pass that skips a purge it needed leaves `len` too high.
        #[test]
        fn fp_table_matches_hashmap_model(
            ops in proptest::collection::vec((0u16..1000, 0u64..4000, 0usize..6), 1..6000),
        ) {
            let mut arena = arena(6);
            let mut departures = 0;
            let mut table = FpTable::new();
            let mut model: HashMap<u64, (SlotRef, u16)> = HashMap::new();
            let live = |arena: &[Slot], v: &(SlotRef, u16)| resolve(arena, v.0).is_some();
            for (step, (op, key, index)) in ops.into_iter().enumerate() {
                let fp = key << 4; // sampled fingerprints end in zero bits
                match op {
                    // Rare enough that the table fills and doubles in
                    // between (range strategies favour their end points).
                    500 => {
                        let held = table.len();
                        table.clear(departures);
                        model.clear();
                        proptest::prop_assert!(table.slots() <= 16 * (held + FpTable::REGIONS));
                    }
                    // Evict the packet in slot `index`, or store a new one there.
                    501..=503 => {
                        let slot = &mut arena[index];
                        if slot.vacate(&mut departures).is_none() {
                            slot.data = self::arena(1).pop().unwrap().data;
                        }
                    }
                    504..=509 => {
                        table.regions.iter_mut().for_each(|r| {
                            r.grow(&arena, departures);
                        });
                        model.retain(|_, v| live(&arena, v));
                    }
                    510..=749 => {
                        proptest::prop_assert_eq!(table.get(fp), model.get(&fp).copied());
                    }
                    _ => {
                        // An empty slot stands for a non-resident id.
                        let slot = match arena[index].data {
                            Some(_) => SlotRef { index: index as u32, gen: arena[index].gen },
                            None => SlotRef { index: u32::MAX, gen: u32::MAX },
                        };
                        let offset = step as u16;
                        let rehashes = table.rehashes;
                        let existed = table.insert(fp, slot, offset, &arena, departures);
                        departures += u64::from(slot.index == u32::MAX);
                        if table.rehashes != rehashes {
                            let region = FpTable::locate(fp).0;
                            model.retain(|&k, v| FpTable::locate(k).0 != region || live(&arena, v));
                        }
                        proptest::prop_assert_eq!(existed, model.insert(fp, (slot, offset)).is_some());
                    }
                }
                proptest::prop_assert_eq!(table.len(), model.len());
                proptest::prop_assert!(table.regions.iter().all(|r| r.len * 4 <= r.slots() * 3));
            }
            for key in 0..4000u64 {
                proptest::prop_assert_eq!(table.get(key << 4), model.get(&(key << 4)).copied());
            }
            // However large it grew, two clears with one entry between
            // them bring it back to the initial size, empty.
            table.clear(departures);
            table.insert(0, SlotRef::default(), 0, &arena, departures);
            table.clear(departures);
            proptest::prop_assert_eq!((table.slots(), table.len()), (1024, 0));
            for key in 0..4000u64 {
                proptest::prop_assert_eq!(table.get(key << 4), None);
            }
        }
    }
}
