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
//!   offset)`. An entry is not deleted when its packet leaves the store
//!   (matching the paper's semantics, where an index entry simply stops
//!   resolving) — a lookup whose generation disagrees with the slot's
//!   current generation is stale and reports a miss. Stale entries are
//!   reclaimed in bulk: when the table reaches its load limit it first
//!   purges everything that no longer resolves and doubles only if the
//!   live entries alone still crowd it, so its size follows the cache's
//!   contents, not the count of fingerprints ever seen.
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
    /// packet cannot abort a shard.
    pub index_skips: u64,
}

impl CacheStats {
    /// Fold another shard's counters into this one.
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
/// lookups. `FlowId` is a 12-byte value hashed once per encoded and
/// decoded packet; SipHash's per-call setup dwarfs the mixing for keys
/// this small, and the flow map needs no DoS resistance — its keys come
/// from the deployment's own traffic, not an adversarial hash-flooding
/// surface.
#[derive(Default)]
struct FlowHasher(u64);

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
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FlowMap = HashMap<FlowId, u64, std::hash::BuildHasherDefault<FlowHasher>>;

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

/// Bucketized open-addressing `fingerprint → (slot, gen, offset)` table
/// with no per-entry deletion: space is reclaimed in bulk, by
/// [`clear`](Self::clear) on a flush and by [`grow`](Self::grow)'s purge
/// of entries whose packet has left the store.
///
/// Keys and values live in *separate* arrays (SoA): a probe chain walks
/// only the packed 8-byte key words, and the value array is touched
/// exactly once, on a hit or at the insert position. Slots are grouped
/// into [`FpTable::GROUP`]-slot buckets — eight 8-byte keys span exactly
/// one 64-byte cache line, so a probe group resolves (hit, miss, or
/// empty-slot insert) with a single line fill in the common case, and
/// displaced keys spill to the *next group* rather than the next slot,
/// which keeps chains short at the same load factor. The encoder's scan
/// issues one lookup per sampled window — on fresh traffic almost all of
/// them misses into a table far larger than L2 — so the probe path's
/// cache footprint is what bounds single-shard encode throughput, and
/// [`FpTable::prefetch`] lets the batched scan pull a candidate's key
/// line while earlier probes resolve.
///
/// # Sizing
///
/// Every whole-table cost is proportional to what the table holds, not
/// to the cache's configured budget. A table starts at 1024 slots and
/// grows on demand, so a gateway that lives for one 587 KB download
/// keeps a table that fits in L2 instead of spraying probes over one
/// sized for 32 MiB. `clear` zeroes a dense table in place and replaces
/// a sparse one with a table sized for what it held, so a policy that
/// flushes every few packets pays kilobytes per flush. And when the
/// load limit is reached, stale entries go first: the table is bounded
/// by a constant factor of the *live* fingerprints however much
/// distinct traffic has passed through.
#[derive(Debug)]
struct FpTable {
    /// `fp | TAG` for occupied slots, 0 for empty ones. Fingerprints
    /// are 53-bit (see [`bytecache_rabin::FINGERPRINT_BITS`]), so the
    /// tag bit cannot collide with a key, and a zero fingerprint is
    /// still distinguishable from an empty slot.
    keys: Vec<u64>,
    vals: Vec<FpValue>,
    /// log2 of the number of bucket groups (slot count = groups × GROUP).
    log2_groups: u32,
    len: usize,
    /// [`grow`](Self::grow) passes run over the table's lifetime.
    rehashes: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct FpValue {
    slot: SlotRef,
    offset: u16,
}

impl FpTable {
    /// Slots per bucket group: 8 × 8-byte keys = one 64-byte cache line.
    const GROUP: usize = 8;
    /// 128 initial groups = 1024 slots (20 KiB).
    const INITIAL_LOG2_GROUPS: u32 = 7;
    /// Occupancy tag on key words (bit 63; fingerprints fit in 53 bits).
    const TAG: u64 = 1 << 63;

    fn new() -> Self {
        let slots = Self::GROUP << Self::INITIAL_LOG2_GROUPS;
        FpTable {
            keys: vec![0; slots],
            vals: vec![FpValue::default(); slots],
            log2_groups: Self::INITIAL_LOG2_GROUPS,
            len: 0,
            rehashes: 0,
        }
    }

    /// Swap in fresh, empty arrays of `2^log2_groups` groups and hand
    /// back the old ones.
    fn reset_to(&mut self, log2_groups: u32) -> (Vec<u64>, Vec<FpValue>) {
        let slots = Self::GROUP << log2_groups;
        self.log2_groups = log2_groups;
        self.len = 0;
        (
            std::mem::replace(&mut self.keys, vec![0; slots]),
            std::mem::replace(&mut self.vals, vec![FpValue::default(); slots]),
        )
    }

    /// Smallest size that holds `entries` at no more than half the load
    /// limit — the occupancy a doubling leaves behind, so a table sized
    /// here takes as many further inserts as it holds before it next
    /// has to make room.
    fn log2_groups_for(entries: usize) -> u32 {
        // entries / slots ≤ 3/8 with slots = 8 × groups.
        let groups = entries.div_ceil(3).max(1).next_power_of_two();
        groups.ilog2().max(Self::INITIAL_LOG2_GROUPS)
    }

    /// Home bucket group of a fingerprint. The Fibonacci multiply mixes
    /// the sampler-zeroed low bits; the *high* bits of the product pick
    /// the group.
    #[inline]
    fn group(&self, fp: u64) -> usize {
        (fp.wrapping_mul(FIB) >> (64 - self.log2_groups)) as usize
    }

    /// Pull the key and value lines of `fp`'s home group toward the
    /// cache ahead of the probe. These are plain (black-boxed) loads,
    /// not intrinsics — the crate forbids `unsafe` — but they have the
    /// same effect: the 64-byte key group (and the start of its value
    /// group, which a hit or an insert will touch) is in flight while
    /// the caller resolves earlier candidates, so by the time
    /// [`get`](Self::get) or [`insert`](Self::insert) runs, the lines
    /// have usually landed. Purely a performance hint; no observable
    /// state changes.
    #[inline]
    fn prefetch(&self, fp: u64) {
        let base = self.group(fp) * Self::GROUP;
        std::hint::black_box(self.keys[base]);
        std::hint::black_box(self.vals[base].offset);
    }

    /// Insert or overwrite; returns `true` when the key already existed
    /// (the paper's replacement event). `arena` is the packet arena the
    /// handles point into: at the load limit, entries it no longer
    /// resolves are dropped before the table is allowed to grow.
    fn insert(&mut self, fp: u64, slot: SlotRef, offset: u16, arena: &[Slot]) -> bool {
        debug_assert_eq!(fp & Self::TAG, 0, "fingerprints are 53-bit");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow(arena);
        }
        self.put(fp | Self::TAG, FpValue { slot, offset })
    }

    /// Place a tagged key in the first free slot of its probe chain, or
    /// overwrite it where it sits. The caller guarantees a free slot.
    fn put(&mut self, key: u64, val: FpValue) -> bool {
        let gmask = (1usize << self.log2_groups) - 1;
        let mut g = self.group(key & !Self::TAG);
        loop {
            let base = g * Self::GROUP;
            for i in base..base + Self::GROUP {
                let k = self.keys[i];
                if k == 0 {
                    self.keys[i] = key;
                    self.vals[i] = val;
                    self.len += 1;
                    return false;
                }
                if k == key {
                    self.vals[i] = val;
                    return true;
                }
            }
            g = (g + 1) & gmask;
        }
    }

    fn get(&self, fp: u64) -> Option<(SlotRef, u16)> {
        let gmask = (1usize << self.log2_groups) - 1;
        let key = fp | Self::TAG;
        let mut g = self.group(fp);
        loop {
            let base = g * Self::GROUP;
            for i in base..base + Self::GROUP {
                let k = self.keys[i];
                if k == 0 {
                    return None;
                }
                if k == key {
                    let v = self.vals[i];
                    return Some((v.slot, v.offset));
                }
            }
            g = (g + 1) & gmask;
        }
    }

    /// Make room at the load limit: purge what `arena` no longer
    /// resolves, then double only if the live entries alone still hold
    /// more than half the limit. Either way the table is at most 3/8
    /// full afterwards, so inserts numbering 3/8 of its slots pay for
    /// the next O(slots) pass, and it stays within a constant factor of
    /// its live entries — without the purge it grew with every distinct
    /// fingerprint ever seen, as each doubling re-inserted the stale
    /// ones. A purged key already read as a miss, so lookups cannot
    /// tell.
    fn grow(&mut self, arena: &[Slot]) {
        self.rehashes += 1;
        self.purge(arena);
        if self.len * 8 > self.keys.len() * 3 {
            self.rehash_into(self.log2_groups + 1);
        }
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
    /// The pass is sequential over the table and allocates nothing.
    fn purge(&mut self, arena: &[Slot]) {
        let Some(start) = self.keys.iter().position(|&k| k == 0) else {
            return; // unreachable below the load limit
        };
        let mask = self.keys.len() - 1;
        self.len = 0;
        for step in 1..=mask {
            let i = (start + step) & mask;
            let key = self.keys[i];
            if key == 0 {
                continue;
            }
            self.keys[i] = 0;
            let val = self.vals[i];
            if resolve(arena, val.slot).is_some() {
                self.put(key, val);
            }
        }
    }

    /// Move every entry into fresh arrays of `2^log2_groups` groups.
    fn rehash_into(&mut self, log2_groups: u32) {
        let (old_keys, old_vals) = self.reset_to(log2_groups);
        // The rehash reads the old arrays sequentially (hardware
        // prefetch handles those) but writes the new table at random
        // groups; issuing each key's target-group prefetch a few
        // iterations early hides most of those misses.
        const AHEAD: usize = 16;
        for i in 0..old_keys.len() {
            if let Some(&k) = old_keys.get(i + AHEAD) {
                if k != 0 {
                    self.prefetch(k & !Self::TAG);
                }
            }
            let k = old_keys[i];
            if k != 0 {
                self.put(k, old_vals[i]);
            }
        }
    }

    /// Drop every entry, at a cost proportional to how many there were.
    /// A dense table is zeroed in place (only the key words gate
    /// occupancy, so the value array is not touched) and keeps its
    /// size, so a flush-heavy policy does not re-pay the growth
    /// rehashes every epoch. A sparse one — more than 16 slots per
    /// entry held — is replaced by a table sized for what it held:
    /// zeroing megabytes to forget the 30 packets since the last flush
    /// was the largest single cost of the Cache Flush policy.
    fn clear(&mut self) {
        if self.keys.len() > 16 * self.len.max(64) {
            self.reset_to(Self::log2_groups_for(self.len));
        } else {
            self.keys.fill(0);
            self.len = 0;
        }
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
/// order, with the same lookahead prefetching as the batched scan's
/// probe loop — the candidates are random fingerprints, so nearly every
/// insert opens a cold group of a table that has outgrown the CPU cache
/// unless its lines are already in flight.
fn insert_sampled(
    table: &mut FpTable,
    arena: &[Slot],
    stats: &mut CacheStats,
    slot: SlotRef,
    sampled: &[(u16, u64)],
) {
    const AHEAD: usize = 8;
    for &(_, fp) in sampled.iter().take(AHEAD) {
        table.prefetch(fp);
    }
    for (i, &(offset, fp)) in sampled.iter().enumerate() {
        if let Some(&(_, next_fp)) = sampled.get(i + AHEAD) {
            table.prefetch(next_fp);
        }
        if table.insert(fp, slot, offset, arena) {
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

    /// Tag this cache's telemetry with a shard index.
    pub fn set_telemetry_shard(&mut self, shard: u32) {
        self.telemetry.set_shard(shard);
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
        rec.gauge("cache.fp_slots", self.fingerprints.keys.len() as u64);
        rec.gauge("cache.fp_entries", self.fingerprints.len as u64);
        rec.count("cache.fp_rehashes", self.fingerprints.rehashes);
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
        let slot = &mut self.slots[index as usize];
        let Some(data) = slot.data.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
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
            .insert(fingerprint, slot, offset, &self.slots)
        {
            self.stats.replacements += 1;
        }
    }

    /// The handle indexing passes file packet `id`'s fingerprints under.
    /// If `id` is no longer stored — a payload larger than the cache
    /// budget is evicted by its own insert, and a peer can evict a
    /// packet between store and index under divergence repair — the
    /// pass is skipped and counted (`skipped`, `CacheStats.index_skips`)
    /// rather than aborting the shard.
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
    /// matches), and the path of state import, the encoder's legacy
    /// two-pass mode and policy-suppressed packets. It rolls the payload
    /// through the same multi-lane kernel as the encoder's batched scan
    /// ([`Fingerprinter::scan_sampled_batched`]) and files the pairs
    /// through the same insert loop as [`index_sampled`]
    /// (Self::index_sampled), which the encoder's scanning modes feed
    /// directly to skip the re-fingerprinting.
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
    pub fn index_sampled(&mut self, id: PacketId, sampled: &[(u16, u64)]) -> IndexOutcome {
        let slot = match self.index_target(id) {
            Ok(slot) => slot,
            Err(skipped) => return skipped,
        };
        insert_sampled(
            &mut self.fingerprints,
            &self.slots,
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
    /// [`lookup_entry`](Self::lookup_entry) for `fingerprint` is coming
    /// soon: pull its fingerprint-table key line toward the cache so
    /// the probe resolves without a demand miss. Used by the encoder's
    /// batched scan, which knows its candidate fingerprints several
    /// iterations ahead of the probes.
    #[inline]
    pub fn prefetch_fingerprint(&self, fingerprint: u64) {
        self.fingerprints.prefetch(fingerprint);
    }

    /// Second-stage scan prefetch: resolve `fingerprint` through the
    /// (by now cache-resident) fingerprint table and pull the slot and
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
    /// packet is still resident) and the window offset within it.
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
        self.fingerprints.clear();
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

    /// Entries of the cache's fingerprint table that still resolve.
    fn live_fingerprints(c: &Cache) -> usize {
        let t = &c.fingerprints;
        (0..t.keys.len())
            .filter(|&i| t.keys[i] != 0 && resolve(&c.slots, t.vals[i].slot).is_some())
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
            t.prefetch(fp); // exercise the hint path; must be a no-op
            let slot = SlotRef {
                index: i as u32,
                gen: 0,
            };
            assert!(
                !t.insert(fp, slot, (i % 1000) as u16, &arena),
                "fresh key {i}"
            );
        }
        for i in 0..n {
            let fp = i.wrapping_mul(0x9E37_79B9) & ((1 << 53) - 1);
            let (slot, off) = t.get(fp).expect("present");
            assert_eq!((slot.index, off), (i as u32, (i % 1000) as u16));
        }
        // Overwrites report the replacement and win the lookup.
        let fp0 = 0u64;
        let slot = SlotRef { index: 99, gen: 3 };
        assert!(t.insert(fp0, slot, 77, &arena));
        let (s, off) = t.get(fp0).unwrap();
        assert_eq!((s.index, s.gen, off), (99, 3, 77));
        assert!(t.get(0xDEAD_BEEF_CAFE).is_none());
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
                a.fingerprints.len, b.fingerprints.len,
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
        assert!(cache().fingerprints.keys.len() <= 1024);
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
        let grown = c.fingerprints.keys.len();
        assert!(grown >= 64 * 1024, "1 MiB indexes ~65k fingerprints");
        // A dense table is zeroed in place: the next epoch of the same
        // size re-pays no growth.
        c.flush();
        assert_eq!(c.fingerprints.keys.len(), grown);
        assert_eq!(c.fingerprints.len, 0);
        // 30 packets later the table is sparse, and the flush swaps it
        // for one sized for those 30 packets.
        feed(&mut c, 30);
        let held = c.fingerprints.len;
        c.flush();
        let slots = c.fingerprints.keys.len();
        assert!(slots <= 16 * 1024, "{slots} slots after holding {held}");
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
                assert!(c.fingerprints.keys.len() > 16 * 64);
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
        let slots = c.fingerprints.keys.len();
        assert!(live > 10_000, "a full 256 KiB cache indexes ~16k windows");
        assert!(slots <= 8 * live, "{slots} slots for {live} live");
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
        /// exactly when the table does (its `rehashes` count moves), so
        /// `len` and the insert-returns-existed flag must agree too.
        #[test]
        fn fp_table_matches_hashmap_model(
            ops in proptest::collection::vec((0u16..1000, 0u64..4000, 0usize..6), 1..6000),
        ) {
            let mut arena = arena(6);
            let mut table = FpTable::new();
            let mut model: HashMap<u64, (SlotRef, u16)> = HashMap::new();
            let live = |arena: &[Slot], v: &(SlotRef, u16)| resolve(arena, v.0).is_some();
            for (step, (op, key, index)) in ops.into_iter().enumerate() {
                let fp = key << 4; // sampled fingerprints end in zero bits
                match op {
                    // Rare enough that the table fills and doubles in
                    // between (range strategies favour their end points).
                    500 => {
                        let held = table.len;
                        table.clear();
                        model.clear();
                        proptest::prop_assert!(table.keys.len() <= 16 * held.max(64));
                    }
                    // Evict the packet in slot `index`, or store a new one there.
                    501..=503 => {
                        let slot = &mut arena[index];
                        match slot.data.take() {
                            Some(_) => slot.gen += 1,
                            None => slot.data = self::arena(1).pop().unwrap().data,
                        }
                    }
                    504..=509 => {
                        table.grow(&arena);
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
                        let existed = table.insert(fp, slot, offset, &arena);
                        if table.rehashes != rehashes {
                            model.retain(|_, v| live(&arena, v));
                        }
                        proptest::prop_assert_eq!(existed, model.insert(fp, (slot, offset)).is_some());
                    }
                }
                proptest::prop_assert_eq!(table.len, model.len());
                proptest::prop_assert!(table.len * 4 <= table.keys.len() * 3);
            }
            for key in 0..4000u64 {
                proptest::prop_assert_eq!(table.get(key << 4), model.get(&(key << 4)).copied());
            }
            // However large it grew, two clears with one entry between
            // them bring it back to the initial size, empty.
            table.clear();
            table.insert(0, SlotRef::default(), 0, &arena);
            table.clear();
            proptest::prop_assert_eq!((table.keys.len(), table.len), (1024, 0));
            for key in 0..4000u64 {
                proptest::prop_assert_eq!(table.get(key << 4), None);
            }
        }
    }
}
