//! The byte caching decoder: reconstruct payloads and mirror the
//! encoder's cache updates.

use bytes::Bytes;

use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::config::DreConfig;
use crate::engine::EngineCore;
use crate::migrate::{
    DecoderState, MigrateError, MigratedEntry, MIGRATION_ENTRY_OVERHEAD, MIGRATION_HEADER_LEN,
    MIGRATION_TRAILER_LEN,
};
use crate::policy::PacketMeta;
use crate::stats::DecoderStats;
use crate::store::{Cache, PacketId};
use crate::wire::{self, ShimPayload, Token, WireError};

/// Why a shim payload could not be reconstructed.
///
/// Every variant is a *drop*: the decoder discards the packet, TCP never
/// sees it, and the sender eventually retransmits — the mechanics behind
/// the paper's perceived-loss-rate inflation (Figure 13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The shim payload did not parse.
    Malformed(WireError),
    /// A match token references a fingerprint absent from the cache
    /// (its packet was lost, evicted, or flushed).
    MissingReference {
        /// The unresolved fingerprint.
        fingerprint: u64,
    },
    /// A match token's region exceeds the cached packet's bounds (the
    /// entry went stale: the encoder re-pointed the fingerprint).
    BadRegion {
        /// The offending fingerprint.
        fingerprint: u64,
    },
    /// Reconstruction succeeded structurally but the checksum disagrees —
    /// a stale cache entry supplied wrong bytes.
    ChecksumMismatch,
    /// The shim was encoded against a cache generation this decoder is
    /// resynchronizing away from (it was wiped and has requested a
    /// resync). Dropped without attempting reconstruction — and without
    /// a per-shim NACK, which is the point of the generation scheme.
    StaleGeneration {
        /// The generation the shim was encoded against.
        gen: u32,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Malformed(e) => write!(f, "malformed shim payload: {e}"),
            DecodeError::MissingReference { fingerprint } => {
                write!(f, "no cache entry for fingerprint {fingerprint:#x}")
            }
            DecodeError::BadRegion { fingerprint } => {
                write!(f, "stale region for fingerprint {fingerprint:#x}")
            }
            DecodeError::ChecksumMismatch => write!(f, "reconstruction checksum mismatch"),
            DecodeError::StaleGeneration { gen } => {
                write!(f, "shim from stale cache generation {gen} during resync")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Feedback the decoder wants sent upstream (informed marking).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Feedback {
    /// Shim ids the decoder believes were lost (id gaps) or failed to
    /// decode; the encoder should mark them dead.
    pub nack_ids: Vec<u32>,
    /// Id of the shim this call successfully decoded, if any. The
    /// gateway uses it to retire a pending recovery request.
    pub decoded_id: Option<u32>,
    /// Id of the shim this call failed to reconstruct because a cache
    /// reference diverged (missing / stale / wrong bytes) — a candidate
    /// for a per-entry recovery request. `None` for malformed payloads
    /// (no trustworthy id) and for stale-generation drops (the resync
    /// supersedes per-entry repair).
    pub failed_id: Option<u32>,
    /// Set while the decoder is waiting out a post-wipe resync: the
    /// generation it observed and wants the encoder to move past. The
    /// gateway should (re)send a resync request upstream.
    pub resync_gen: Option<u32>,
}

/// The byte caching decoder.
///
/// Performs the reciprocal steps of the [`Encoder`](crate::Encoder) and
/// mirrors its cache update procedure on every *successfully* received
/// payload — which is precisely why loss desynchronizes the two caches:
/// the decoder misses the updates of packets it never received.
pub struct Decoder {
    core: EngineCore,
    epoch: Option<u16>,
    next_expected_id: u32,
    /// Cache generation last seen in a version-2 shim header; `None`
    /// until the first generation-stamped shim arrives (or after a
    /// wipe, when any previously synced generation is forgotten).
    sync_gen: Option<u32>,
    /// True between a cache wipe and the first shim proving the encoder
    /// flushed too (its generation moved past [`Self::resync_base`]).
    need_resync: bool,
    /// The generation observed while waiting for a resync; shims still
    /// stamped with it are dropped as [`DecodeError::StaleGeneration`].
    resync_base: Option<u32>,
    /// After a wipe, adopt the next shim id as-is instead of NACKing the
    /// (possibly huge) id gap the restart left behind.
    adopt_next_id: bool,
    stats: DecoderStats,
    /// Decode-failure / NACK / epoch-flush events and per-packet
    /// distributions; disabled by default.
    telemetry: Recorder,
}

impl DecodeError {
    /// Numeric failure class carried in [`EventKind::DecodeFailure`]
    /// events (see that variant's docs for the mapping).
    #[must_use]
    pub fn class(&self) -> u64 {
        match self {
            DecodeError::MissingReference { .. } => 1,
            DecodeError::ChecksumMismatch => 2,
            DecodeError::BadRegion { .. } => 3,
            DecodeError::Malformed(_) => 4,
            DecodeError::StaleGeneration { .. } => 6,
        }
    }
}

impl Decoder {
    /// New decoder; the configuration must equal the encoder's.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: DreConfig) -> Self {
        Decoder {
            core: EngineCore::new(config),
            epoch: None,
            next_expected_id: 0,
            sync_gen: None,
            need_resync: false,
            resync_base: None,
            adopt_next_id: false,
            stats: DecoderStats::default(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Simulate a decoder restart: drop every cached packet and all
    /// synchronization state. The next generation-stamped shim triggers
    /// a resync request; on a version-1 wire the decoder falls back to
    /// the legacy behavior (per-shim NACKs until the caches re-converge).
    pub fn wipe(&mut self) {
        let entries = self.core.cache.len() as u64;
        let bytes = self.core.cache.bytes_used() as u64;
        self.core.cache.flush();
        self.epoch = None;
        self.sync_gen = None;
        self.need_resync = true;
        self.resync_base = None;
        self.adopt_next_id = true;
        self.stats.wipes += 1;
        self.telemetry
            .event(Event::new(EventKind::CacheWipe).details(entries, bytes));
    }

    /// Whether the decoder is still waiting for the encoder to confirm
    /// a post-wipe resync (generation bump).
    #[must_use]
    pub fn needs_resync(&self) -> bool {
        self.need_resync
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &DecoderStats {
        &self.stats
    }

    /// Enable or disable telemetry on this decoder and its cache
    /// (builder style). Never changes decode results.
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.set_telemetry_enabled(enabled);
        self
    }

    /// Enable or disable telemetry on this decoder and its cache.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
        self.core.cache.set_telemetry_enabled(enabled);
    }

    /// Tag this decoder's telemetry (and its cache's) with a shard
    /// index; [`crate::ShardedDecoder`] sets one per shard.
    pub fn set_telemetry_shard(&mut self, shard: u32) {
        self.telemetry.set_shard(shard);
        self.core.cache.set_telemetry_shard(shard);
    }

    /// The live telemetry recorder.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// A merged telemetry snapshot: live decoder events, the cache's
    /// snapshot, and every [`DecoderStats`] counter under `decoder.*`.
    /// Empty when telemetry is disabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut rec = self.telemetry.clone();
        rec.merge(&self.core.cache.telemetry_snapshot());
        let s = &self.stats;
        rec.count("decoder.packets", s.packets);
        rec.count("decoder.raw", s.raw);
        rec.count("decoder.decoded", s.decoded);
        rec.count("decoder.missing_reference", s.missing_reference);
        rec.count("decoder.checksum_mismatch", s.checksum_mismatch);
        rec.count("decoder.bad_region", s.bad_region);
        rec.count("decoder.malformed", s.malformed);
        rec.count("decoder.epoch_flushes", s.epoch_flushes);
        rec.count("decoder.stale_gen", s.stale_gen);
        rec.count("decoder.wipes", s.wipes);
        rec.count("decoder.resyncs", s.resyncs);
        rec.count("decoder.undecodable", s.undecodable());
        rec.count("decoder.bytes_in", s.bytes_in);
        rec.count("decoder.bytes_out", s.bytes_out);
        rec.count("decoder.index_skips", s.index_skips);
        rec
    }

    /// The configuration this decoder was built with.
    #[must_use]
    pub fn config(&self) -> &DreConfig {
        &self.core.config
    }

    /// Borrow the cache (inspection / tests).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.core.cache
    }

    /// Snapshot this decoder's cache and synchronization state for a
    /// gateway handoff migration (see [`DecoderState`] for the wire
    /// format and semantics).
    ///
    /// `max_bytes` bounds the serialized size of the snapshot: when the
    /// full cache does not fit, the *oldest* entries are dropped first —
    /// they are also the first the budget would evict, and the newest
    /// entries are the ones in-flight shims are most likely to
    /// reference. The synchronization header always fits.
    #[must_use]
    pub fn export_state(&self, max_bytes: Option<usize>) -> DecoderState {
        let mut entries: Vec<MigratedEntry> = self
            .core
            .cache
            .iter_in_order()
            .map(|(id, stored)| MigratedEntry {
                id: id.0,
                flow: stored.meta.flow,
                seq: stored.meta.seq,
                payload: stored.payload.clone(),
            })
            .collect();
        if let Some(budget) = max_bytes {
            let mut total = MIGRATION_HEADER_LEN
                + MIGRATION_TRAILER_LEN
                + entries
                    .iter()
                    .map(|e| MIGRATION_ENTRY_OVERHEAD + e.payload.len())
                    .sum::<usize>();
            let mut drop = 0;
            while total > budget && drop < entries.len() {
                total -= MIGRATION_ENTRY_OVERHEAD + entries[drop].payload.len();
                drop += 1;
            }
            entries.drain(..drop);
        }
        DecoderState {
            epoch: self.epoch,
            next_expected_id: self.next_expected_id,
            sync_gen: self.sync_gen,
            need_resync: self.need_resync,
            resync_base: self.resync_base,
            adopt_next_id: self.adopt_next_id,
            entries,
        }
    }

    /// Replace this decoder's cache and synchronization state with an
    /// exported snapshot (the receiving side of a handoff migration).
    /// The generation carry-over in `state.sync_gen` is what lets this
    /// decoder keep decoding the encoder's current generation without a
    /// resync round trip.
    ///
    /// Cached entries are re-inserted and re-indexed oldest-first, which
    /// reproduces the source cache's contents, eviction order, and
    /// live-fingerprint index (stale index entries are not reproduced;
    /// that is behaviorally invisible — see `Cache::iter_in_order`).
    pub fn import_state(&mut self, state: DecoderState) {
        self.core.cache.flush();
        self.epoch = state.epoch;
        self.next_expected_id = state.next_expected_id;
        self.sync_gen = state.sync_gen;
        self.need_resync = state.need_resync;
        self.resync_base = state.resync_base;
        self.adopt_next_id = state.adopt_next_id;
        for entry in state.entries {
            let pid = PacketId(entry.id);
            self.core
                .cache
                .insert_with_id(pid, entry.payload, entry.flow, entry.seq);
            let indexed = self
                .core
                .cache
                .index_payload(&self.core.engine, &self.core.sampler, pid);
            self.stats.scan_windows += indexed.windows;
            self.stats.sampled_windows += indexed.sampled;
            self.stats.index_insertions += indexed.insertions;
            self.stats.index_skips += indexed.skipped;
        }
    }

    /// Import a serialized snapshot, atomically: the blob is fully
    /// parsed and integrity-checked *before* any state is touched, so a
    /// malformed, truncated, or corrupted blob leaves the decoder's
    /// cache and synchronization state exactly as they were.
    ///
    /// # Errors
    ///
    /// Returns the parse failure (see [`DecoderState::from_bytes`]);
    /// on any error `self` is unmodified.
    pub fn import_state_bytes(&mut self, buf: &[u8]) -> Result<(), MigrateError> {
        let state = DecoderState::from_bytes(buf)?;
        self.import_state(state);
        Ok(())
    }

    /// Decode one shim payload from a plain byte slice.
    ///
    /// Copies the payload into fresh shared storage first; prefer
    /// [`decode_shared`](Self::decode_shared) when the payload already
    /// lives in a ref-counted [`Bytes`] buffer (the gateway path).
    ///
    /// On success the original payload is returned and cached (mirroring
    /// the encoder); on failure the packet must be dropped by the
    /// caller. Either way, [`Feedback`] lists shim ids to NACK upstream
    /// when informed marking is enabled.
    pub fn decode(
        &mut self,
        wire_payload: &[u8],
        meta: &PacketMeta,
    ) -> (Result<Bytes, DecodeError>, Feedback) {
        self.decode_shared(&Bytes::copy_from_slice(wire_payload), meta)
    }

    /// Decode one shim payload without copying it: the common raw
    /// (unencoded) body and all literal regions are returned — and
    /// cached — as O(1) slices of `wire_payload`, so a packet traverses
    /// the decode path with zero payload copies.
    ///
    /// Ownership note: those slices keep the *whole* arriving buffer
    /// alive (shim header included, ~15 extra bytes per cached packet)
    /// until the cache entry is evicted. See DESIGN.md §11.
    pub fn decode_shared(
        &mut self,
        wire_payload: &Bytes,
        meta: &PacketMeta,
    ) -> (Result<Bytes, DecodeError>, Feedback) {
        let span = self.telemetry.span_start();
        self.stats.packets += 1;
        self.stats.bytes_in += wire_payload.len() as u64;
        let parsed = match wire::parse_shared(wire_payload) {
            Ok(p) => p,
            Err(e) => {
                self.stats.malformed += 1;
                let err = DecodeError::Malformed(e);
                self.telemetry.event(
                    Event::new(EventKind::DecodeFailure)
                        .flow(meta.flow.stable_hash())
                        .details(err.class(), u64::from(meta.seq.raw())),
                );
                self.telemetry.span_end("span.decode_ns", span);
                return (Err(err), Feedback::default());
            }
        };
        let mut feedback = Feedback::default();

        // Epoch advanced ⇒ the encoder flushed; mirror it. Comparison is
        // wrapping ("newer than"), so a reordered packet from an *older*
        // epoch cannot thrash the cache — it just fails to decode.
        match self.epoch {
            None => self.epoch = Some(parsed.header.epoch),
            Some(current) => {
                let advanced = (parsed.header.epoch.wrapping_sub(current) as i16) > 0;
                if advanced {
                    self.core.cache.flush();
                    self.stats.epoch_flushes += 1;
                    self.epoch = Some(parsed.header.epoch);
                    self.telemetry.event(
                        Event::new(EventKind::EpochFlush)
                            .flow(meta.flow.stable_hash())
                            .details(u64::from(parsed.header.epoch), 0),
                    );
                }
            }
        }

        // Cache-generation tracking (version-2 shims). A wiped decoder
        // asks for a generation bump; until the bump shows up in shim
        // headers, encoded shims are dropped *silently* — no per-shim
        // NACK storm — while raw shims still repopulate the cache.
        match parsed.header.gen {
            None => {
                // Version-1 wire: no generation mechanism. Fall back to
                // the legacy divergence behavior (per-shim NACKs).
                if self.need_resync {
                    self.need_resync = false;
                    self.resync_base = None;
                }
            }
            Some(gen) => {
                if self.need_resync {
                    match self.resync_base {
                        None => self.resync_base = Some(gen),
                        Some(base) if gen != base => {
                            // The encoder flushed and bumped: resync done.
                            // Drop whatever the raw shims of the old
                            // generation repopulated — the encoder
                            // flushed those entries too, so they will
                            // never be referenced again. Adopting the
                            // generation here also keeps the unrequested-
                            // change arm below from double-counting.
                            self.need_resync = false;
                            self.resync_base = None;
                            self.core.cache.flush();
                            self.sync_gen = Some(gen);
                            self.stats.resyncs += 1;
                            self.telemetry.event(
                                Event::new(EventKind::Resync)
                                    .flow(meta.flow.stable_hash())
                                    .details(u64::from(gen), 0),
                            );
                        }
                        Some(_) => {}
                    }
                    if self.need_resync {
                        feedback.resync_gen = self.resync_base;
                    }
                }
                match self.sync_gen {
                    None => self.sync_gen = Some(gen),
                    Some(current) if current != gen => {
                        // Unrequested generation change: the *encoder*
                        // restarted or answered someone else's resync.
                        // Its cache is empty; ours must follow.
                        self.core.cache.flush();
                        self.sync_gen = Some(gen);
                        self.stats.resyncs += 1;
                        self.telemetry.event(
                            Event::new(EventKind::Resync)
                                .flow(meta.flow.stable_hash())
                                .details(u64::from(gen), 0),
                        );
                    }
                    Some(_) => {}
                }
            }
        }

        // Loss detection by id gap (informed marking feedback).
        let id = parsed.header.id;
        if self.adopt_next_id {
            // First shim after a wipe: the gap is an artifact of the
            // restart, not of loss — adopt rather than NACK it.
            self.adopt_next_id = false;
            self.next_expected_id = id.wrapping_add(1);
        } else if id >= self.next_expected_id {
            for missing in self.next_expected_id..id {
                feedback.nack_ids.push(missing);
            }
            self.next_expected_id = id + 1;
        }

        // Encoded shims from the pre-resync generation reference a cache
        // we no longer have; drop them without NACK or repair traffic.
        if self.need_resync && parsed.header.encoded {
            let gen = parsed.header.gen.unwrap_or_default();
            self.stats.stale_gen += 1;
            let err = DecodeError::StaleGeneration { gen };
            self.telemetry.event(
                Event::new(EventKind::DecodeFailure)
                    .flow(meta.flow.stable_hash())
                    .details(err.class(), u64::from(meta.seq.raw())),
            );
            self.telemetry.span_end("span.decode_ns", span);
            return (Err(err), feedback);
        }

        let result = self.reconstruct(&parsed);
        match &result {
            Ok(payload) => {
                self.stats.bytes_out += payload.len() as u64;
                if parsed.header.encoded {
                    self.stats.decoded += 1;
                } else {
                    self.stats.raw += 1;
                }
                // Mirror the encoder's cache update procedure: store the
                // packet, then index it (the decoder never scans for
                // matches, so this single pass is its whole per-byte
                // cost).
                let pid = PacketId(u64::from(id));
                self.core
                    .cache
                    .insert_with_id(pid, payload.clone(), meta.flow, meta.seq);
                let indexed =
                    self.core
                        .cache
                        .index_payload(&self.core.engine, &self.core.sampler, pid);
                self.stats.scan_windows += indexed.windows;
                self.stats.sampled_windows += indexed.sampled;
                self.stats.index_insertions += indexed.insertions;
                self.stats.index_skips += indexed.skipped;
                feedback.decoded_id = Some(id);
            }
            Err(e) => {
                match e {
                    DecodeError::MissingReference { .. } => self.stats.missing_reference += 1,
                    DecodeError::BadRegion { .. } => self.stats.bad_region += 1,
                    DecodeError::ChecksumMismatch => self.stats.checksum_mismatch += 1,
                    DecodeError::Malformed(_) => self.stats.malformed += 1,
                    DecodeError::StaleGeneration { .. } => self.stats.stale_gen += 1,
                }
                // Cache divergence (as opposed to a garbled payload) is
                // repairable: surface the id for a recovery request.
                if matches!(
                    e,
                    DecodeError::MissingReference { .. }
                        | DecodeError::BadRegion { .. }
                        | DecodeError::ChecksumMismatch
                ) {
                    feedback.failed_id = Some(id);
                }
                self.telemetry.event(
                    Event::new(EventKind::DecodeFailure)
                        .flow(meta.flow.stable_hash())
                        .details(e.class(), u64::from(meta.seq.raw())),
                );
                // This packet never made it into our cache either; tell
                // the encoder not to use it.
                feedback.nack_ids.push(id);
            }
        }
        if !feedback.nack_ids.is_empty() {
            self.telemetry.event(
                Event::new(EventKind::Nack)
                    .flow(meta.flow.stable_hash())
                    .details(feedback.nack_ids.len() as u64, 0),
            );
        }
        self.telemetry.span_end("span.decode_ns", span);
        (result, feedback)
    }

    fn reconstruct(&self, parsed: &ShimPayload) -> Result<Bytes, DecodeError> {
        if let Some(raw) = &parsed.raw {
            // Raw payloads are still integrity-checked: the TCP checksum
            // has already passed upstream of us, but a paranoid check is
            // cheap and catches wire-format bugs.
            if wire::payload_checksum(raw) != parsed.header.checksum {
                return Err(DecodeError::ChecksumMismatch);
            }
            return Ok(raw.clone());
        }
        let mut out: Vec<u8> = Vec::with_capacity(parsed.header.orig_len as usize);
        for token in &parsed.tokens {
            match token {
                Token::Literal(bytes) => out.extend_from_slice(bytes),
                Token::Match {
                    fingerprint,
                    offset_new,
                    offset_stored,
                    len,
                } => {
                    if usize::from(*offset_new) != out.len() {
                        return Err(DecodeError::Malformed(WireError::Malformed(
                            "match token out of position",
                        )));
                    }
                    let Some((_, _, stored)) = self.core.cache.lookup(*fingerprint) else {
                        return Err(DecodeError::MissingReference {
                            fingerprint: *fingerprint,
                        });
                    };
                    let start = usize::from(*offset_stored);
                    let end = start + usize::from(*len);
                    if end > stored.payload.len() {
                        return Err(DecodeError::BadRegion {
                            fingerprint: *fingerprint,
                        });
                    }
                    out.extend_from_slice(&stored.payload[start..end]);
                }
            }
        }
        if out.len() != usize::from(parsed.header.orig_len)
            || wire::payload_checksum(&out) != parsed.header.checksum
        {
            return Err(DecodeError::ChecksumMismatch);
        }
        Ok(Bytes::from(out))
    }
}

impl core::fmt::Debug for Decoder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Decoder")
            .field("epoch", &self.epoch)
            .field("cache_packets", &self.core.cache.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
