//! Encoder- and decoder-side counters used by every experiment.

use serde::{Deserialize, Serialize};

/// Counters maintained by [`Encoder`](crate::Encoder).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderStats {
    /// Data packets processed.
    pub packets: u64,
    /// Original payload bytes in.
    pub bytes_in: u64,
    /// Shim payload bytes out.
    pub bytes_out: u64,
    /// Packets that carried at least one match token.
    pub encoded_packets: u64,
    /// Packets sent raw (no beneficial match found).
    pub raw_packets: u64,
    /// Packets sent raw because the policy made them references.
    pub references: u64,
    /// Cache flushes performed (policy-initiated).
    pub flushes: u64,
    /// Match tokens emitted.
    pub matches: u64,
    /// Original bytes covered by match tokens.
    pub matched_bytes: u64,
    /// Sum over encoded packets of the number of *distinct* cached
    /// packets referenced — the paper's "dependencies to distinct IP
    /// packets" metric (File 1 averages 4, File 2 averages 7).
    pub sum_distinct_refs: u64,
    /// Total windows a rolling fingerprint was computed for — the true
    /// per-byte CPU cost of the hot path: one window per payload
    /// position, since the scan also collects what the index needs.
    pub scan_windows: u64,
    /// Fingerprinted windows that passed the sampler.
    pub sampled_windows: u64,
    /// Fingerprint-table insertions performed by the cache update
    /// procedure. Together with `scan_windows` this exposes the
    /// compression-vs-CPU trade-off: CPU cost tracks windows rolled,
    /// savings track matches found.
    pub index_insertions: u64,
    /// Indexing passes skipped because the packet was no longer stored
    /// when the cache update procedure ran (e.g. a payload larger than
    /// the cache budget, evicted by its own insert). Counted instead of
    /// panicking so one oversized packet cannot abort the encoder.
    pub index_skips: u64,
    /// Resyncs honored: the cache was flushed and the wire generation
    /// bumped because a wiped decoder asked for it.
    pub resyncs: u64,
    /// Recovery repairs served: a diverged cache entry was re-emitted
    /// raw and tombstoned at the decoder's request.
    pub repairs: u64,
    /// Recovery requests naming an id the cache no longer holds (the
    /// entry was evicted or already tombstoned); nothing re-sent.
    pub repair_misses: u64,
}

impl EncoderStats {
    /// Compression ratio: shim bytes out per original byte in
    /// (1.0 = no saving; the shim header makes >1.0 possible).
    #[must_use]
    pub fn byte_ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }

    /// Mean distinct-packet dependencies among packets that were encoded.
    #[must_use]
    pub fn avg_dependencies(&self) -> f64 {
        if self.encoded_packets == 0 {
            0.0
        } else {
            self.sum_distinct_refs as f64 / self.encoded_packets as f64
        }
    }

    /// Fraction of original bytes eliminated by match tokens (gross,
    /// before shim/token overhead).
    #[must_use]
    pub fn redundancy_fraction(&self) -> f64 {
        if self.bytes_in == 0 {
            0.0
        } else {
            self.matched_bytes as f64 / self.bytes_in as f64
        }
    }
}

/// Counters maintained by [`Decoder`](crate::Decoder).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoderStats {
    /// Shim payloads processed.
    pub packets: u64,
    /// Raw payloads passed through.
    pub raw: u64,
    /// Encoded payloads successfully reconstructed.
    pub decoded: u64,
    /// Failures: referenced fingerprint absent from the cache.
    pub missing_reference: u64,
    /// Failures: reconstruction checksum mismatch (stale cache entry or
    /// undetected upstream corruption).
    pub checksum_mismatch: u64,
    /// Failures: referenced region out of bounds in the cached packet.
    pub bad_region: u64,
    /// Failures: unparseable shim payload.
    pub malformed: u64,
    /// Cache flushes triggered by an epoch change.
    pub epoch_flushes: u64,
    /// Shim bytes in.
    pub bytes_in: u64,
    /// Reconstructed bytes out.
    pub bytes_out: u64,
    /// Windows the cache-update indexing loop rolled a fingerprint over
    /// (the decoder's only per-byte fingerprinting cost).
    pub scan_windows: u64,
    /// Indexed windows that passed the fingerprint sampler.
    pub sampled_windows: u64,
    /// Fingerprint-table insertions performed while mirroring the
    /// encoder's cache update procedure.
    pub index_insertions: u64,
    /// Indexing passes skipped because the packet was no longer stored
    /// (mirrors `EncoderStats::index_skips`).
    pub index_skips: u64,
    /// Encoded shims dropped because they were stamped with the
    /// pre-resync cache generation (no NACK sent — the whole point).
    pub stale_gen: u64,
    /// Cache wipes injected (simulated decoder restarts).
    pub wipes: u64,
    /// Generation resyncs completed (the encoder's flush was observed
    /// and adopted).
    pub resyncs: u64,
}

impl DecoderStats {
    /// Packets the decoder had to drop — the paper's "undecodable"
    /// events, the second component of the perceived loss rate.
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.missing_reference
            + self.checksum_mismatch
            + self.bad_region
            + self.malformed
            + self.stale_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_ratios() {
        let s = EncoderStats {
            bytes_in: 1000,
            bytes_out: 550,
            matched_bytes: 500,
            encoded_packets: 4,
            sum_distinct_refs: 14,
            ..EncoderStats::default()
        };
        assert!((s.byte_ratio() - 0.55).abs() < 1e-12);
        assert!((s.redundancy_fraction() - 0.5).abs() < 1e-12);
        assert!((s.avg_dependencies() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = EncoderStats::default();
        assert_eq!(s.byte_ratio(), 1.0);
        assert_eq!(s.avg_dependencies(), 0.0);
        assert_eq!(s.redundancy_fraction(), 0.0);
        assert_eq!(DecoderStats::default().undecodable(), 0);
    }

    #[test]
    fn undecodable_sums_all_failure_kinds() {
        let s = DecoderStats {
            missing_reference: 1,
            checksum_mismatch: 2,
            bad_region: 3,
            malformed: 4,
            stale_gen: 5,
            ..DecoderStats::default()
        };
        assert_eq!(s.undecodable(), 15);
    }
}
