//! The engine core shared by [`Encoder`](crate::Encoder) and
//! [`Decoder`](crate::Decoder).
//!
//! Both endpoints of a byte caching deployment run the *same* machinery:
//! a fingerprinting engine, a fingerprint sampler, and a packet cache
//! kept in lock-step by mirroring the cache update procedure on every
//! delivered packet. [`EngineCore`] owns that shared state so the two
//! sides cannot drift apart structurally; the encoder adds policy and
//! token emission on top, the decoder adds reconstruction.
//!
//! # The scan
//!
//! The paper describes redundancy identification (Fig. 2 part B) and the
//! cache update procedure (part C) as two window passes over a payload.
//! [`EngineCore::scan_batched`] visits every window once and serves
//! both: it finds the matches and leaves the payload's sampled
//! `(offset, fingerprint)` pairs in a reusable scratch that the encoder
//! hands to [`Cache::index_sampled`](crate::Cache::index_sampled), so
//! nothing is fingerprinted twice. It runs in two latency-hiding phases.
//!
//! Phase A is the multi-lane rolling kernel
//! ([`Fingerprinter::scan_sampled_batched`]): the payload is striped
//! into [`bytecache_rabin::SCAN_LANES`] contiguous lanes whose rolling
//! recurrences advance in lock-step, so the CPU overlaps four
//! independent dependency chains instead of serializing on one, and
//! every sampled pair lands in `out.sampled` in offset order. Sampling
//! is a pure function of payload bytes, so this list is the one a
//! window-by-window roll would collect.
//!
//! Between the phases, one tight pass loads the fingerprint-table home
//! line of every candidate ([`Cache::touch_fingerprints`](crate::Cache)):
//! the table has outgrown the CPU caches, each probe is a random access
//! into it, and independent loads issued back to back overlap their
//! misses where a probe loop meets them one by one. None is wasted — a
//! candidate the probe loop skips is still filed by `index_sampled`
//! microseconds later, through the same line.
//!
//! Phase B probes the candidates in offset order and extends each hit
//! into the repeated area around it, comparing words (`u64` + XOR +
//! `trailing_zeros`/`leading_zeros`) instead of bytes. Candidates inside
//! an already matched region are skipped, which is the paper's
//! jump-past-the-match. Each candidate is resolved two iterations early
//! so the slot and stored-payload lines a hit dereferences are in
//! flight as well. The cache is not mutated during a scan, so deferring
//! the probes cannot change any lookup.
//!
//! The procedure as the paper writes it — byte-at-a-time extension, a
//! fresh fingerprint after every jump, a separate indexing pass — is
//! kept in the test-only `reference` module, and every scan an in-crate
//! test runs is checked against it on the same cache state.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use bytes::Bytes;

use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, LaneScratch, Polynomial};

use crate::config::DreConfig;
use crate::policy::{PacketMeta, Policy};
use crate::store::PacketId;
use crate::wire::Token;

/// Reusable scratch filled by one redundancy scan: tokens and
/// bookkeeping for the wire, plus the sampled fingerprints destined for
/// the index. Owned by the encoder and cleared
/// between packets so the hot path never allocates in steady state.
#[derive(Debug, Default)]
pub(crate) struct ScanOutput {
    /// Emitted tokens, in payload order.
    pub(crate) tokens: Vec<Token>,
    /// Source packet id of every match token, in emission order
    /// (duplicates preserved — `len()` is the match count).
    pub(crate) refs: Vec<PacketId>,
    /// Sampled `(window_offset, fingerprint)` pairs in increasing offset
    /// order — exactly what `Cache::index_payload` would have computed.
    pub(crate) sampled: Vec<(u16, u64)>,
    /// Original payload bytes covered by match tokens.
    pub(crate) matched_bytes: usize,
    /// Number of distinct entries in `refs`, counted during the scan.
    pub(crate) distinct_refs: usize,
    /// Windows the scan rolled the fingerprint over.
    pub(crate) scan_windows: u64,
    /// Windows that passed the sampler.
    pub(crate) sampled_windows: u64,
    /// Per-lane scratch for the batched kernel (capacity reused across
    /// packets; the kernel clears it on entry).
    pub(crate) lanes: LaneScratch,
}

impl ScanOutput {
    /// Reset for the next packet, keeping all capacity.
    pub(crate) fn clear(&mut self) {
        self.tokens.clear();
        self.refs.clear();
        self.sampled.clear();
        self.matched_bytes = 0;
        self.distinct_refs = 0;
        self.scan_windows = 0;
        self.sampled_windows = 0;
    }
}

/// Length of the longest common prefix of `a` and `b`, compared a word
/// at a time: XOR eight-byte chunks and locate the first differing byte
/// with `trailing_zeros` (bytes load little-endian, so the lowest byte
/// of the word is the earliest byte of the slice). Falls back to byte
/// comparison only for the sub-word tail.
#[inline]
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let m = a.len().min(b.len());
    let mut i = 0usize;
    while i + 8 <= m {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"));
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < m && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`, compared a word
/// at a time from the back: in a little-endian load the *last* byte of
/// the chunk is the word's highest byte, so `leading_zeros` of the XOR
/// counts matching trailing bytes.
#[inline]
pub(crate) fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let m = a.len().min(b.len());
    let a = &a[a.len() - m..];
    let b = &b[b.len() - m..];
    let mut i = 0usize;
    while i + 8 <= m {
        let end = m - i;
        let x = u64::from_le_bytes(a[end - 8..end].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(b[end - 8..end].try_into().expect("8-byte chunk"));
        if x != 0 {
            return i + (x.leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < m && a[m - 1 - i] == b[m - 1 - i] {
        i += 1;
    }
    i
}

/// The Rabin engine for `(seed, window)`, built once per process and
/// cloned (4 KiB) into every core after that. Deriving the modulus and
/// tables costs ~0.3 ms, and the paper sweep builds 972 cores.
fn shared_engine(seed: u64, window: usize) -> Fingerprinter {
    static ENGINES: Mutex<BTreeMap<(u64, usize), Fingerprinter>> = Mutex::new(BTreeMap::new());
    let mut engines = ENGINES.lock().unwrap_or_else(PoisonError::into_inner);
    engines
        .entry((seed, window))
        .or_insert_with(|| Fingerprinter::new(Polynomial::generate(seed), window))
        .clone()
}

/// Shared DRE state: configuration, fingerprinting engine, sampler, and
/// the packet cache. One per encoder, one per decoder.
pub(crate) struct EngineCore {
    pub(crate) config: DreConfig,
    pub(crate) engine: Fingerprinter,
    pub(crate) sampler: Sampler,
    pub(crate) cache: crate::store::Cache,
}

impl EngineCore {
    /// How many candidates ahead the probe loop *resolves* entries to
    /// prefetch the slot and stored-payload lines a hit dereferences
    /// (see [`Cache::prefetch_candidate`](crate::Cache)). The table
    /// lines were all loaded before the loop, so the resolve costs a
    /// few cycles; two iterations cover the dependent loads.
    const PREFETCH_RESOLVE_AHEAD: usize = 2;

    /// Build the core from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DreConfig::validate`]).
    pub(crate) fn new(config: DreConfig) -> Self {
        config.validate();
        let engine = shared_engine(config.polynomial_seed, config.window);
        let sampler = Sampler::new(config.sample_bits);
        let cache = crate::store::Cache::new(&config);
        EngineCore {
            config,
            engine,
            sampler,
            cache,
        }
    }

    /// Redundancy identification and index collection in one pass (see
    /// the module docs): phase A stripes the payload across independent
    /// rolling lanes and collects every sampled `(offset, fingerprint)`
    /// pair into `out.sampled`; phase B probes those candidates in
    /// offset order, after one pass that loads every candidate's
    /// fingerprint-table line, and extends each hit into a match token.
    ///
    /// Reads the cache through shared borrows only — matched source
    /// payloads are compared in place, never copied.
    pub(crate) fn scan_batched(
        &self,
        policy: &dyn Policy,
        meta: &PacketMeta,
        payload: &Bytes,
        out: &mut ScanOutput,
    ) {
        let w = self.config.window;
        let data: &[u8] = payload;
        let n = data.len();
        if n < w {
            if n != 0 {
                out.tokens.push(Token::Literal(payload.clone()));
            }
            return;
        }
        let sampled_before = out.sampled.len();
        // Phase A: the multi-lane kernel rolls every window and emits
        // the sampled pairs in increasing offset order.
        let ScanOutput { sampled, lanes, .. } = out;
        self.engine
            .scan_sampled_batched(data, &self.sampler, lanes, |pos, fp| {
                sampled.push((pos as u16, fp));
            });
        let end = out.sampled.len();
        // Every candidate's table line, requested together.
        self.cache
            .touch_fingerprints(&out.sampled[sampled_before..end]);
        // Phase B: in-order probe replay. PREFETCH_RESOLVE_AHEAD
        // candidates ahead, the entry is resolved and the slot and
        // stored-payload lines a hit would immediately dereference are
        // requested too.
        for i in sampled_before..(sampled_before + Self::PREFETCH_RESOLVE_AHEAD).min(end) {
            self.cache.prefetch_candidate(out.sampled[i].1);
        }
        let mut emitted = 0usize; // payload bytes already covered by tokens
        let mut resume = 0usize; // positions below this are match interior
        for i in sampled_before..end {
            // Candidates already inside a matched interior are known
            // skips (`resume` only grows), so resolving them would be
            // pure waste — worst exactly when redundancy is high and
            // most candidates land inside extended matches.
            if i + Self::PREFETCH_RESOLVE_AHEAD < end {
                let (p, f) = out.sampled[i + Self::PREFETCH_RESOLVE_AHEAD];
                if p as usize >= resume {
                    self.cache.prefetch_candidate(f);
                }
            }
            let (pos, fp) = out.sampled[i];
            let pos = pos as usize;
            if pos < resume {
                continue;
            }
            if let Some((src_id, src_off, stored, dead)) = self.cache.lookup_entry(fp) {
                let src_payload = &stored.payload;
                let src_off = src_off as usize;
                if !dead
                    && policy.allow_match(meta, &stored.meta, src_id)
                    && src_off + w <= src_payload.len()
                {
                    // One word-wise pass both verifies the window (first
                    // w bytes equal) and extends the repeated area
                    // forward past it.
                    let total = common_prefix(&data[pos..], &src_payload[src_off..]);
                    if total >= w {
                        // Backward extension, bounded below by the
                        // already-emitted prefix.
                        let back = common_suffix(&data[emitted..pos], &src_payload[..src_off]);
                        let ns = pos - back;
                        let ss = src_off - back;
                        let ne = pos + total;
                        let len = ne - ns;
                        if len > self.config.min_match {
                            if ns > emitted {
                                out.tokens.push(Token::Literal(payload.slice(emitted..ns)));
                            }
                            out.tokens.push(Token::Match {
                                fingerprint: fp,
                                offset_new: ns as u16,
                                offset_stored: ss as u16,
                                len: len as u16,
                            });
                            out.matched_bytes += len;
                            // Matches per packet are few (the paper's
                            // Table III averages 4-7), so a linear probe
                            // counts the distinct sources.
                            if !out.refs.contains(&src_id) {
                                out.distinct_refs += 1;
                            }
                            out.refs.push(src_id);
                            emitted = ne;
                            resume = ne;
                        }
                    }
                }
            }
        }
        out.scan_windows += (n - w + 1) as u64;
        out.sampled_windows += (end - sampled_before) as u64;
        if emitted < n {
            out.tokens.push(Token::Literal(payload.slice(emitted..)));
        }
    }
}

impl core::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineCore")
            .field("config", &self.config)
            .field("cache_packets", &self.cache.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference implementations the word-wise versions
    /// are pinned against.
    fn prefix_bytewise(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    fn suffix_bytewise(a: &[u8], b: &[u8]) -> usize {
        a.iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count()
    }

    #[test]
    fn wordwise_extension_equals_bytewise_on_adversarial_inputs() {
        // Matches at buffer start/end, matches shorter than a word,
        // non-aligned offsets, differing lengths, and empty slices.
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (b"abc".to_vec(), b"abc".to_vec()), // < 8 bytes, all equal
            (b"abc".to_vec(), b"abd".to_vec()), // < 8 bytes, late diff
            (b"xbc".to_vec(), b"abc".to_vec()), // < 8 bytes, early diff
            (b"0123456789abcdef".to_vec(), b"0123456789abcdef".to_vec()),
            (b"0123456789abcdef".to_vec(), b"0123456789abcdeX".to_vec()),
            (b"X123456789abcdef".to_vec(), b"0123456789abcdef".to_vec()),
            (b"01234567".to_vec(), b"01234567".to_vec()), // exactly one word
            (b"012345678".to_vec(), b"012345678".to_vec()), // word + 1
            (
                b"aaaaaaaaaaaaaaaaaaaaaaab".to_vec(),
                b"aaaaaaaaaaaaaaaaaaaaaaac".to_vec(),
            ),
            (b"different".to_vec(), b"lengthsss and then some".to_vec()),
        ];
        for (a, b) in &cases {
            assert_eq!(
                common_prefix(a, b),
                prefix_bytewise(a, b),
                "prefix {a:?} vs {b:?}"
            );
            assert_eq!(
                common_suffix(a, b),
                suffix_bytewise(a, b),
                "suffix {a:?} vs {b:?}"
            );
        }
        // Every difference position × every (non-aligned) slice start.
        let base: Vec<u8> = (0..96u8).collect();
        for diff_at in 0..base.len() {
            let mut other = base.clone();
            other[diff_at] ^= 0x80;
            for start in 0..9 {
                let a = &base[start..];
                let b = &other[start..];
                assert_eq!(
                    common_prefix(a, b),
                    prefix_bytewise(a, b),
                    "prefix diff_at={diff_at} start={start}"
                );
                let a = &base[..base.len() - start];
                let b = &other[..other.len() - start];
                assert_eq!(
                    common_suffix(a, b),
                    suffix_bytewise(a, b),
                    "suffix diff_at={diff_at} start={start}"
                );
            }
        }
    }

    #[test]
    fn the_engine_memo_is_keyed_by_window_as_well_as_seed() {
        // The seed is this test's own, so the window-16 engine is the
        // one the memo holds for it when the window-8 encoder is built.
        const SEED: u64 = 0x3E30;
        let config = |window| DreConfig {
            window,
            sample_bits: 2,
            polynomial_seed: SEED,
            ..DreConfig::default()
        };
        let _wide = crate::Encoder::new(config(16), crate::PolicyKind::Naive.build());
        let mut narrow =
            crate::Encoder::new(config(8), crate::PolicyKind::Naive.build()).with_telemetry(true);
        let payload: Bytes = (0..600u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect::<Vec<u8>>()
            .into();
        let meta = PacketMeta {
            flow: crate::policy::test_util::flow(),
            seq: bytecache_packet::SeqNum::new(0),
            payload_len: payload.len(),
            flow_index: 0,
        };
        narrow.encode(&meta, &payload);
        let reference = Fingerprinter::new(Polynomial::generate(SEED), 8);
        let sampler = Sampler::new(2);
        let mut want: Vec<u64> = (reference.windows(&payload))
            .filter(|&(_, fp)| sampler.selects(fp))
            .map(|(_, fp)| fp)
            .collect();
        want.sort_unstable();
        want.dedup();
        // Every reference print is filed, and nothing else is.
        for &fp in &want {
            assert!(narrow.cache().lookup(fp).is_some(), "fp {fp:#x}");
        }
        let filed = narrow.cache().telemetry_snapshot();
        assert_eq!(
            filed.gauge_value("cache.fp_entries"),
            Some(want.len() as u64)
        );
    }

    #[test]
    fn cores_built_on_four_threads_at_once_get_identical_engines() {
        const SEED: u64 = 0x3E31;
        let config = DreConfig {
            polynomial_seed: SEED,
            ..DreConfig::default()
        };
        let data: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
        let start = std::sync::Barrier::new(4);
        let engines: Vec<(Polynomial, usize, Vec<u64>)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let e = EngineCore::new(config.clone()).engine;
                        let prints = e.windows(&data).map(|(_, fp)| fp).collect();
                        (e.polynomial(), e.window_size(), prints)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let reference = Fingerprinter::new(Polynomial::generate(SEED), config.window);
        let want = (
            reference.polynomial(),
            config.window,
            reference.windows(&data).map(|(_, fp)| fp).collect(),
        );
        for engine in engines {
            assert_eq!(engine, want);
        }
    }

    #[test]
    fn extension_respects_unequal_slice_lengths() {
        // The shorter slice bounds the extension; the suffix comparison
        // aligns the *ends* of the slices.
        assert_eq!(common_prefix(b"abcdefgh_tail", b"abcdefgh"), 8);
        assert_eq!(common_suffix(b"head_abcdefgh", b"abcdefgh"), 8);
        assert_eq!(common_suffix(b"zzzzabcdefgh", b"yyyyabcdefgh"), 8);
        assert_eq!(common_prefix(b"", b"anything"), 0);
        assert_eq!(common_suffix(b"", b"anything"), 0);
    }
}
