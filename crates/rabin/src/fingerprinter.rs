//! Table-driven rolling Rabin fingerprint engine.

use crate::gf2;
use crate::sampler::Sampler;
use crate::Polynomial;
use crate::FINGERPRINT_BITS;

/// Number of independent rolling chains the batched scan stripes a
/// payload across (see [`Fingerprinter::scan_sampled_batched`]).
pub const SCAN_LANES: usize = 4;

/// Zero bits below a left-aligned residue. The engine keeps a running
/// fingerprint in the top [`FINGERPRINT_BITS`] bits of a `u64`, so the
/// 8-bit shift of an append drops the outgoing top byte by itself and
/// `f >> 56`, provably below 256, indexes the tables.
const ALIGN: u32 = u64::BITS - FINGERPRINT_BITS;

/// Reusable per-lane buffers for [`Fingerprinter::scan_sampled_batched`].
///
/// Each lane collects the sampled `(offset, fingerprint)` pairs of its
/// stripe; the scan drains the lanes in stripe order so callers observe
/// one globally offset-sorted stream. Keeping the buffers in a caller-
/// owned scratch lets a steady-state encoder batch-scan without
/// allocating.
#[derive(Debug, Default)]
pub struct LaneScratch {
    lanes: [Vec<(u32, u64)>; SCAN_LANES],
}

/// Table-driven Rabin fingerprint engine for a fixed modulus and window
/// size.
///
/// Construction precomputes two 256-entry tables: one folding a new byte
/// into a fingerprint in O(1), and one cancelling the contribution of the
/// byte leaving a `window`-byte window. After that, fingerprinting a
/// packet of `n` bytes yields all `n - window + 1` window fingerprints in
/// O(n).
///
/// The engine is cheap to clone (two 2-KiB tables) and `Send + Sync`, so
/// an encoder and decoder can share one by reference or own copies.
///
/// # Example
///
/// ```
/// use bytecache_rabin::{Fingerprinter, Polynomial};
///
/// let engine = Fingerprinter::new(Polynomial::default(), 4);
/// let prints: Vec<_> = engine.windows(b"abcdef").collect();
/// assert_eq!(prints.len(), 3); // "abcd", "bcde", "cdef"
/// assert_eq!(prints[0].0, 0);
/// assert_eq!(prints[2].0, 2);
/// ```
#[derive(Clone)]
pub struct Fingerprinter {
    poly: Polynomial,
    window: usize,
    /// `append[hi]` = `(hi · x^53) mod P`, left-aligned — folds the bits
    /// shifted out by an 8-bit left shift back into the residue.
    append: [u64; 256],
    /// `remove[b]` = `(b · x^(8·window)) mod P`, left-aligned — the
    /// contribution of a byte that is `window` positions old, ready to
    /// be XOR-cancelled.
    remove: [u64; 256],
}

impl Fingerprinter {
    /// Create an engine for the given modulus and window size (bytes).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(poly: Polynomial, window: usize) -> Self {
        assert!(window > 0, "window size must be at least 1 byte");
        let m = poly.bits();
        let mut append = [0u64; 256];
        let mut remove = [0u64; 256];
        // x^(8*window) mod P, the weight of the oldest byte after a shift.
        let x8w = gf2::x_pow_mod(8 * window as u32, m);
        for b in 0..256u32 {
            append[b as usize] = (gf2::reduce((b as u128) << FINGERPRINT_BITS, m) as u64) << ALIGN;
            remove[b as usize] = (gf2::mul_mod(b as u128, x8w, m) as u64) << ALIGN;
        }
        Fingerprinter {
            poly,
            window,
            append,
            remove,
        }
    }

    /// [`append`](Self::append) on a left-aligned residue.
    #[inline]
    fn push(&self, f: u64, byte: u8) -> u64 {
        (f << 8 | u64::from(byte) << ALIGN) ^ self.append[(f >> 56) as usize]
    }

    /// [`roll`](Self::roll) on a left-aligned residue.
    #[inline]
    fn slide(&self, f: u64, outgoing: u8, incoming: u8) -> u64 {
        self.push(f, incoming) ^ self.remove[usize::from(outgoing)]
    }

    /// The left-aligned fingerprint of all of `data`.
    #[inline]
    fn fold(&self, data: &[u8]) -> u64 {
        data.iter().fold(0, |f, &b| self.push(f, b))
    }

    /// The modulus this engine reduces by.
    #[must_use]
    pub fn polynomial(&self) -> Polynomial {
        self.poly
    }

    /// The window size in bytes.
    #[must_use]
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// Fold one byte into a running fingerprint.
    #[inline]
    #[must_use]
    pub fn append(&self, fp: u64, byte: u8) -> u64 {
        self.push(fp << ALIGN, byte) >> ALIGN
    }

    /// Slide the window: fold in `incoming` and cancel `outgoing`, the
    /// byte that was `window` positions back.
    #[inline]
    #[must_use]
    pub fn roll(&self, fp: u64, outgoing: u8, incoming: u8) -> u64 {
        self.slide(fp << ALIGN, outgoing, incoming) >> ALIGN
    }

    /// Fingerprint an entire byte slice from scratch (non-rolling).
    ///
    /// For slices of exactly [`window_size`](Self::window_size) bytes this
    /// equals the value the rolling path produces for that window.
    #[inline]
    #[must_use]
    pub fn fingerprint(&self, data: &[u8]) -> u64 {
        self.fold(data) >> ALIGN
    }

    /// Prime a rolling scan: the fingerprint of the *first* window of
    /// `data`, ready to be advanced with [`roll`](Self::roll).
    ///
    /// Returns `None` if `data` is shorter than the window.
    #[inline]
    #[must_use]
    pub fn prime(&self, data: &[u8]) -> Option<u64> {
        if data.len() < self.window {
            return None;
        }
        Some(self.fingerprint(&data[..self.window]))
    }

    /// Iterate over `(start_offset, fingerprint)` for every window of
    /// [`window_size`](Self::window_size) bytes in `data`.
    ///
    /// Yields nothing if `data` is shorter than the window.
    #[must_use]
    pub fn windows<'a>(&'a self, data: &'a [u8]) -> Windows<'a> {
        Windows {
            engine: self,
            data,
            next_start: 0,
            f: data.get(..self.window).map_or(0, |first| self.fold(first)),
        }
    }

    /// Fingerprint a byte slice by direct GF(2) polynomial evaluation —
    /// the bit-by-bit [`gf2::reduce`] oracle, sharing **no** code or
    /// tables with the rolling path.
    ///
    /// Mathematically identical to [`fingerprint`](Self::fingerprint)
    /// (both compute the residue of the slice-as-polynomial modulo the
    /// engine's modulus), but computed the slow, obviously-correct way.
    /// The property tests pin the table-driven append, the rolling
    /// recurrence, and the batched multi-lane kernel against this.
    #[must_use]
    pub fn fingerprint_direct(&self, data: &[u8]) -> u64 {
        let m = self.poly.bits();
        let mut acc: u128 = 0;
        for &b in data {
            acc = gf2::reduce((acc << 8) | u128::from(b), m);
        }
        acc as u64
    }

    /// Batched sampled-window scan: visit every window fingerprint of
    /// `data` and hand each *sampled* one to `emit` as an
    /// `(offset, fingerprint)` pair, in strictly increasing offset order
    /// — exactly the pairs `windows(data).filter(sampler)` yields, but
    /// computed on [`SCAN_LANES`] independent rolling chains.
    ///
    /// The scalar rolling recurrence is a serial dependency chain: each
    /// fingerprint needs the previous one, so the CPU waits out the
    /// table-load latency once per byte. This kernel stripes the payload
    /// into [`SCAN_LANES`] contiguous stripes, primes one rolling chain
    /// per stripe, and advances all chains in lock-step — four
    /// independent window positions per iteration, whose loads and folds
    /// overlap in the out-of-order core. Each lane runs the *same*
    /// append/remove table fold as [`roll`](Self::roll), so every
    /// emitted fingerprint is bit-identical to the scalar path (and to
    /// [`fingerprint_direct`](Self::fingerprint_direct), which the
    /// property tests check).
    ///
    /// Payloads too short to pay for priming four chains fall back to
    /// the scalar loop; the emitted stream is identical either way.
    ///
    /// Every chain runs on left-aligned residues, so the table index is
    /// `f >> 56` and the sampler's mask is shifted up to match; each
    /// lane's outgoing and incoming bytes are cut to the lock-step
    /// length as slices before the loop. Together these leave the loop
    /// body without a bounds check.
    pub fn scan_sampled_batched(
        &self,
        data: &[u8],
        sampler: &Sampler,
        scratch: &mut LaneScratch,
        mut emit: impl FnMut(u32, u64),
    ) {
        let w = self.window;
        let n = data.len();
        if n < w {
            return;
        }
        let total = n - w + 1;
        let mask = sampler.mask() << ALIGN;
        // Short payloads: priming SCAN_LANES chains costs SCAN_LANES
        // window fingerprints; below this the scalar chain wins.
        if total < 8 * w {
            let mut f = self.fold(&data[..w]);
            for (pos, (&outgoing, &incoming)) in data.iter().zip(&data[w..]).enumerate() {
                if f & mask == 0 {
                    emit(pos as u32, f >> ALIGN);
                }
                f = self.slide(f, outgoing, incoming);
            }
            if f & mask == 0 {
                emit((total - 1) as u32, f >> ALIGN);
            }
            return;
        }
        // Stripe boundaries: SCAN_LANES contiguous ranges of window
        // positions whose lengths differ by at most one.
        let starts = [0, total / 4, total / 2, total * 3 / 4, total];
        let mut fp = [0u64; SCAN_LANES];
        for lane in &mut scratch.lanes {
            lane.clear();
        }
        // Interleaved priming: each lane's first-window fold is its own
        // serial chain, so folding all four in lock-step overlaps their
        // table-load latencies the same way the main loop overlaps the
        // rolls — the four primes finish in roughly the latency of one.
        let heads: [&[u8]; SCAN_LANES] = std::array::from_fn(|j| &data[starts[j]..][..w]);
        for i in 0..w {
            for (f, head) in fp.iter_mut().zip(heads) {
                *f = self.push(*f, head[i]);
            }
        }
        // Lock-step main loop: all four chains test-and-roll each of
        // `steps` iterations. Stripe 0 (`total / 4` positions) is the
        // shortest, so one step fewer keeps every roll inside its stripe.
        let steps = total / SCAN_LANES - 1;
        let outgoing: [&[u8]; SCAN_LANES] = std::array::from_fn(|j| &data[starts[j]..][..steps]);
        let incoming: [&[u8]; SCAN_LANES] =
            std::array::from_fn(|j| &data[starts[j] + w..][..steps]);
        for i in 0..steps {
            for j in 0..SCAN_LANES {
                let f = fp[j];
                if f & mask == 0 {
                    scratch.lanes[j].push(((starts[j] + i) as u32, f >> ALIGN));
                }
                fp[j] = self.slide(f, outgoing[j][i], incoming[j][i]);
            }
        }
        // Per-lane tail: stripe lengths differ by at most one, so this
        // runs one or two positions per lane.
        for j in 0..SCAN_LANES {
            for pos in starts[j] + steps..starts[j + 1] {
                if fp[j] & mask == 0 {
                    scratch.lanes[j].push((pos as u32, fp[j] >> ALIGN));
                }
                if pos + 1 < starts[j + 1] {
                    fp[j] = self.slide(fp[j], data[pos], data[pos + w]);
                }
            }
        }
        // Drain stripes in order: lane j's offsets all precede lane
        // j+1's, so concatenation is globally sorted.
        for lane in &scratch.lanes {
            for &(pos, f) in lane {
                emit(pos, f);
            }
        }
    }

    /// Create a stateful rolling hasher fed one byte at a time.
    #[must_use]
    pub fn rolling(&self) -> RollingHash<'_> {
        RollingHash {
            engine: self,
            ring: vec![0; self.window],
            filled: 0,
            head: 0,
            fp: 0,
        }
    }
}

impl core::fmt::Debug for Fingerprinter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Fingerprinter")
            .field("poly", &self.poly)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

/// Iterator over the window fingerprints of a byte slice.
///
/// Produced by [`Fingerprinter::windows`]; yields
/// `(window_start_offset, fingerprint)` pairs.
#[derive(Debug)]
pub struct Windows<'a> {
    engine: &'a Fingerprinter,
    data: &'a [u8],
    next_start: usize,
    /// The next window's fingerprint, left-aligned.
    f: u64,
}

impl Iterator for Windows<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let w = self.engine.window;
        if self.next_start + w > self.data.len() {
            return None;
        }
        let item = (self.next_start, self.f >> ALIGN);
        // Pre-roll for the next call if there is a next window.
        if self.next_start + w < self.data.len() {
            self.f = self.engine.slide(
                self.f,
                self.data[self.next_start],
                self.data[self.next_start + w],
            );
        }
        self.next_start += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let w = self.engine.window;
        let remaining = (self.data.len() + 1).saturating_sub(self.next_start + w);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Windows<'_> {}

/// Stateful rolling hasher fed one byte at a time.
///
/// Produced by [`Fingerprinter::rolling`]. Useful when data arrives
/// incrementally rather than as one slice.
///
/// # Example
///
/// ```
/// use bytecache_rabin::{Fingerprinter, Polynomial};
///
/// let engine = Fingerprinter::new(Polynomial::default(), 4);
/// let mut roll = engine.rolling();
/// let data = b"abcdef";
/// let mut prints = Vec::new();
/// for &b in data {
///     if let Some(fp) = roll.update(b) {
///         prints.push(fp);
///     }
/// }
/// let direct: Vec<_> = engine.windows(data).map(|(_, fp)| fp).collect();
/// assert_eq!(prints, direct);
/// ```
#[derive(Debug)]
pub struct RollingHash<'a> {
    engine: &'a Fingerprinter,
    ring: Vec<u8>,
    filled: usize,
    head: usize,
    fp: u64,
}

impl RollingHash<'_> {
    /// Feed one byte; returns the fingerprint of the latest full window,
    /// or `None` until `window_size` bytes have been fed.
    pub fn update(&mut self, byte: u8) -> Option<u64> {
        let w = self.engine.window;
        if self.filled < w {
            self.fp = self.engine.append(self.fp, byte);
            self.ring[(self.head + self.filled) % w] = byte;
            self.filled += 1;
            if self.filled == w {
                return Some(self.fp);
            }
            return None;
        }
        let outgoing = self.ring[self.head];
        self.fp = self.engine.roll(self.fp, outgoing, byte);
        self.ring[self.head] = byte;
        self.head = (self.head + 1) % w;
        Some(self.fp)
    }

    /// Number of bytes fed so far, saturating at the window size.
    #[must_use]
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Reset to the empty state, keeping the engine.
    pub fn reset(&mut self) {
        self.filled = 0;
        self.head = 0;
        self.fp = 0;
        self.ring.iter_mut().for_each(|b| *b = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(window: usize) -> Fingerprinter {
        Fingerprinter::new(Polynomial::default(), window)
    }

    #[test]
    fn fingerprints_fit_in_53_bits() {
        let e = engine(16);
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        for (_, fp) in e.windows(&data) {
            assert!(fp < (1 << FINGERPRINT_BITS));
        }
    }

    #[test]
    fn rolling_matches_direct() {
        let e = engine(16);
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for (start, fp) in e.windows(&data) {
            assert_eq!(fp, e.fingerprint(&data[start..start + 16]), "at {start}");
        }
    }

    #[test]
    fn windows_count_and_offsets() {
        let e = engine(4);
        let data = b"0123456789";
        let v: Vec<_> = e.windows(data).collect();
        assert_eq!(v.len(), 7);
        assert_eq!(v.first().unwrap().0, 0);
        assert_eq!(v.last().unwrap().0, 6);
        let it = e.windows(data);
        assert_eq!(it.len(), 7);
    }

    #[test]
    fn short_input_yields_nothing() {
        let e = engine(8);
        assert_eq!(e.windows(b"short").count(), 0);
        assert_eq!(e.windows(b"").count(), 0);
        // Exactly one window at equality.
        assert_eq!(e.windows(b"12345678").count(), 1);
    }

    #[test]
    fn identical_content_has_identical_fingerprint() {
        let e = engine(16);
        let a = b"a repeated phrase appears here";
        let b = b"prefix junk a repeated phrase appears here suffix";
        let fa = e.fingerprint(&a[..16]);
        let all: Vec<u64> = e.windows(b).map(|(_, fp)| fp).collect();
        assert!(all.contains(&fa), "shifted copy must fingerprint equally");
    }

    #[test]
    fn different_moduli_give_different_fingerprints() {
        let e0 = Fingerprinter::new(Polynomial::generate(1), 16);
        let e1 = Fingerprinter::new(Polynomial::generate(2), 16);
        let data = b"some sixteen byt";
        assert_ne!(e0.fingerprint(data), e1.fingerprint(data));
    }

    #[test]
    fn rolling_hash_incremental_matches_windows() {
        let e = engine(16);
        let data: Vec<u8> = (0..500u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let mut roll = e.rolling();
        let mut got = Vec::new();
        for &b in &data {
            if let Some(fp) = roll.update(b) {
                got.push(fp);
            }
        }
        let want: Vec<u64> = e.windows(&data).map(|(_, fp)| fp).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rolling_hash_reset_restarts_cleanly() {
        let e = engine(4);
        let mut roll = e.rolling();
        for &b in b"abcdefg" {
            let _ = roll.update(b);
        }
        roll.reset();
        assert_eq!(roll.filled(), 0);
        let mut got = Vec::new();
        for &b in b"wxyz" {
            if let Some(fp) = roll.update(b) {
                got.push(fp);
            }
        }
        assert_eq!(got, vec![e.fingerprint(b"wxyz")]);
    }

    #[test]
    fn prime_matches_first_window_and_respects_length() {
        let e = engine(8);
        let data: Vec<u8> = (0..64u32).map(|i| (i * 13 % 251) as u8).collect();
        assert_eq!(e.prime(&data), Some(e.fingerprint(&data[..8])));
        assert_eq!(e.prime(&data[..8]), Some(e.fingerprint(&data[..8])));
        assert_eq!(e.prime(&data[..7]), None);
        assert_eq!(e.prime(b""), None);
        // Priming then rolling reproduces the windows iterator exactly.
        let mut fp = e.prime(&data).unwrap();
        let mut rolled = vec![fp];
        for pos in 0..data.len() - 8 {
            fp = e.roll(fp, data[pos], data[pos + 8]);
            rolled.push(fp);
        }
        let direct: Vec<u64> = e.windows(&data).map(|(_, f)| f).collect();
        assert_eq!(rolled, direct);
    }

    #[test]
    fn stability_snapshot() {
        // Guards against accidental changes to the default modulus or the
        // reduction logic: both ends of a deployment must agree.
        let e = engine(16);
        let fp = e.fingerprint(b"0123456789abcdef");
        let again = engine(16).fingerprint(b"0123456789abcdef");
        assert_eq!(fp, again);
        assert!(fp != 0);
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_panics() {
        let _ = engine(0);
    }

    #[test]
    fn direct_oracle_matches_table_driven_fingerprint() {
        for window in [1usize, 2, 7, 16, 53] {
            let e = engine(window);
            let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
            for (start, fp) in e.windows(&data) {
                assert_eq!(
                    fp,
                    e.fingerprint_direct(&data[start..start + window]),
                    "window {window} at {start}"
                );
            }
        }
    }

    fn batched_pairs(e: &Fingerprinter, data: &[u8], sampler: &Sampler) -> Vec<(u32, u64)> {
        let mut scratch = LaneScratch::default();
        let mut got = Vec::new();
        e.scan_sampled_batched(data, sampler, &mut scratch, |pos, fp| got.push((pos, fp)));
        got
    }

    #[test]
    fn batched_scan_equals_filtered_windows() {
        // Every stripe geometry: each length from empty, through the
        // scalar fallback's `8 × window` boundary, to far past it, so the
        // four stripes are left with every remainder — at the paper's
        // window and at both ends of the window range — and one payload
        // of the largest length a packet can carry. Samplers select
        // everything, the paper's one in sixteen, and almost nothing.
        // Lengths fall, so one scratch also serves shrinking payloads.
        let mut state = 0x5EED_u64;
        let data: Vec<u8> = (0..u16::MAX)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let samplers = [0, 4, 32].map(Sampler::new);
        let mut scratch = LaneScratch::default();
        let cases = [(16, 1600), (1, 300), (2, 300), (7, 300), (53, 300)];
        for (window, max_len) in cases {
            let e = engine(window);
            let all: Vec<(u32, u64)> = (e.windows(&data[..max_len]))
                .map(|(off, fp)| (off as u32, fp))
                .collect();
            for len in (0..=max_len).rev() {
                let windows = &all[..(len + 1).saturating_sub(window)];
                for s in &samplers {
                    let mut got = Vec::new();
                    e.scan_sampled_batched(&data[..len], s, &mut scratch, |pos, fp| {
                        got.push((pos, fp));
                    });
                    let want: Vec<(u32, u64)> = windows
                        .iter()
                        .copied()
                        .filter(|&(_, fp)| s.selects(fp))
                        .collect();
                    assert_eq!(got, want, "window {window} len {len} {s:?}");
                }
            }
        }
        let e = engine(16);
        for s in &samplers {
            let want: Vec<(u32, u64)> = (e.windows(&data))
                .filter(|&(_, fp)| s.selects(fp))
                .map(|(off, fp)| (off as u32, fp))
                .collect();
            assert_eq!(batched_pairs(&e, &data, s), want, "65 535 B {s:?}");
        }
    }

    #[test]
    fn batched_scan_scratch_is_reusable() {
        let e = engine(8);
        let s = Sampler::new(1);
        let mut scratch = LaneScratch::default();
        let a: Vec<u8> = (0..900u32).map(|i| (i * 7 % 251) as u8).collect();
        let b: Vec<u8> = (0..240u32).map(|i| (i * 13 % 251) as u8).collect();
        for data in [&a, &b, &a] {
            let mut got = Vec::new();
            e.scan_sampled_batched(data, &s, &mut scratch, |pos, fp| got.push((pos, fp)));
            let want: Vec<(u32, u64)> = e
                .windows(data)
                .filter(|&(_, fp)| s.selects(fp))
                .map(|(off, fp)| (off as u32, fp))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn single_byte_window_fingerprints_are_injective_on_bytes() {
        let e = engine(1);
        let mut seen = std::collections::HashSet::new();
        for b in 0..=255u8 {
            assert!(seen.insert(e.fingerprint(&[b])), "collision at byte {b}");
        }
    }
}
