//! Fingerprint sampling: the "last *k* bits zero" selection rule.
//!
//! Computing and indexing *every* window fingerprint would cost one cache
//! entry per byte. Spring & Wetherall instead retain only *representative*
//! fingerprints — those whose low `k` bits are zero — which deterministically
//! subsamples a fraction `2^-k` of positions while still selecting the same
//! positions in both copies of any repeated region (the property that makes
//! the scheme work). The paper sets `k = 4` (1/16 of windows).

/// Deterministic fingerprint sampler retaining prints whose low
/// `zero_bits` bits are all zero.
///
/// # Example
///
/// ```
/// use bytecache_rabin::sampler::Sampler;
///
/// let s = Sampler::new(4);
/// assert!(s.selects(0x1230));
/// assert!(!s.selects(0x1231));
/// assert_eq!(s.sampling_fraction(), 1.0 / 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    zero_bits: u32,
    mask: u64,
}

impl Sampler {
    /// Sampler selecting fingerprints whose low `zero_bits` bits are zero.
    ///
    /// `zero_bits = 0` selects every fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if `zero_bits > 32` — such a sparse sampler would select
    /// essentially nothing and is certainly a configuration error.
    #[must_use]
    pub fn new(zero_bits: u32) -> Self {
        assert!(zero_bits <= 32, "sampler zero_bits too large: {zero_bits}");
        Sampler {
            zero_bits,
            mask: (1u64 << zero_bits) - 1,
        }
    }

    /// Whether this fingerprint is retained.
    #[inline]
    #[must_use]
    pub fn selects(&self, fingerprint: u64) -> bool {
        fingerprint & self.mask == 0
    }

    /// The number of low bits required to be zero.
    #[must_use]
    pub fn zero_bits(&self) -> u32 {
        self.zero_bits
    }

    /// The bits a selected fingerprint has zero.
    #[inline]
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    /// Expected fraction of fingerprints selected (`2^-zero_bits`).
    #[must_use]
    pub fn sampling_fraction(&self) -> f64 {
        1.0 / (1u64 << self.zero_bits) as f64
    }
}

impl Default for Sampler {
    /// The paper's setting, `k = 4` (one window in sixteen).
    fn default() -> Self {
        Sampler::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fingerprinter, Polynomial};

    #[test]
    fn zero_bits_zero_selects_everything() {
        let s = Sampler::new(0);
        for fp in [0u64, 1, 2, u64::MAX, 0xdeadbeef] {
            assert!(s.selects(fp));
        }
    }

    #[test]
    fn selection_is_exactly_low_bits() {
        let s = Sampler::new(4);
        assert!(s.selects(0));
        assert!(s.selects(16));
        assert!(s.selects(0xABCD_EF00_0000_0000 + 0x10));
        for low in 1..16u64 {
            assert!(!s.selects(low));
            assert!(!s.selects(0x100 + low));
        }
    }

    #[test]
    fn default_matches_paper_k4() {
        let s = Sampler::default();
        assert_eq!(s.zero_bits(), 4);
        assert!((s.sampling_fraction() - 0.0625).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn absurd_zero_bits_panics() {
        let _ = Sampler::new(33);
    }

    #[test]
    fn empirical_selection_rate_on_real_fingerprints() {
        // On pseudo-random data the selection rate should be close to 2^-k.
        let engine = Fingerprinter::new(Polynomial::default(), 16);
        let data: Vec<u8> = (0..200_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
            .collect();
        let s = Sampler::new(4);
        let total = data.len() - 15;
        let selected = engine
            .windows(&data)
            .filter(|&(_, fp)| s.selects(fp))
            .count();
        let rate = selected as f64 / total as f64;
        assert!(
            (rate - 0.0625).abs() < 0.01,
            "selection rate {rate} too far from 1/16"
        );
    }

    #[test]
    fn both_copies_of_repeated_region_select_same_positions() {
        // The keystone property: sampling is content-determined, so a
        // repeated region selects the same relative offsets in both copies.
        let engine = Fingerprinter::new(Polynomial::default(), 8);
        let phrase: Vec<u8> = (0..400u32).map(|i| (i * 31 % 253) as u8).collect();
        let mut a = vec![7u8; 13];
        a.extend_from_slice(&phrase);
        let mut b = vec![9u8; 101];
        b.extend_from_slice(&phrase);
        let s = Sampler::new(3);
        let sel_a: Vec<usize> = engine
            .windows(&a)
            .filter(|&(off, fp)| off >= 13 && s.selects(fp))
            .map(|(off, _)| off - 13)
            .collect();
        let sel_b: Vec<usize> = engine
            .windows(&b)
            .filter(|&(off, fp)| off >= 101 && s.selects(fp))
            .map(|(off, _)| off - 101)
            .collect();
        // Ignore windows straddling the junk/phrase boundary.
        let interior = |v: &[usize]| {
            v.iter()
                .copied()
                .filter(|&o| o + 8 <= phrase.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(interior(&sel_a), interior(&sel_b));
        assert!(!interior(&sel_a).is_empty());
    }
}
