//! Byte caching configuration.

use serde::{Deserialize, Serialize};

/// Parameters shared by an encoder/decoder pair.
///
/// Defaults are the paper's settings: a 16-byte fingerprint window,
/// fingerprint sampling with 4 zero bits (1 window in 16 retained), and
/// regions encoded only when strictly longer than the 14-byte encoding
/// field. Both endpoints of a deployment must use identical values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DreConfig {
    /// Fingerprint window size `w` in bytes (paper: 16).
    pub window: usize,
    /// Fingerprint sampling: low bits that must be zero, `k` (paper: 4).
    pub sample_bits: u32,
    /// Encode a repeated region only if longer than this many bytes
    /// (paper: 14, the size of an encoding field).
    pub min_match: usize,
    /// Packet-store byte budget; oldest packets are evicted beyond it.
    pub cache_bytes: usize,
    /// Optional hard cap on the number of cached packets (used by the
    /// Table I "window of k packets" redundancy measurements).
    pub max_packets: Option<usize>,
    /// Seed for the fingerprinting modulus (must match on both ends).
    pub polynomial_seed: u64,
}

impl Default for DreConfig {
    fn default() -> Self {
        DreConfig {
            window: 16,
            sample_bits: 4,
            min_match: 14,
            cache_bytes: 32 << 20,
            max_packets: None,
            polynomial_seed: 0,
        }
    }
}

impl DreConfig {
    /// Validate invariants; called by the encoder/decoder constructors.
    ///
    /// # Panics
    ///
    /// Panics if the window or byte budget is zero. Note that `min_match`
    /// may be smaller than the window (as in the paper: 14 < 16): every
    /// match contains a full window, so the effective minimum encoded
    /// region is `max(window, min_match + 1)` bytes.
    pub fn validate(&self) {
        assert!(self.window > 0, "window must be positive");
        assert!(self.cache_bytes > 0, "cache byte budget must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DreConfig::default();
        assert_eq!(c.window, 16);
        assert_eq!(c.sample_bits, 4);
        assert_eq!(c.min_match, 14);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        DreConfig {
            window: 0,
            ..DreConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "byte budget")]
    fn zero_budget_rejected() {
        DreConfig {
            cache_bytes: 0,
            ..DreConfig::default()
        }
        .validate();
    }
}
