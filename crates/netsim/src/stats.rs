//! Per-link traffic counters.

use serde::{Deserialize, Serialize};

/// Counters maintained by every link; the experiments' "bytes sent" and
/// loss-rate figures are read from here.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets offered to the link by the upstream node.
    pub packets_offered: u64,
    /// Bytes offered (wire length, headers included).
    pub bytes_offered: u64,
    /// Packets delivered intact to the downstream node.
    pub packets_delivered: u64,
    /// Bytes delivered intact.
    pub bytes_delivered: u64,
    /// Packets dropped by the loss process.
    pub packets_lost: u64,
    /// Packets delivered with corrupted contents (dropped downstream by
    /// checksum).
    pub packets_corrupted: u64,
    /// Packets delivered late (reordered).
    pub packets_reordered: u64,
    /// Packets delivered twice (duplicated by the channel). Only the
    /// on-time original is counted in `packets_delivered`.
    pub packets_duplicated: u64,
}

impl LinkStats {
    /// Fraction of offered packets the loss process dropped.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.packets_offered == 0 {
            0.0
        } else {
            self.packets_lost as f64 / self.packets_offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate_handles_empty() {
        assert_eq!(LinkStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn loss_rate_is_lost_over_offered() {
        let s = LinkStats {
            packets_offered: 200,
            packets_lost: 10,
            ..LinkStats::default()
        };
        assert!((s.loss_rate() - 0.05).abs() < 1e-12);
    }
}
