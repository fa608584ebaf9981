//! Flow identification for middleboxes.

use core::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// The directional 4-tuple identifying a TCP flow.
///
/// A byte caching gateway keeps per-flow metadata (e.g. the highest TCP
/// sequence number seen, for retransmission detection) keyed by this
/// tuple. The tuple is directional: a flow and its reverse are distinct,
/// because only the data direction is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// Source address.
    pub src: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowId {
    /// The same flow viewed from the opposite direction.
    #[must_use]
    pub fn reversed(self) -> FlowId {
        FlowId {
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
        }
    }

    /// A stable 64-bit FNV-1a hash of the 4-tuple, independent of the
    /// process and of `std`'s randomized hasher: the flow tag in
    /// telemetry events and labelled series.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&self.src.octets());
        eat(&self.src_port.to_be_bytes());
        eat(&self.dst.octets());
        eat(&self.dst_port.to_be_bytes());
        h
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_both_endpoints() {
        let f = FlowId {
            src: Ipv4Addr::new(1, 2, 3, 4),
            src_port: 80,
            dst: Ipv4Addr::new(5, 6, 7, 8),
            dst_port: 9000,
        };
        assert_eq!(f.to_string(), "1.2.3.4:80 -> 5.6.7.8:9000");
    }

    #[test]
    fn flow_and_reverse_hash_differently() {
        use std::collections::HashSet;
        let f = FlowId {
            src: Ipv4Addr::new(1, 2, 3, 4),
            src_port: 80,
            dst: Ipv4Addr::new(5, 6, 7, 8),
            dst_port: 9000,
        };
        let mut set = HashSet::new();
        set.insert(f);
        set.insert(f.reversed());
        assert_eq!(set.len(), 2);
    }
}
