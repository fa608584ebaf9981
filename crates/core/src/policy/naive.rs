//! The classic, stateless encoding policy (Spring & Wetherall).

use crate::policy::{PacketMeta, Policy};
use crate::store::{EntryMeta, PacketId};

/// The paper's baseline: any cached packet is an eligible match source.
///
/// Correct on a lossless path, but a single packet loss can make a
/// retransmitted TCP segment encode against a succeeding packet or
/// against its own earlier (lost) transmission, creating the circular
/// dependencies of Figure 5 and stalling the connection (Figure 6).
/// Included as the baseline every experiment compares against — do not
/// deploy it on a lossy path.
#[derive(Debug, Default, Clone)]
pub struct Naive;

impl Naive {
    /// New naive policy.
    #[must_use]
    pub fn new() -> Self {
        Naive
    }
}

impl Policy for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn allow_match(&self, _meta: &PacketMeta, _entry: &EntryMeta, _id: PacketId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, meta};
    use crate::policy::PrePacket;

    #[test]
    fn allows_everything_including_self_dependencies() {
        let mut p = Naive::new();
        // A retransmission (seq going backwards) triggers no flush...
        assert_eq!(p.before_packet(&meta(100, 5)), PrePacket::default());
        assert_eq!(p.before_packet(&meta(50, 6)), PrePacket::default());
        // ...and may be encoded against a *succeeding* packet — the bug.
        assert!(p.allow_match(&meta(50, 6), &entry(100, 5), PacketId(5)));
        assert!(p.allow_match(&meta(50, 6), &entry(50, 4), PacketId(4)));
    }
}
