//! Loss-adaptive encoding (the tunable scheme the paper's conclusion
//! calls for).

use std::collections::HashMap;

use bytecache_packet::{FlowId, SeqNum};

use crate::policy::{is_retransmission, PacketMeta, Policy, PrePacket};
use crate::store::{EntryMeta, FlowState, PacketId};

/// k-distance with the distance driven by the observed loss rate.
///
/// The paper's conclusion argues for "a tuneable byte caching scheme
/// that can dynamically adapt how aggressively it compresses packets
/// based on the packet loss rate in the underlying communication
/// channel". The encoder cannot see channel losses directly, but it
/// *can* see their echo: TCP retransmissions (sequence-number
/// regressions). This policy keeps an exponentially weighted estimate of
/// the retransmission fraction `p` and emits references at the
/// loss-matched spacing `k ≈ clamp(target/p)` — long dependency chains
/// on clean channels, short chains on lossy ones (§VII shows chains
/// longer than `1/p` are counterproductive).
///
/// The estimate covers every flow through the encoder, so `k` follows
/// the loss the gateway's whole traffic mix experiences.
#[derive(Debug)]
pub struct Adaptive {
    /// EWMA of the retransmission fraction.
    p_est: f64,
    /// EWMA smoothing factor.
    alpha: f64,
    /// `k` is chosen so the expected losses per group stay near this.
    losses_per_group: f64,
    min_k: u64,
    max_k: u64,
    highest_seq: HashMap<FlowId, SeqNum, FlowState>,
    last_reference: HashMap<FlowId, u64, FlowState>,
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive {
            p_est: 0.0,
            alpha: 0.05,
            losses_per_group: 0.5,
            min_k: 2,
            max_k: 64,
            highest_seq: HashMap::default(),
            last_reference: HashMap::default(),
        }
    }
}

impl Adaptive {
    /// New adaptive policy with default tuning (k ∈ [2, 64], EWMA 0.05,
    /// about one loss per two groups).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current retransmission-rate estimate.
    #[must_use]
    pub fn estimated_loss(&self) -> f64 {
        self.p_est
    }

    /// The reference distance implied by the current estimate.
    #[must_use]
    pub fn current_k(&self) -> u64 {
        if self.p_est <= f64::EPSILON {
            return self.max_k;
        }
        let k = (self.losses_per_group / self.p_est).round() as i64;
        (k.max(self.min_k as i64) as u64).min(self.max_k)
    }
}

impl Policy for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn before_packet(&mut self, meta: &PacketMeta) -> PrePacket {
        let retrans = is_retransmission(&mut self.highest_seq, meta.flow, meta.seq);
        self.p_est = (1.0 - self.alpha) * self.p_est + self.alpha * f64::from(u8::from(retrans));
        let k = self.current_k();
        let last = self.last_reference.get(&meta.flow).copied();
        let due = match last {
            None => true,
            Some(reference) => meta.flow_index.saturating_sub(reference) >= k,
        };
        if due {
            self.last_reference.insert(meta.flow, meta.flow_index);
            PrePacket {
                flush: false,
                suppress_encoding: true,
            }
        } else {
            PrePacket::default()
        }
    }

    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, _id: PacketId) -> bool {
        if entry.flow != meta.flow || !entry.seq.precedes(meta.seq) {
            return false;
        }
        match self.last_reference.get(&meta.flow) {
            Some(&reference) => entry.flow_index >= reference,
            None => false,
        }
    }
}

/// Graceful degradation: tcp-seq matching that downshifts to
/// pass-through when the estimated loss rate crosses a threshold.
///
/// §VII of the paper shows compression is counterproductive once the
/// loss rate climbs — every encoded packet gambles that its references
/// survived, and on a bad channel they mostly did not. This policy
/// watches the same retransmission echo as [`Adaptive`] but instead of
/// shortening dependency chains it *abandons* them: when the EWMA loss
/// estimate exceeds `enter`, the cache is flushed once and every packet
/// goes out raw (still cached, so matching can resume instantly); when
/// the estimate falls back under `exit`, normal tcp-seq encoding
/// resumes. The hysteresis gap keeps a channel hovering near the
/// threshold from thrashing the cache.
#[derive(Debug)]
pub struct Degrading {
    /// EWMA of the retransmission fraction.
    p_est: f64,
    /// EWMA smoothing factor.
    alpha: f64,
    /// Enter degraded (pass-through) mode *strictly above* this
    /// estimate. An estimate sitting exactly on the threshold stays in
    /// its current mode.
    enter: f64,
    /// Leave degraded mode *strictly below* this estimate (hysteresis).
    /// An estimate sitting exactly on the threshold stays degraded.
    exit: f64,
    degraded: bool,
    /// Set by `before_packet` on a state change; drained by
    /// [`Policy::poll_transition`].
    transition: Option<bool>,
    highest_seq: HashMap<FlowId, SeqNum, FlowState>,
}

impl Default for Degrading {
    fn default() -> Self {
        Degrading {
            p_est: 0.0,
            alpha: 0.05,
            enter: 0.15,
            exit: 0.05,
            degraded: false,
            transition: None,
            highest_seq: HashMap::default(),
        }
    }
}

impl Degrading {
    /// New degrading policy with default thresholds (enter at an
    /// estimated 15% loss, recover below 5%, EWMA 0.05).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// New degrading policy with explicit hysteresis thresholds.
    ///
    /// Both comparisons are *strict*: the policy degrades only when the
    /// estimate is strictly above `enter` and recovers only when it is
    /// strictly below `exit`. An estimate pinned exactly on either
    /// threshold therefore never transitions — even in the degenerate
    /// `enter == exit` case a boundary-sitting flow cannot oscillate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < exit <= enter < 1` (an exit above enter would
    /// invert the hysteresis band).
    #[must_use]
    pub fn with_thresholds(enter: f64, exit: f64) -> Self {
        assert!(
            exit > 0.0 && exit <= enter && enter < 1.0,
            "need 0 < exit <= enter < 1, got enter={enter} exit={exit}"
        );
        Degrading {
            enter,
            exit,
            ..Degrading::default()
        }
    }

    /// Current retransmission-rate estimate.
    #[must_use]
    pub fn estimated_loss(&self) -> f64 {
        self.p_est
    }

    /// Whether the policy is currently in pass-through mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl Policy for Degrading {
    fn name(&self) -> &'static str {
        "degrading"
    }

    fn before_packet(&mut self, meta: &PacketMeta) -> PrePacket {
        let retrans = is_retransmission(&mut self.highest_seq, meta.flow, meta.seq);
        self.p_est = (1.0 - self.alpha) * self.p_est + self.alpha * f64::from(u8::from(retrans));
        if !self.degraded && self.p_est > self.enter {
            self.degraded = true;
            self.transition = Some(true);
            // Flush once on entry: pending dependency chains are exactly
            // the bytes at risk on a channel this bad.
            return PrePacket {
                flush: true,
                suppress_encoding: true,
            };
        }
        if self.degraded && self.p_est < self.exit {
            self.degraded = false;
            self.transition = Some(false);
        }
        if self.degraded {
            PrePacket {
                flush: false,
                suppress_encoding: true,
            }
        } else {
            PrePacket::default()
        }
    }

    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, _id: PacketId) -> bool {
        // tcp-seq rule: only encode against strictly earlier data of the
        // same flow — safe under loss without any flushing.
        entry.flow == meta.flow && entry.seq.precedes(meta.seq)
    }

    fn poll_transition(&mut self) -> Option<bool> {
        self.transition.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, meta};

    #[test]
    fn clean_stream_converges_to_max_k() {
        let mut p = Adaptive::default();
        for i in 0..200u64 {
            p.before_packet(&meta(1000 + (i as u32) * 1460, i));
        }
        assert_eq!(p.current_k(), 64);
        assert!(p.estimated_loss() < 1e-3);
    }

    #[test]
    fn retransmissions_shrink_k() {
        let mut p = Adaptive::default();
        // 20% of packets are retransmissions (every 5th repeats).
        let mut seq = 1000u32;
        for (idx, i) in (0..500u64).enumerate() {
            if i % 5 != 4 {
                seq += 1460; // otherwise: repeat the previous number
            }
            p.before_packet(&meta(seq, idx as u64));
        }
        assert!(p.estimated_loss() > 0.1, "est={}", p.estimated_loss());
        assert!(p.current_k() <= 4, "k={}", p.current_k());
    }

    #[test]
    fn first_packet_is_a_reference() {
        let mut p = Adaptive::default();
        assert!(p.before_packet(&meta(1000, 0)).suppress_encoding);
        assert!(!p.before_packet(&meta(2460, 1)).suppress_encoding);
    }

    #[test]
    fn matches_restricted_to_since_reference() {
        let mut p = Adaptive::default();
        for i in 0..3u64 {
            p.before_packet(&meta(1000 + (i as u32) * 1460, i));
        }
        let m = meta(1000 + 3 * 1460, 3);
        assert!(p.allow_match(&m, &entry(1000, 0), PacketId(0)));
        assert!(p.allow_match(&m, &entry(2460, 2), PacketId(2)));
    }

    #[test]
    fn degrading_enters_and_exits_with_hysteresis() {
        let mut p = Degrading::default();
        assert!(!p.is_degraded());
        assert_eq!(p.poll_transition(), None);
        // Hammer with retransmissions until the estimate crosses `enter`.
        let mut entered_at = None;
        for i in 0..200u64 {
            let pre = p.before_packet(&meta(1000, i));
            if p.is_degraded() && entered_at.is_none() {
                entered_at = Some(i);
                assert!(pre.flush, "entry flushes once");
                assert!(pre.suppress_encoding);
                assert_eq!(p.poll_transition(), Some(true));
                assert_eq!(p.poll_transition(), None, "transition drains");
            }
        }
        assert!(entered_at.is_some(), "est={}", p.estimated_loss());
        // While degraded every packet is suppressed but none flush.
        let pre = p.before_packet(&meta(1000, 201));
        assert!(pre.suppress_encoding && !pre.flush);
        // A clean stream heals the estimate and re-enables encoding.
        let mut seq = 10_000u32;
        let mut exited = false;
        for i in 0..500u64 {
            seq += 1460;
            p.before_packet(&meta(seq, 300 + i));
            if !p.is_degraded() && !exited {
                exited = true;
                assert_eq!(p.poll_transition(), Some(false));
            }
        }
        assert!(exited, "est={}", p.estimated_loss());
        assert!(!p.before_packet(&meta(seq + 1460, 900)).suppress_encoding);
    }

    /// Feed `n` fresh (non-retransmitted) packets with the EWMA frozen
    /// (`alpha = 0`), so `p_est` stays pinned exactly where the test put
    /// it, and count mode transitions.
    fn transitions_with_frozen_estimate(p: &mut Degrading, n: u64) -> usize {
        let mut transitions = 0;
        let mut seq = 1000u32;
        for i in 0..n {
            seq += 1460;
            p.before_packet(&meta(seq, i));
            if p.poll_transition().is_some() {
                transitions += 1;
            }
        }
        transitions
    }

    #[test]
    fn estimate_exactly_on_enter_threshold_does_not_degrade() {
        // p_est == enter: the comparison is strict, so a flow sitting
        // exactly on the boundary must stay in normal mode forever.
        let mut p = Degrading {
            p_est: 0.15,
            alpha: 0.0,
            ..Degrading::default()
        };
        assert_eq!(transitions_with_frozen_estimate(&mut p, 100), 0);
        assert!(!p.is_degraded());
        assert_eq!(p.estimated_loss(), 0.15, "alpha=0 keeps the pin");
    }

    #[test]
    fn estimate_exactly_on_exit_threshold_stays_degraded() {
        // p_est == exit while degraded: strict comparison again — no
        // recovery, no oscillation.
        let mut p = Degrading {
            p_est: 0.05,
            alpha: 0.0,
            degraded: true,
            ..Degrading::default()
        };
        assert_eq!(transitions_with_frozen_estimate(&mut p, 100), 0);
        assert!(p.is_degraded());
    }

    #[test]
    fn one_ulp_past_either_threshold_transitions_once() {
        let mut entering = Degrading {
            p_est: 0.15 + f64::EPSILON,
            alpha: 0.0,
            ..Degrading::default()
        };
        assert_eq!(transitions_with_frozen_estimate(&mut entering, 100), 1);
        assert!(entering.is_degraded());

        let mut exiting = Degrading {
            p_est: 0.05 - f64::EPSILON,
            alpha: 0.0,
            degraded: true,
            ..Degrading::default()
        };
        assert_eq!(transitions_with_frozen_estimate(&mut exiting, 100), 1);
        assert!(!exiting.is_degraded());
    }

    #[test]
    fn equal_thresholds_cannot_oscillate_on_the_boundary() {
        // Degenerate hysteresis band (enter == exit): an estimate pinned
        // exactly on the shared threshold satisfies neither strict
        // comparison, so it never transitions from either starting mode.
        for start_degraded in [false, true] {
            let mut p = Degrading {
                p_est: 0.10,
                alpha: 0.0,
                degraded: start_degraded,
                ..Degrading::with_thresholds(0.10, 0.10)
            };
            assert_eq!(transitions_with_frozen_estimate(&mut p, 200), 0);
            assert_eq!(p.is_degraded(), start_degraded);
        }
    }

    #[test]
    #[should_panic(expected = "need 0 < exit <= enter < 1")]
    fn inverted_hysteresis_band_rejected() {
        let _ = Degrading::with_thresholds(0.05, 0.15);
    }

    #[test]
    fn degrading_matches_use_tcp_seq_rule() {
        let p = Degrading::default();
        let m = meta(5000, 10);
        assert!(p.allow_match(&m, &entry(1000, 0), PacketId(0)));
        assert!(
            !p.allow_match(&m, &entry(5000, 9), PacketId(9)),
            "equal seq"
        );
        assert!(!p.allow_match(&m, &entry(9000, 11), PacketId(11)), "later");
    }

    #[test]
    fn k_respects_bounds() {
        let high = Adaptive {
            p_est: 0.9,
            ..Adaptive::default()
        };
        assert_eq!(high.current_k(), 2);
        let low = Adaptive {
            p_est: 1e-9,
            ..Adaptive::default()
        };
        assert_eq!(low.current_k(), 64);
    }
}
