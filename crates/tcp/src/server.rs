//! The server endpoint: listens, accepts one connection, streams an
//! object with TCP Reno congestion control.

use std::net::Ipv4Addr;

use bytes::Bytes;

use bytecache_netsim::time::SimTime;
use bytecache_netsim::{Context, Node};
use bytecache_packet::{FlowId, Packet, SeqNum, TcpFlags};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::config::TcpConfig;
use crate::rtt::RttEstimator;
use crate::stats::ServerReport;

/// Server ISN; fixed for reproducibility.
const SERVER_ISS: u32 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Listen,
    SynReceived,
    Established,
    Closed,
    Aborted,
}

/// A TCP server that serves one byte object to the first client that
/// connects — the simulator's stand-in for the paper's Apache server.
///
/// The sender implements TCP Reno: slow start, congestion avoidance,
/// fast retransmit/recovery (with NewReno partial-ACK retransmission),
/// RFC 6298 timeouts with exponential backoff, and connection abort
/// after [`TcpConfig::max_retries`] consecutive timeouts.
///
/// Inspect the outcome after a run with [`report`](TcpServerNode::report).
pub struct TcpServerNode {
    addr: Ipv4Addr,
    port: u16,
    config: TcpConfig,
    object: Bytes,

    state: State,
    peer: Option<(Ipv4Addr, u16)>,
    iss: SeqNum,
    rcv_nxt: SeqNum,
    got_request: bool,

    /// Stream offsets: `0..object.len()` are data, offset `len` is FIN.
    snd_una: u64,
    snd_nxt: u64,

    cwnd: usize,
    ssthresh: usize,
    dup_acks: u32,
    in_recovery: bool,
    recovery_point: u64,
    peer_window: usize,
    /// SACK scoreboard: merged `[start, end)` ranges of stream offsets
    /// the receiver has buffered above `snd_una`.
    sacked: std::collections::BTreeMap<u64, u64>,
    /// Holes below this offset were already retransmitted in the current
    /// recovery episode.
    rescue_high: u64,

    rtt: RttEstimator,
    timer_gen: u64,
    armed_gen: Option<u64>,
    retries: u32,
    /// Outstanding RTT probe: (stream offset that must be acked, send time).
    rtt_probe: Option<(u64, SimTime)>,

    ip_id: u16,
    report: ServerReport,
    telemetry: Recorder,
}

impl TcpServerNode {
    /// A server at `addr:port` serving `object`.
    #[must_use]
    pub fn new(addr: Ipv4Addr, port: u16, object: impl Into<Bytes>, config: TcpConfig) -> Self {
        let rtt = RttEstimator::new(config.initial_rto, config.min_rto, config.max_rto);
        TcpServerNode {
            addr,
            port,
            cwnd: config.init_cwnd(),
            ssthresh: config.init_ssthresh,
            peer_window: config.receive_window,
            config,
            object: object.into(),
            state: State::Listen,
            peer: None,
            iss: SeqNum::new(SERVER_ISS),
            rcv_nxt: SeqNum::new(0),
            got_request: false,
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            in_recovery: false,
            recovery_point: 0,
            sacked: std::collections::BTreeMap::new(),
            rescue_high: 0,
            rtt,
            timer_gen: 0,
            armed_gen: None,
            retries: 0,
            rtt_probe: None,
            ip_id: 0,
            report: ServerReport::default(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Enable or disable telemetry (RTT/RTO sample histograms,
    /// retransmit and timeout events). Disabled by default.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// Borrow the server's telemetry recorder.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Snapshot of the server's telemetry: live RTT/RTO series and
    /// events plus the [`ServerReport`] counters as `tcp.*` counters.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut snap = self.telemetry.clone();
        snap.count("tcp.segments_sent", self.report.segments_sent);
        snap.count("tcp.retransmissions", self.report.retransmissions);
        snap.count("tcp.timeouts", self.report.timeouts);
        snap.count("tcp.fast_retransmits", self.report.fast_retransmits);
        snap.count("tcp.aborted", u64::from(self.report.aborted));
        snap.count("tcp.finished", u64::from(self.report.finished));
        snap
    }

    /// The data-direction flow (server → client), used to tag telemetry
    /// events.
    fn flow_tag(&self) -> u64 {
        match self.peer {
            Some((peer_ip, peer_port)) => FlowId {
                src: self.addr,
                src_port: self.port,
                dst: peer_ip,
                dst_port: peer_port,
            }
            .stable_hash(),
            None => 0,
        }
    }

    /// The server's transfer report.
    #[must_use]
    pub fn report(&self) -> &ServerReport {
        &self.report
    }

    /// Whether the connection was aborted (stalled).
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.state == State::Aborted
    }

    /// Total stream length: object bytes plus one FIN "byte".
    fn stream_len(&self) -> u64 {
        self.object.len() as u64 + 1
    }

    /// Sequence number of stream offset `off`.
    fn seq_of(&self, off: u64) -> SeqNum {
        self.iss + 1u32 + (off as u32)
    }

    fn next_ip_id(&mut self) -> u16 {
        self.ip_id = self.ip_id.wrapping_add(1);
        self.ip_id
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_>) {
        self.cancel_timer(ctx);
        self.timer_gen += 1;
        self.armed_gen = Some(self.timer_gen);
        ctx.set_timer(self.rtt.rto(), self.timer_gen);
    }

    /// Cancel the armed timer, if any.
    fn cancel_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(armed) = self.armed_gen.take() {
            ctx.cancel_timer(armed);
        }
    }

    fn base_packet(&mut self) -> bytecache_packet::PacketBuilder {
        let (peer_ip, peer_port) = self.peer.expect("peer known");
        let id = self.next_ip_id();
        Packet::builder()
            .src(self.addr, self.port)
            .dst(peer_ip, peer_port)
            .ip_id(id)
            .window(self.config.receive_window.min(u16::MAX as usize) as u16)
    }

    fn send_syn_ack(&mut self, ctx: &mut Context<'_>) {
        let pkt = self
            .base_packet()
            .seq(self.iss.raw())
            .ack_num(self.rcv_nxt.raw())
            .flags(TcpFlags::SYN)
            .build();
        ctx.forward(pkt);
    }

    fn send_pure_ack(&mut self, ctx: &mut Context<'_>) {
        let seq = self.seq_of(self.snd_nxt);
        let pkt = self
            .base_packet()
            .seq(seq.raw())
            .ack_num(self.rcv_nxt.raw())
            .build();
        ctx.forward(pkt);
    }

    /// Transmit the segment covering stream offset `off`; returns its
    /// length in stream bytes (payload bytes, or 1 for the FIN).
    fn transmit_segment(
        &mut self,
        off: u64,
        is_retransmission: bool,
        ctx: &mut Context<'_>,
    ) -> u64 {
        let obj_len = self.object.len() as u64;
        self.report.segments_sent += 1;
        if is_retransmission {
            self.report.retransmissions += 1;
            if self.telemetry.is_enabled() {
                let flow = self.flow_tag();
                self.telemetry.event(
                    Event::new(EventKind::Retransmit)
                        .at_us(ctx.now().as_micros())
                        .flow(flow)
                        .details(off, u64::from(self.retries)),
                );
            }
            // Karn: drop any RTT probe that a retransmission could alias.
            if let Some((probe_end, _)) = self.rtt_probe {
                if off < probe_end {
                    self.rtt_probe = None;
                }
            }
        }
        if off < obj_len {
            let len = (self.config.mss as u64).min(obj_len - off);
            let payload = self.object.slice(off as usize..(off + len) as usize);
            let seq = self.seq_of(off);
            let pkt = self
                .base_packet()
                .seq(seq.raw())
                .ack_num(self.rcv_nxt.raw())
                .flags(TcpFlags::PSH)
                .payload(payload)
                .build();
            ctx.forward(pkt);
            if !is_retransmission && self.rtt_probe.is_none() {
                self.rtt_probe = Some((off + len, ctx.now()));
            }
            len
        } else {
            // The FIN.
            let seq = self.seq_of(off);
            let pkt = self
                .base_packet()
                .seq(seq.raw())
                .ack_num(self.rcv_nxt.raw())
                .flags(TcpFlags::FIN)
                .build();
            ctx.forward(pkt);
            1
        }
    }

    /// Send as much new data as the windows allow.
    fn try_send(&mut self, ctx: &mut Context<'_>) {
        if self.state != State::Established || !self.got_request {
            return;
        }
        let stream_len = self.stream_len();
        let wnd = self.cwnd.min(self.peer_window) as u64;
        while self.snd_nxt < stream_len && self.flight() < wnd {
            let sent = self.transmit_segment(self.snd_nxt, false, ctx);
            self.snd_nxt += sent;
            if self.armed_gen.is_none() {
                self.arm_timer(ctx);
            }
        }
    }

    /// Merge a SACK block (stream offsets) into the scoreboard.
    fn merge_sack(&mut self, start: u64, end: u64) {
        if end <= start || end > self.stream_len() {
            return;
        }
        let mut start = start.max(self.snd_una);
        let mut end = end;
        if end <= start {
            return;
        }
        // Absorb every overlapping/adjacent range.
        let overlapping: Vec<u64> = self
            .sacked
            .range(..=end)
            .filter(|(_, &e)| e >= start)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.sacked.remove(&s).expect("present");
            start = start.min(s);
            end = end.max(e);
        }
        self.sacked.insert(start, end);
    }

    /// Drop scoreboard state at or below the cumulative ACK.
    fn prune_sacked(&mut self) {
        let una = self.snd_una;
        let stale: Vec<u64> = self.sacked.range(..=una).map(|(&s, _)| s).collect();
        for s in stale {
            let e = self.sacked.remove(&s).expect("present");
            if e > una {
                self.sacked.insert(una, e);
            }
        }
    }

    /// Sacked bytes strictly above `offset`.
    fn sacked_above(&self, offset: u64) -> u64 {
        self.sacked
            .iter()
            .map(|(&s, &e)| e.saturating_sub(s.max(offset)))
            .sum()
    }

    /// First not-yet-rescued hole (unsacked offset) below the recovery
    /// point that qualifies as *lost* under the RFC 6675 rule — at least
    /// `DupThresh` segments' worth of SACKed bytes sit above it.
    /// Segments that merely haven't been SACKed *yet* (still in flight)
    /// are not retransmitted.
    fn next_hole(&self) -> Option<u64> {
        const DUP_THRESH: u64 = 3;
        let mut cand = self.snd_una.max(self.rescue_high);
        loop {
            if cand >= self.recovery_point {
                return None;
            }
            if let Some((_, &e)) = self
                .sacked
                .range(..=cand)
                .next_back()
                .filter(|(&s, &e)| s <= cand && cand < e)
            {
                cand = e;
                continue;
            }
            if self.sacked_above(cand) >= DUP_THRESH * self.config.mss as u64 {
                return Some(cand);
            }
            // Not yet deemed lost; the RTO is the fallback for tail loss.
            return None;
        }
    }

    /// SACK-driven transmission during loss recovery: fill holes first,
    /// then send new data, a couple of segments per ACK (ack clocking).
    fn recovery_send(&mut self, ctx: &mut Context<'_>) {
        let stream_len = self.stream_len();
        let wnd = self.cwnd.min(self.peer_window) as u64;
        let mut budget = 2;
        while budget > 0 {
            if let Some(hole) = self.next_hole() {
                let sent = self.transmit_segment(hole, true, ctx);
                self.rescue_high = hole + sent;
                budget -= 1;
            } else if self.got_request && self.snd_nxt < stream_len && self.flight() < wnd {
                let sent = self.transmit_segment(self.snd_nxt, false, ctx);
                self.snd_nxt += sent;
                budget -= 1;
            } else {
                break;
            }
        }
        if self.flight() > 0 && self.armed_gen.is_none() {
            self.arm_timer(ctx);
        }
    }

    fn enter_recovery(&mut self, ctx: &mut Context<'_>) {
        let mss = self.config.mss;
        self.ssthresh = ((self.flight() as usize) / 2).max(2 * mss);
        self.cwnd = self.ssthresh;
        self.in_recovery = true;
        self.recovery_point = self.snd_nxt;
        self.rescue_high = self.snd_una;
        self.report.fast_retransmits += 1;
        self.recovery_send(ctx);
    }

    fn process_ack(
        &mut self,
        packet_ack: SeqNum,
        window: u16,
        sack: &bytecache_packet::SackList,
        ctx: &mut Context<'_>,
    ) {
        if self.state != State::Established {
            return;
        }
        self.peer_window = window as usize;
        let base = self.seq_of(0);
        let ack_off = packet_ack.distance_from(base);
        if ack_off < 0 || ack_off as u64 > self.stream_len() {
            return; // not for our stream
        }
        let ack_off = ack_off as u64;
        // Fold SACK blocks into the scoreboard.
        for (s, e) in sack.iter() {
            let so = s.distance_from(base);
            let eo = e.distance_from(base);
            if so >= 0 && eo > so {
                self.merge_sack(so as u64, eo as u64);
            }
        }
        let mss = self.config.mss;
        if ack_off > self.snd_una {
            // New data acknowledged: forward progress.
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack_off >= probe_end {
                    if self.telemetry.is_enabled() {
                        self.telemetry
                            .record("tcp.rtt_us", (ctx.now() - sent_at).as_micros());
                    }
                    self.rtt.sample(ctx.now() - sent_at);
                    self.rtt_probe = None;
                }
            }
            self.snd_una = ack_off;
            self.prune_sacked();
            self.retries = 0;
            self.rtt.reset_backoff();
            if self.in_recovery {
                if ack_off >= self.recovery_point {
                    // Recovery complete.
                    self.in_recovery = false;
                    self.dup_acks = 0;
                    self.cwnd = self.ssthresh;
                } else if self.cwnd < self.ssthresh {
                    self.cwnd += mss; // regrow after a timeout episode
                }
            } else {
                self.dup_acks = 0;
                if self.cwnd < self.ssthresh {
                    self.cwnd += mss; // slow start
                } else {
                    self.cwnd += (mss * mss / self.cwnd).max(1); // congestion avoidance
                }
            }
            if self.snd_una == self.stream_len() {
                // FIN acknowledged: transfer complete.
                self.state = State::Closed;
                self.report.finished = true;
                self.cancel_timer(ctx);
                return;
            }
            if self.flight() > 0 {
                self.arm_timer(ctx);
            } else {
                self.cancel_timer(ctx);
            }
            if self.in_recovery {
                self.recovery_send(ctx);
            } else {
                self.try_send(ctx);
            }
        } else if ack_off == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.in_recovery {
                self.recovery_send(ctx);
            } else if self.dup_acks == 3 {
                self.enter_recovery(ctx);
            }
        }
    }

    fn handle_timeout(&mut self, ctx: &mut Context<'_>) {
        self.report.timeouts += 1;
        self.retries += 1;
        if self.telemetry.is_enabled() {
            let flow = self.flow_tag();
            self.telemetry
                .record("tcp.rto_us", self.rtt.rto().as_micros());
            self.telemetry.event(
                Event::new(EventKind::Timeout)
                    .at_us(ctx.now().as_micros())
                    .flow(flow)
                    .details(self.snd_una, u64::from(self.retries)),
            );
        }
        if self.retries > self.config.max_retries {
            self.state = State::Aborted;
            self.report.aborted = true;
            self.cancel_timer(ctx);
            return;
        }
        let mss = self.config.mss;
        self.ssthresh = ((self.flight() as usize) / 2).max(2 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        self.rtt.backoff();
        // Post-timeout recovery reuses the SACK machinery: the receiver
        // does not renege, so the scoreboard stays valid; walk the holes
        // starting from snd_una as the ACK clock restarts.
        self.in_recovery = true;
        self.recovery_point = self.snd_nxt;
        self.rescue_high = self.snd_una;
        let sent = self.transmit_segment(self.snd_una, true, ctx);
        self.rescue_high = self.snd_una + sent;
        self.arm_timer(ctx);
    }
}

impl Node for TcpServerNode {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        // Only handle packets addressed to us.
        if packet.ip.dst != self.addr || packet.tcp.dst_port != self.port {
            return;
        }
        let flags = packet.tcp.flags;
        match self.state {
            State::Listen => {
                if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
                    self.peer = Some((packet.ip.src, packet.tcp.src_port));
                    self.rcv_nxt = packet.tcp.seq + 1u32;
                    self.state = State::SynReceived;
                    self.send_syn_ack(ctx);
                    self.arm_timer(ctx);
                }
            }
            State::SynReceived => {
                if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
                    // Retransmitted SYN: repeat the SYN-ACK.
                    self.send_syn_ack(ctx);
                    return;
                }
                if flags.contains(TcpFlags::ACK) && packet.tcp.ack == self.iss + 1u32 {
                    self.state = State::Established;
                    self.retries = 0;
                    self.cancel_timer(ctx);
                    // Fall through to process any piggybacked request data.
                    self.handle_established(packet, ctx);
                }
            }
            State::Established => self.handle_established(packet, ctx),
            State::Closed => {
                // Re-ACK anything that still arrives (e.g. a
                // retransmitted final ACK exchange is not modelled; the
                // client may re-ACK our FIN, which needs no reply).
            }
            State::Aborted => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if self.armed_gen != Some(token) {
            return; // stale: every abandoned timer is cancelled, so a defence only
        }
        self.armed_gen = None;
        match self.state {
            State::SynReceived => {
                self.retries += 1;
                if self.retries > self.config.max_retries {
                    self.state = State::Aborted;
                    self.report.aborted = true;
                    return;
                }
                self.rtt.backoff();
                self.send_syn_ack(ctx);
                self.arm_timer(ctx);
            }
            State::Established => self.handle_timeout(ctx),
            _ => {}
        }
    }
}

impl TcpServerNode {
    fn handle_established(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let flags = packet.tcp.flags;
        // Request data from the client.
        if packet.has_payload() {
            let seg_start = packet.tcp.seq;
            let seg_end = packet.seq_end();
            if seg_start.precedes_eq(self.rcv_nxt) && self.rcv_nxt.precedes(seg_end) {
                // Advances our receive window.
                self.rcv_nxt = seg_end;
                if !self.got_request {
                    self.got_request = true;
                    // ACK the request and start streaming the response.
                    self.send_pure_ack(ctx);
                    self.try_send(ctx);
                }
            } else {
                // Duplicate request: re-ACK so the client stops resending.
                self.send_pure_ack(ctx);
            }
        }
        if flags.contains(TcpFlags::ACK) {
            self.process_ack(packet.tcp.ack, packet.tcp.window, &packet.tcp.sack, ctx);
        }
    }
}

impl core::fmt::Debug for TcpServerNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpServerNode")
            .field("addr", &self.addr)
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cwnd)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let s = TcpServerNode::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            vec![1u8; 100],
            TcpConfig::default(),
        );
        assert!(!s.aborted());
        assert_eq!(s.stream_len(), 101);
        assert_eq!(s.report().segments_sent, 0);
    }

    #[test]
    fn seq_of_maps_offsets_past_the_syn() {
        let s = TcpServerNode::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            vec![0u8; 10],
            TcpConfig::default(),
        );
        assert_eq!(s.seq_of(0), SeqNum::new(SERVER_ISS + 1));
        assert_eq!(s.seq_of(10), SeqNum::new(SERVER_ISS + 11));
    }

    fn server_with_object(len: usize) -> TcpServerNode {
        TcpServerNode::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            vec![0u8; len],
            TcpConfig::default(),
        )
    }

    #[test]
    fn sack_merge_coalesces_overlaps_and_adjacency() {
        let mut s = server_with_object(100_000);
        s.merge_sack(1000, 2000);
        s.merge_sack(3000, 4000);
        assert_eq!(s.sacked.len(), 2);
        // Overlapping range bridges both.
        s.merge_sack(1500, 3500);
        assert_eq!(s.sacked.len(), 1);
        assert_eq!(s.sacked.get(&1000), Some(&4000));
        // Adjacent (touching) range extends.
        s.merge_sack(4000, 4500);
        assert_eq!(s.sacked.get(&1000), Some(&4500));
    }

    #[test]
    fn sack_merge_clamps_to_stream_and_una() {
        let mut s = server_with_object(10_000);
        // Beyond the stream (object + FIN): rejected.
        s.merge_sack(9_000, 50_000);
        assert!(s.sacked.is_empty());
        // Below snd_una: clamped away.
        s.snd_una = 5_000;
        s.merge_sack(1_000, 4_000);
        assert!(s.sacked.is_empty());
        s.merge_sack(4_000, 6_000);
        assert_eq!(s.sacked.get(&5_000), Some(&6_000));
    }

    #[test]
    fn prune_sacked_drops_acknowledged_ranges() {
        let mut s = server_with_object(100_000);
        s.merge_sack(1_000, 2_000);
        s.merge_sack(3_000, 4_000);
        s.snd_una = 3_500;
        s.prune_sacked();
        assert_eq!(s.sacked.len(), 1);
        assert_eq!(s.sacked.get(&3_500), Some(&4_000));
    }

    #[test]
    fn next_hole_respects_dup_thresh() {
        let mut s = server_with_object(100_000);
        s.snd_una = 0;
        s.snd_nxt = 20_000;
        s.recovery_point = 20_000;
        s.rescue_high = 0;
        // Only 2 MSS sacked above the hole: not yet "lost".
        s.merge_sack(1_460, 1_460 + 2 * 1_460);
        assert_eq!(s.next_hole(), None);
        // A third sacked segment crosses DupThresh.
        s.merge_sack(10_000, 11_460);
        assert_eq!(s.next_hole(), Some(0));
        // After rescuing the first hole, the next unsacked gap qualifies
        // only if enough is sacked above it.
        s.rescue_high = 1_460;
        assert_eq!(s.next_hole(), None, "gap at 4380 has <3 MSS above");
    }

    #[test]
    fn next_hole_skips_sacked_runs() {
        let mut s = server_with_object(100_000);
        s.snd_una = 0;
        s.snd_nxt = 40_000;
        s.recovery_point = 40_000;
        s.rescue_high = 0;
        s.merge_sack(0, 10_000); // snd_una itself is sacked? (cannot happen
                                 // live, but next_hole must still skip it)
        s.merge_sack(20_000, 36_000);
        let hole = s.next_hole().expect("hole at 10_000");
        assert_eq!(hole, 10_000);
    }
}
