//! The client endpoint: connects, sends a request, downloads the
//! response, and reports what it saw.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bytes::Bytes;

use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{Context, Node};
use bytecache_packet::{Packet, SeqNum, TcpFlags};

use crate::config::TcpConfig;
use crate::stats::DownloadReport;

/// Client ISN; fixed for reproducibility.
const CLIENT_ISS: u32 = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    SynSent,
    Established,
    Closed,
    Aborted,
}

/// A TCP client that connects to a server, sends a fixed-size request,
/// and receives the response object — the simulator's stand-in for the
/// paper's downloading client.
///
/// The client ACKs every arriving data segment immediately (no delayed
/// ACKs), generating the duplicate ACKs the server's fast-retransmit
/// logic needs. Received in-order bytes are retained so tests can verify
/// end-to-end integrity through the byte caching gateways.
pub struct TcpClientNode {
    addr: Ipv4Addr,
    port: u16,
    server: Ipv4Addr,
    server_port: u16,
    config: TcpConfig,

    state: State,
    iss: SeqNum,
    /// Next expected sequence number from the server.
    rcv_nxt: SeqNum,
    /// Server's ISN (valid once the SYN-ACK arrived).
    irs: SeqNum,
    /// Out-of-order segments keyed by stream offset.
    reassembly: BTreeMap<u64, Bytes>,
    /// In-order assembled response bytes.
    received: Vec<u8>,
    /// Stream offset at which the server's FIN sits, once seen.
    fin_offset: Option<u64>,
    /// Offset of the most recent out-of-order segment (drives the first
    /// SACK block per RFC 2018).
    last_ooo: Option<u64>,
    request_acked: bool,
    /// Delay before the connection attempt begins.
    start_delay: SimDuration,
    started: bool,

    timer_gen: u64,
    armed_gen: Option<u64>,
    retries: u32,
    ip_id: u16,
    /// When the in-order prefix last advanced (drives `max_stall`).
    last_progress_at: Option<SimTime>,
    report: DownloadReport,
}

impl TcpClientNode {
    /// A client at `addr:port` that will download from `server:server_port`.
    #[must_use]
    pub fn new(
        addr: Ipv4Addr,
        port: u16,
        server: Ipv4Addr,
        server_port: u16,
        config: TcpConfig,
    ) -> Self {
        TcpClientNode {
            addr,
            port,
            server,
            server_port,
            config,
            state: State::Idle,
            iss: SeqNum::new(CLIENT_ISS),
            rcv_nxt: SeqNum::new(0),
            irs: SeqNum::new(0),
            reassembly: BTreeMap::new(),
            received: Vec::new(),
            fin_offset: None,
            last_ooo: None,
            request_acked: false,
            start_delay: SimDuration::ZERO,
            started: false,
            timer_gen: 0,
            armed_gen: None,
            retries: 0,
            ip_id: 0,
            last_progress_at: None,
            report: DownloadReport::default(),
        }
    }

    /// Delay the connection attempt by `delay` after simulation start
    /// (builder style) — used to stage sequential flows through shared
    /// gateways.
    #[must_use]
    pub fn with_start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// The download report (also available mid-run).
    #[must_use]
    pub fn report(&self) -> &DownloadReport {
        &self.report
    }

    /// The response bytes delivered in order so far.
    #[must_use]
    pub fn received(&self) -> &[u8] {
        &self.received
    }

    /// The deterministic request payload.
    #[must_use]
    pub fn request_payload(config: &TcpConfig) -> Bytes {
        let mut req = b"GET /object HTTP/1.1\r\nHost: bytecache\r\n\r\n".to_vec();
        req.resize(config.request_len.max(1), b' ');
        Bytes::from(req)
    }

    fn next_ip_id(&mut self) -> u16 {
        self.ip_id = self.ip_id.wrapping_add(1);
        self.ip_id
    }

    fn base_packet(&mut self) -> bytecache_packet::PacketBuilder {
        let id = self.next_ip_id();
        Packet::builder()
            .src(self.addr, self.port)
            .dst(self.server, self.server_port)
            .ip_id(id)
            .window(self.config.receive_window.min(u16::MAX as usize) as u16)
    }

    fn arm_timer(&mut self, delay: SimDuration, ctx: &mut Context<'_>) {
        self.disarm(ctx);
        self.timer_gen += 1;
        self.armed_gen = Some(self.timer_gen);
        ctx.set_timer(delay, self.timer_gen);
    }

    /// Cancel the armed timer, if any.
    fn disarm(&mut self, ctx: &mut Context<'_>) {
        if let Some(armed) = self.armed_gen.take() {
            ctx.cancel_timer(armed);
        }
    }

    fn backoff_delay(&self) -> SimDuration {
        self.config
            .initial_rto
            .saturating_mul(1u64 << self.retries.min(16))
            .min(self.config.max_rto)
    }

    fn send_syn(&mut self, ctx: &mut Context<'_>) {
        let pkt = self
            .base_packet()
            .seq(self.iss.raw())
            .flags(TcpFlags::SYN)
            .build();
        ctx.forward(pkt);
    }

    fn send_request(&mut self, ctx: &mut Context<'_>) {
        let payload = Self::request_payload(&self.config);
        let seq = self.iss + 1u32;
        let ack = self.rcv_nxt;
        let pkt = self
            .base_packet()
            .seq(seq.raw())
            .ack_num(ack.raw())
            .flags(TcpFlags::PSH)
            .payload(payload)
            .build();
        ctx.forward(pkt);
    }

    fn send_ack(&mut self, ctx: &mut Context<'_>) {
        let seq = self.iss + 1u32 + Self::request_payload(&self.config).len();
        let ack = self.rcv_nxt;
        let sack = self.sack_blocks();
        let pkt = self
            .base_packet()
            .seq(seq.raw())
            .ack_num(ack.raw())
            .sack(sack)
            .build();
        ctx.forward(pkt);
    }

    /// SACK blocks describing the out-of-order data currently buffered.
    ///
    /// Per RFC 2018, the first block is the range containing the most
    /// recently received segment (`self.last_ooo`), so that with
    /// per-packet ACKs the sender's scoreboard accumulates every
    /// buffered range; the remaining slots carry the lowest other
    /// ranges.
    fn sack_blocks(&self) -> bytecache_packet::SackList {
        let expected = self.received.len() as u64;
        let base = self.irs + 1u32;
        // Merge the buffer into ranges.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (&off, seg) in &self.reassembly {
            let end = off + seg.len() as u64;
            if end <= expected {
                continue;
            }
            let off = off.max(expected);
            match ranges.last_mut() {
                Some((_, e)) if off <= *e => *e = (*e).max(end),
                _ => ranges.push((off, end)),
            }
        }
        let mut blocks = bytecache_packet::SackList::new();
        // Most recent first.
        let recent = self
            .last_ooo
            .and_then(|off| ranges.iter().copied().find(|&(s, e)| s <= off && off < e));
        if let Some((s, e)) = recent {
            blocks.push(base + (s as u32), base + (e as u32));
        }
        for &(s, e) in &ranges {
            if Some((s, e)) == recent {
                continue;
            }
            if !blocks.push(base + (s as u32), base + (e as u32)) {
                break;
            }
        }
        blocks
    }

    /// Stream offset of a server sequence number (0 = first response byte).
    fn offset_of(&self, seq: SeqNum) -> i64 {
        seq.distance_from(self.irs + 1u32)
    }

    fn handle_data(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let had_payload = packet.has_payload();
        let prefix_before = self.received.len();
        if had_payload {
            self.report.data_packets_received += 1;
        }
        // Record the FIN's stream offset when we see it.
        if packet.tcp.flags.contains(TcpFlags::FIN) {
            let off = self.offset_of(packet.tcp.seq) + packet.payload.len() as i64;
            if off >= 0 {
                self.fin_offset = Some(off as u64);
            }
        }
        if had_payload {
            let off = self.offset_of(packet.tcp.seq);
            if off >= 0 {
                let off = off as u64;
                let expected = self.received.len() as u64;
                if off <= expected && expected < off + packet.payload.len() as u64 {
                    // Extends the in-order prefix (possibly overlapping).
                    let skip = (expected - off) as usize;
                    self.received.extend_from_slice(&packet.payload[skip..]);
                    if self.report.first_byte_at.is_none() {
                        self.report.first_byte_at = Some(ctx.now());
                    }
                    self.drain_reassembly();
                } else if off > expected {
                    // Out of order: stash and emit a duplicate ACK.
                    self.reassembly
                        .entry(off)
                        .or_insert_with(|| packet.payload.clone());
                    self.last_ooo = Some(off);
                    self.report.dup_acks_sent += 1;
                }
                // Old/duplicate data falls through to the re-ACK below.
            }
        }
        if self.received.len() > prefix_before {
            // In-order progress: the gap since the previous advance is a
            // stall the user sat through.
            if let Some(last) = self.last_progress_at {
                let stall = ctx.now() - last;
                if self.report.max_stall.is_none_or(|m| stall > m) {
                    self.report.max_stall = Some(stall);
                }
            }
            self.last_progress_at = Some(ctx.now());
        }
        self.report.bytes_delivered = self.received.len() as u64;
        // Cumulative ACK position: delivered prefix, plus the FIN if
        // the prefix has reached it.
        let mut ack_off = self.received.len() as u64;
        let mut finished = false;
        if let Some(fin) = self.fin_offset {
            if ack_off >= fin {
                ack_off = fin + 1;
                finished = true;
            }
        }
        self.rcv_nxt = self.irs + 1u32 + (ack_off as u32);
        if had_payload || packet.tcp.flags.contains(TcpFlags::FIN) {
            self.send_ack(ctx);
        }
        if finished && self.state == State::Established {
            self.state = State::Closed;
            self.report.complete = true;
            self.report.completed_at = Some(ctx.now());
            self.disarm(ctx);
        }
    }

    fn drain_reassembly(&mut self) {
        loop {
            let expected = self.received.len() as u64;
            // Find a buffered segment covering `expected`.
            let Some((&off, _)) = self
                .reassembly
                .range(..=expected)
                .next_back()
                .filter(|(&off, seg)| off + seg.len() as u64 > expected)
            else {
                break;
            };
            let seg = self.reassembly.remove(&off).expect("present");
            let skip = (expected - off) as usize;
            self.received.extend_from_slice(&seg[skip..]);
        }
        // Drop any now-stale buffered segments.
        let expected = self.received.len() as u64;
        self.reassembly
            .retain(|&off, seg| off + seg.len() as u64 > expected);
    }
}

impl TcpClientNode {
    fn begin_connection(&mut self, ctx: &mut Context<'_>) {
        self.started = true;
        self.state = State::SynSent;
        self.report.started_at = Some(ctx.now());
        self.send_syn(ctx);
        let delay = self.backoff_delay();
        self.arm_timer(delay, ctx);
    }
}

impl Node for TcpClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.start_delay == SimDuration::ZERO {
            self.begin_connection(ctx);
        } else {
            self.arm_timer(self.start_delay, ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.ip.dst != self.addr || packet.tcp.dst_port != self.port {
            return;
        }
        let flags = packet.tcp.flags;
        match self.state {
            State::Idle | State::Aborted => {}
            State::SynSent => {
                if flags.contains(TcpFlags::SYN)
                    && flags.contains(TcpFlags::ACK)
                    && packet.tcp.ack == self.iss + 1u32
                {
                    self.irs = packet.tcp.seq;
                    self.rcv_nxt = packet.tcp.seq + 1u32;
                    self.state = State::Established;
                    self.retries = 0;
                    self.send_request(ctx);
                    let delay = self.backoff_delay();
                    self.arm_timer(delay, ctx); // request retransmit timer
                }
            }
            State::Established => {
                if flags.contains(TcpFlags::SYN) && flags.contains(TcpFlags::ACK) {
                    // Server did not see our handshake ACK; repeat the request.
                    self.send_request(ctx);
                    return;
                }
                // Server's ACK of our request?
                if flags.contains(TcpFlags::ACK) && !self.request_acked {
                    let req_end = self.iss + 1u32 + Self::request_payload(&self.config).len();
                    if req_end.precedes_eq(packet.tcp.ack) {
                        self.request_acked = true;
                        self.disarm(ctx); // stop request retransmits
                    }
                }
                if packet.has_payload() || flags.contains(TcpFlags::FIN) {
                    // First data also implies the request arrived.
                    if !self.request_acked {
                        self.request_acked = true;
                        self.disarm(ctx);
                    }
                    self.handle_data(packet, ctx);
                }
            }
            State::Closed => {
                // Re-ACK a retransmitted FIN so the server can finish.
                if flags.contains(TcpFlags::FIN) || packet.has_payload() {
                    self.send_ack(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if self.armed_gen != Some(token) {
            return; // stale: every abandoned timer is cancelled, so a defence only
        }
        self.armed_gen = None;
        if !self.started {
            // The deferred connection start.
            self.begin_connection(ctx);
            return;
        }
        self.retries += 1;
        if self.retries > self.config.max_retries {
            self.state = State::Aborted;
            self.report.aborted = true;
            return;
        }
        match self.state {
            State::SynSent => {
                self.send_syn(ctx);
                let delay = self.backoff_delay();
                self.arm_timer(delay, ctx);
            }
            State::Established if !self.request_acked => {
                self.send_request(ctx);
                let delay = self.backoff_delay();
                self.arm_timer(delay, ctx);
            }
            _ => {}
        }
    }
}

impl core::fmt::Debug for TcpClientNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpClientNode")
            .field("addr", &self.addr)
            .field("state", &self.state)
            .field("received", &self.received.len())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_payload_is_deterministic_and_sized() {
        let cfg = TcpConfig::default();
        let a = TcpClientNode::request_payload(&cfg);
        let b = TcpClientNode::request_payload(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.request_len);
        assert!(a.starts_with(b"GET /object"));
    }

    #[test]
    fn request_payload_respects_longer_minimum() {
        let cfg = TcpConfig {
            request_len: 10,
            ..TcpConfig::default()
        };
        // Shorter than the literal request: truncated but non-empty.
        assert_eq!(TcpClientNode::request_payload(&cfg).len(), 10);
    }

    #[test]
    fn fresh_client_report_is_empty() {
        let c = TcpClientNode::new(
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            TcpConfig::default(),
        );
        assert_eq!(c.report().bytes_delivered, 0);
        assert!(!c.report().complete);
        assert!(c.received().is_empty());
    }
}
