//! Topology assembly and single-run execution (the paper's Figure 3).

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DecoderStats, DreConfig, Encoder, EncoderStats, PolicyKind};
use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::nc::{
    NcConfig, NcDecoderNode, NcDecoderStats, NcEncoderNode, NcEncoderStats, NcTuning,
};
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{Context, LinkConfig, LinkStats, Node, QueueKind, Simulator};
use bytecache_packet::{FlowId, Packet};
use bytecache_tcp::{DownloadReport, ServerReport, TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_telemetry::Recorder;

/// Fixed addresses of the four-node chain.
pub mod addrs {
    use std::net::Ipv4Addr;
    /// HTTP server.
    pub const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    /// Downloading client.
    pub const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// Encoder gateway (control address for NACKs).
    pub const ENCODER_GW: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    /// Decoder gateway.
    pub const DECODER_GW: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
    /// Network-coding encoder node (enc-gateway side of the wireless
    /// hop; present only when [`ScenarioConfig::nc`] is set).
    ///
    /// [`ScenarioConfig::nc`]: super::ScenarioConfig::nc()
    pub const NC_ENC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);
    /// Network-coding decoder node (dec-gateway side of the wireless
    /// hop; present only when [`ScenarioConfig::nc`] is set).
    ///
    /// [`ScenarioConfig::nc`]: super::ScenarioConfig::nc()
    pub const NC_DEC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 6);
    /// Server TCP port.
    pub const SERVER_PORT: u16 = 80;
    /// Client TCP port.
    pub const CLIENT_PORT: u16 = 40_000;
}

/// A middlebox that forwards everything untouched — the gateway used in
/// baseline (no-DRE) runs so topology and link behaviour stay identical.
#[derive(Debug, Default, Clone)]
pub struct PassThrough;

impl Node for PassThrough {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        ctx.forward(packet);
    }
}

/// Everything a single run needs.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The object served.
    pub object: Vec<u8>,
    /// Bernoulli loss rate on the wireless data direction.
    pub loss_rate: f64,
    /// Corruption rate on the wireless data direction.
    pub corruption_rate: f64,
    /// Reorder rate on the wireless data direction.
    pub reorder_rate: f64,
    /// Use a Gilbert–Elliott bursty channel with this mean burst length
    /// instead of Bernoulli loss.
    pub burst_len: Option<f64>,
    /// Wireless serialization rate (paper: 1 MB/s).
    pub wireless_rate: u64,
    /// Wireless one-way propagation delay.
    pub wireless_propagation: SimDuration,
    /// Byte caching policy; `None` runs the no-DRE baseline.
    pub policy: Option<PolicyKind>,
    /// Enable decoder→encoder NACKs (informed marking).
    pub nacks: bool,
    /// DRE parameters.
    pub dre: DreConfig,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Simulation seed (channel randomness).
    pub seed: u64,
    /// Collect a telemetry snapshot ([`RunResult::telemetry`]). Off by
    /// default; the run's outputs are byte-identical either way.
    pub telemetry: bool,
    /// Fault injection: wipe the decoder gateway's cache at this
    /// simulated time (models a decoder restart mid-transfer). Ignored
    /// in baseline (no-DRE) runs.
    pub wipe_at: Option<SimDuration>,
    /// Fault injection: Bernoulli loss rate on the control (NACK /
    /// recovery) direction of the wireless link.
    pub nack_loss: f64,
    /// Fault injection: duplication rate on the control direction.
    pub nack_duplicate: f64,
    /// Fault injection: reorder burst length on the data direction
    /// (see [`ChannelConfig::reorder_burst_len`]).
    pub reorder_burst_len: u32,
    /// Stamp the encoder's cache generation into shim headers (wire
    /// format V2) so a wiped decoder is detected in one round trip.
    pub wire_gen: bool,
    /// Enable the decoder gateway's recovery state machine (resync and
    /// repair requests over the control channel). Requires `nacks`.
    pub recovery: bool,
    /// Bracket the wireless hop with the network-coded retransmission
    /// pair ([`NcEncoderNode`]/[`NcDecoderNode`]): the chain grows to
    /// six nodes and XOR repair frames ride the lossy link alongside
    /// the data. `None` (the default) keeps the classic four-node
    /// chain byte-for-byte.
    pub nc: Option<NcTuning>,
    /// Event-queue kind override (`None` keeps the simulator default);
    /// results are byte-identical for every kind.
    pub queue: Option<QueueKind>,
}

impl ScenarioConfig {
    /// Paper-shaped defaults: 1 MB/s wireless link, 10 ms propagation,
    /// clean channel, no DRE, default TCP with enough retries that
    /// robust policies can ride out 20 % loss.
    #[must_use]
    pub fn new(object: Vec<u8>) -> Self {
        ScenarioConfig {
            object,
            loss_rate: 0.0,
            corruption_rate: 0.0,
            reorder_rate: 0.0,
            burst_len: None,
            wireless_rate: 1_000_000,
            wireless_propagation: SimDuration::from_millis(10),
            policy: None,
            nacks: false,
            dre: DreConfig::default(),
            tcp: TcpConfig {
                // Linux's default of 15 retries: robust policies must be
                // able to ride out 20 % loss (and k-distance's bounded
                // self-poisoning episodes) without spurious aborts.
                max_retries: 15,
                ..TcpConfig::default()
            },
            seed: 1,
            telemetry: false,
            wipe_at: None,
            nack_loss: 0.0,
            nack_duplicate: 0.0,
            reorder_burst_len: 1,
            wire_gen: false,
            recovery: false,
            nc: None,
            queue: None,
        }
    }

    /// Set the loss rate (builder style).
    #[must_use]
    pub fn loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate;
        self
    }

    /// Set the policy (builder style).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = Some(kind);
        self
    }

    /// Set the seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable telemetry collection (builder style).
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Schedule a decoder cache wipe at `at` (builder style).
    #[must_use]
    pub fn wipe_at(mut self, at: SimDuration) -> Self {
        self.wipe_at = Some(at);
        self
    }

    /// Impair the control (NACK / recovery) direction of the wireless
    /// link with Bernoulli loss and duplication (builder style).
    #[must_use]
    pub fn nack_faults(mut self, loss: f64, duplicate: f64) -> Self {
        self.nack_loss = loss;
        self.nack_duplicate = duplicate;
        self
    }

    /// Set the data-direction reorder burst length (builder style).
    #[must_use]
    pub fn reorder_burst(mut self, len: u32) -> Self {
        self.reorder_burst_len = len;
        self
    }

    /// Enable the network-coded retransmission pair around the
    /// wireless hop (builder style).
    #[must_use]
    pub fn nc(mut self, tuning: NcTuning) -> Self {
        self.nc = Some(tuning);
        self
    }

    /// Pin the event-queue kind (builder style); `None` keeps the
    /// simulator default.
    #[must_use]
    pub fn queue(mut self, queue: Option<QueueKind>) -> Self {
        self.queue = queue;
        self
    }

    /// Enable the full divergence-recovery protocol: generation-stamped
    /// shims (wire V2), decoder-side resync/repair requests, and NACKs
    /// (the control channel recovery rides on). Builder style.
    #[must_use]
    pub fn recovery(mut self) -> Self {
        self.wire_gen = true;
        self.recovery = true;
        self.nacks = true;
        self
    }

    fn data_channel(&self) -> ChannelConfig {
        let loss = match (self.loss_rate, self.burst_len) {
            (rate, _) if rate <= 0.0 => LossModel::None,
            (rate, Some(burst)) => LossModel::bursty(rate, burst),
            (rate, None) => LossModel::Bernoulli { rate },
        };
        ChannelConfig {
            loss,
            corruption_rate: self.corruption_rate,
            reorder_rate: self.reorder_rate,
            reorder_window: SimDuration::from_millis(20),
            reorder_burst_len: self.reorder_burst_len,
            ..ChannelConfig::clean()
        }
    }

    /// Channel for the control (decoder → encoder) direction of the
    /// wireless link. Clean unless the NACK fault knobs are set — and
    /// with them at their zero defaults the channel draws nothing from
    /// the RNG, keeping pre-existing experiment outputs byte-identical.
    fn control_channel(&self) -> ChannelConfig {
        ChannelConfig {
            loss: if self.nack_loss > 0.0 {
                LossModel::Bernoulli {
                    rate: self.nack_loss,
                }
            } else {
                LossModel::None
            },
            duplicate_rate: self.nack_duplicate,
            ..ChannelConfig::clean()
        }
    }
}

/// Everything a single run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Client-side download report.
    pub client: DownloadReport,
    /// Server-side transfer report.
    pub server: ServerReport,
    /// Encoder counters (`None` in baseline runs).
    pub encoder: Option<EncoderStats>,
    /// Decoder counters (`None` in baseline runs).
    pub decoder: Option<DecoderStats>,
    /// Packets the decoder gateway dropped as undecodable.
    pub undecodable_drops: u64,
    /// Repair (RECOVER) requests the decoder gateway sent, including
    /// retries. Zero unless [`ScenarioConfig::recovery`] is on.
    pub recovery_requests: u64,
    /// Resync requests the decoder gateway sent, including retries.
    pub resyncs_sent: u64,
    /// Wireless link counters, data direction.
    pub wireless: LinkStats,
    /// Simulated time when the run went idle.
    pub end_time: SimTime,
    /// Whether the delivered bytes exactly equal the object.
    pub data_intact: bool,
    /// Object length (denominator for retrieval fractions).
    pub object_len: usize,
    /// Merged telemetry snapshot (server, gateways, simulator), present
    /// when [`ScenarioConfig::telemetry`] was set.
    pub telemetry: Option<Recorder>,
    /// Network-coding encoder counters (`None` unless
    /// [`ScenarioConfig::nc`] was set).
    pub nc_encoder: Option<NcEncoderStats>,
    /// Network-coding decoder counters (`None` unless
    /// [`ScenarioConfig::nc`] was set).
    pub nc_decoder: Option<NcDecoderStats>,
}

impl RunResult {
    /// Download completed (FIN received, data intact).
    #[must_use]
    pub fn completed(&self) -> bool {
        self.client.complete && self.data_intact
    }

    /// Download duration in seconds, if completed.
    #[must_use]
    pub fn duration_secs(&self) -> Option<f64> {
        self.client.duration().map(|d| d.as_secs_f64())
    }

    /// Bytes offered on the wireless data direction — the paper's
    /// "bytes sent" measure.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.wireless.bytes_offered
    }

    /// Fraction of the object the client retrieved.
    #[must_use]
    pub fn fraction_retrieved(&self) -> f64 {
        self.client.fraction_retrieved(self.object_len)
    }

    /// The paper's perceived loss rate: channel losses plus undecodable
    /// drops, over packets offered on the wireless data direction.
    #[must_use]
    pub fn perceived_loss(&self) -> f64 {
        if self.wireless.packets_offered == 0 {
            return 0.0;
        }
        let lost =
            self.wireless.packets_lost + self.wireless.packets_corrupted + self.undecodable_drops;
        lost as f64 / self.wireless.packets_offered as f64
    }
}

/// Run one object retrieval through the four-node chain (six when
/// [`ScenarioConfig::nc`] brackets the wireless hop with the coder
/// pair) and collect everything the experiments need.
///
/// # Panics
///
/// Panics if the simulator's event budget is exhausted (indicates a
/// protocol loop — which the TCP abort logic should prevent).
#[must_use]
pub fn run_scenario(config: &ScenarioConfig) -> RunResult {
    use addrs::*;

    let object_len = config.object.len();
    let mut sim = Simulator::new(config.seed);
    if let Some(queue) = config.queue {
        sim.set_queue_kind(queue);
    }

    if config.telemetry {
        sim.set_telemetry_enabled(true);
    }

    let mut server_node = TcpServerNode::new(
        SERVER,
        SERVER_PORT,
        config.object.clone(),
        config.tcp.clone(),
    );
    if config.telemetry {
        server_node.set_telemetry_enabled(true);
    }
    let server = sim.add_node(server_node);
    let client = sim.add_node(TcpClientNode::new(
        CLIENT,
        CLIENT_PORT,
        SERVER,
        SERVER_PORT,
        config.tcp.clone(),
    ));
    let (enc_gw, dec_gw) = match config.policy {
        Some(kind) => {
            let encoder = Encoder::new(config.dre.clone(), kind.build());
            let decoder = Decoder::new(config.dre.clone());
            let mut enc = EncoderGateway::new(encoder, CLIENT)
                .with_control_addr(ENCODER_GW)
                .with_wire_gen(config.wire_gen);
            let mut dec = DecoderGateway::new(decoder, CLIENT, DECODER_GW);
            if config.nacks {
                dec = dec.with_nacks(ENCODER_GW);
            }
            if config.recovery {
                assert!(config.nacks, "recovery requires the NACK control channel");
                dec = dec.with_recovery(true);
            }
            if config.telemetry {
                enc.set_telemetry_enabled(true);
                dec.set_telemetry_enabled(true);
            }
            (sim.add_node(enc), sim.add_node(dec))
        }
        None => (sim.add_node(PassThrough), sim.add_node(PassThrough)),
    };

    // Links. Clean LAN hops at both ends; the constrained wireless
    // segment in the middle. Loss/corruption/reordering apply to the
    // data direction only (the paper's downlink).
    let lan = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(500),
        channel: ChannelConfig::clean(),
    };
    sim.add_duplex_link(server, enc_gw, lan.clone());
    sim.add_duplex_link(dec_gw, client, lan);
    let data_link = LinkConfig {
        rate_bytes_per_sec: Some(config.wireless_rate),
        propagation: config.wireless_propagation,
        channel: config.data_channel(),
    };
    let control_link = LinkConfig {
        rate_bytes_per_sec: Some(config.wireless_rate),
        propagation: config.wireless_propagation,
        channel: config.control_channel(),
    };
    let (wireless_data, nc_nodes) = match &config.nc {
        None => {
            let wireless_data = sim.add_link(enc_gw, dec_gw, data_link);
            sim.add_link(dec_gw, enc_gw, control_link);

            // Routes (static IP forwarding tables).
            sim.add_route(server, CLIENT, enc_gw);
            sim.add_route(enc_gw, CLIENT, dec_gw);
            sim.add_route(dec_gw, CLIENT, client);
            sim.add_route(client, SERVER, dec_gw);
            sim.add_route(dec_gw, SERVER, enc_gw);
            sim.add_route(enc_gw, SERVER, server);
            // NACK control path: decoder gateway → encoder gateway.
            sim.add_route(dec_gw, ENCODER_GW, enc_gw);
            (wireless_data, None)
        }
        Some(tuning) => {
            // Bracket the lossy hop with the coder pair: the repair
            // frames ride the same constrained link as the data, and
            // the gateways on either side see a cleaner channel.
            let nc_cfg = |src| NcConfig {
                data_dst: CLIENT,
                feedback_dst: SERVER,
                src,
                tuning: tuning.clone(),
            };
            let nc_enc = sim.add_node(NcEncoderNode::new(nc_cfg(NC_ENC)));
            let nc_dec = sim.add_node(NcDecoderNode::new(nc_cfg(NC_DEC)));
            // Near-zero-cost hops into the coder nodes (1 µs: recorded
            // outputs are pinned on this value).
            let hop = LinkConfig {
                rate_bytes_per_sec: None,
                propagation: SimDuration::from_micros(1),
                channel: ChannelConfig::clean(),
            };
            sim.add_duplex_link(enc_gw, nc_enc, hop.clone());
            sim.add_duplex_link(nc_dec, dec_gw, hop);
            let wireless_data = sim.add_link(nc_enc, nc_dec, data_link);
            sim.add_link(nc_dec, nc_enc, control_link);

            sim.add_route(server, CLIENT, enc_gw);
            sim.add_route(enc_gw, CLIENT, nc_enc);
            sim.add_route(nc_enc, CLIENT, nc_dec);
            sim.add_route(nc_dec, CLIENT, dec_gw);
            sim.add_route(dec_gw, CLIENT, client);
            sim.add_route(client, SERVER, dec_gw);
            sim.add_route(dec_gw, SERVER, nc_dec);
            sim.add_route(nc_dec, SERVER, nc_enc);
            sim.add_route(nc_enc, SERVER, enc_gw);
            sim.add_route(enc_gw, SERVER, server);
            // NACK control path: decoder gateway → encoder gateway.
            sim.add_route(dec_gw, ENCODER_GW, nc_dec);
            sim.add_route(nc_dec, ENCODER_GW, nc_enc);
            sim.add_route(nc_enc, ENCODER_GW, enc_gw);
            (wireless_data, Some((nc_enc, nc_dec)))
        }
    };

    let end_time = match (config.wipe_at, config.policy.is_some()) {
        (Some(at), true) => {
            // Run to the wipe instant, kill the decoder's cache (a
            // restart), then let the transfer and any recovery play out.
            sim.run_until(SimTime::from_micros(at.as_micros()));
            sim.node_mut::<DecoderGateway>(dec_gw)
                .expect("decoder gw")
                .wipe_cache();
            sim.run_until_idle()
        }
        _ => sim.run_until_idle(),
    };

    let client_node = sim.node::<TcpClientNode>(client).expect("client");
    let server_node = sim.node::<TcpServerNode>(server).expect("server");
    let received = client_node.received();
    let data_intact = if client_node.report().complete {
        received == &config.object[..]
    } else {
        config.object.starts_with(received)
    };
    let (encoder, decoder, undecodable, recovery_requests, resyncs_sent) = match config.policy {
        Some(_) => {
            let e = sim.node::<EncoderGateway>(enc_gw).expect("encoder gw");
            let d = sim.node::<DecoderGateway>(dec_gw).expect("decoder gw");
            (
                Some(e.encoder().stats().clone()),
                Some(d.decoder().stats().clone()),
                d.dropped(),
                d.recovery_requests(),
                d.resyncs_sent(),
            )
        }
        None => (None, None, 0, 0, 0),
    };

    let (nc_encoder, nc_decoder) = match nc_nodes {
        Some((a, b)) => (
            Some(
                sim.node::<NcEncoderNode>(a)
                    .expect("nc encoder")
                    .stats()
                    .clone(),
            ),
            Some(
                sim.node::<NcDecoderNode>(b)
                    .expect("nc decoder")
                    .stats()
                    .clone(),
            ),
        ),
        None => (None, None),
    };

    let wireless = sim.link_stats(wireless_data).clone();
    let telemetry = if config.telemetry {
        let mut merged = sim
            .node::<TcpServerNode>(server)
            .expect("server")
            .telemetry_snapshot();
        if !merged.is_enabled() {
            merged = Recorder::enabled();
        }
        if config.policy.is_some() {
            let e = sim.node::<EncoderGateway>(enc_gw).expect("encoder gw");
            let d = sim.node::<DecoderGateway>(dec_gw).expect("decoder gw");
            merged.merge(&e.telemetry_snapshot());
            merged.merge(&d.telemetry_snapshot());
        }
        merged.merge(&sim.telemetry_snapshot());
        // The paper's headline per-flow measure: perceived loss (channel
        // losses + undecodable drops over packets offered) in basis
        // points, one sample per data-direction flow.
        let flow = FlowId {
            src: SERVER,
            src_port: SERVER_PORT,
            dst: CLIENT,
            dst_port: CLIENT_PORT,
        };
        let perceived = if wireless.packets_offered == 0 {
            0.0
        } else {
            let lost = wireless.packets_lost + wireless.packets_corrupted + undecodable;
            lost as f64 / wireless.packets_offered as f64
        };
        merged.record_l(
            "flow.perceived_loss_bp",
            Some(flow.stable_hash()),
            (perceived * 10_000.0).round() as u64,
        );
        merged.record(
            "flow.perceived_loss_bp",
            (perceived * 10_000.0).round() as u64,
        );
        Some(merged)
    } else {
        None
    };

    RunResult {
        client: client_node.report().clone(),
        server: server_node.report().clone(),
        encoder,
        decoder,
        undecodable_drops: undecodable,
        recovery_requests,
        resyncs_sent,
        wireless,
        end_time,
        data_intact,
        object_len,
        telemetry,
        nc_encoder,
        nc_decoder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecache_workload::FileSpec;

    #[test]
    fn nc_bracket_recovers_losses_and_delivers_intact() {
        // Bernoulli losses are isolated, so a single XOR repair per
        // block is enough and the decoder must win some recoveries.
        let object = FileSpec::File1.build(120_000, 3);
        let cfg = ScenarioConfig::new(object)
            .loss(0.08)
            .seed(11)
            .nc(NcTuning {
                initial_loss: 0.08,
                ..NcTuning::default()
            });
        let r = run_scenario(&cfg);
        assert!(r.completed(), "nc run must complete intact");
        let enc = r.nc_encoder.expect("nc encoder stats");
        let dec = r.nc_decoder.expect("nc decoder stats");
        assert!(enc.data_packets > 0 && enc.repairs_sent > 0);
        assert!(
            dec.recovered > 0,
            "an 8% Bernoulli channel must give the decoder repairs it wins: {dec:?}"
        );
        assert_eq!(dec.malformed_repairs, 0);
    }

    #[test]
    fn nc_none_leaves_result_fields_empty() {
        let object = FileSpec::File1.build(60_000, 2);
        let r = run_scenario(&ScenarioConfig::new(object));
        assert!(r.nc_encoder.is_none() && r.nc_decoder.is_none());
    }

    #[test]
    fn baseline_clean_run_completes_intact() {
        let object = FileSpec::File1.build(120_000, 1);
        let r = run_scenario(&ScenarioConfig::new(object));
        assert!(r.completed());
        assert!(r.data_intact);
        assert!(r.duration_secs().unwrap() > 0.1);
        assert_eq!(r.encoder, None);
        assert_eq!(r.perceived_loss(), 0.0);
    }

    #[test]
    fn dre_clean_run_is_intact_and_smaller_on_the_wire() {
        let object = FileSpec::File1.build(120_000, 1);
        let base = run_scenario(&ScenarioConfig::new(object.clone()));
        let dre = run_scenario(&ScenarioConfig::new(object).policy(PolicyKind::Naive));
        assert!(dre.completed());
        assert!(dre.data_intact, "DRE must be transparent");
        assert!(
            dre.wire_bytes() < base.wire_bytes() * 8 / 10,
            "expected >20% byte savings: {} vs {}",
            dre.wire_bytes(),
            base.wire_bytes()
        );
        assert!(dre.duration_secs().unwrap() < base.duration_secs().unwrap());
    }

    #[test]
    fn lossy_dre_with_cache_flush_completes_intact() {
        let object = FileSpec::File1.build(120_000, 2);
        let r = run_scenario(
            &ScenarioConfig::new(object)
                .policy(PolicyKind::CacheFlush)
                .loss(0.03)
                .seed(5),
        );
        assert!(r.completed(), "cache-flush must survive loss: {r:?}");
        assert!(r.undecodable_drops > 0 || r.wireless.packets_lost > 0);
    }

    #[test]
    fn cache_wipe_under_loss_recovers_for_every_policy() {
        // The acceptance scenario for divergence recovery: wipe the
        // decoder cache mid-transfer on a 5 % lossy channel. With the
        // recovery protocol on, every policy must finish the transfer
        // with intact data (no corrupted deliveries, no permanent
        // stall) and must actually have exercised the resync path.
        let object = FileSpec::File1.build(150_000, 4);
        for kind in [
            PolicyKind::CacheFlush,
            PolicyKind::TcpSeq,
            PolicyKind::KDistance(8),
            PolicyKind::AckGated,
            PolicyKind::Adaptive,
            PolicyKind::Degrading,
        ] {
            let r = run_scenario(
                &ScenarioConfig::new(object.clone())
                    .policy(kind)
                    .loss(0.05)
                    .seed(11)
                    .recovery()
                    .wipe_at(SimDuration::from_millis(300)),
            );
            assert!(r.completed(), "{kind:?} did not complete: {r:?}");
            assert!(r.data_intact, "{kind:?} delivered corrupt data");
            let dec = r.decoder.as_ref().expect("decoder stats");
            assert_eq!(dec.wipes, 1, "{kind:?} wipe not injected");
            assert!(
                r.resyncs_sent + r.recovery_requests > 0,
                "{kind:?} never exercised recovery: {r:?}"
            );
        }
    }

    #[test]
    fn recovery_disabled_wipe_still_completes_via_nack_fallback() {
        // Without the protocol (V1 wire), a wipe falls back to the
        // legacy per-shim NACK behavior; cache-flush still finishes.
        let object = FileSpec::File1.build(150_000, 4);
        let r = run_scenario(
            &ScenarioConfig::new(object)
                .policy(PolicyKind::CacheFlush)
                .loss(0.05)
                .seed(11)
                .wipe_at(SimDuration::from_millis(300)),
        );
        assert!(r.completed(), "{r:?}");
        assert_eq!(r.resyncs_sent, 0);
        assert_eq!(r.recovery_requests, 0);
    }

    #[test]
    fn faulty_control_channel_does_not_stall_recovery() {
        // Drop and duplicate recovery/NACK control packets: retries with
        // backoff must still converge, and duplicated resync requests
        // must stay idempotent at the encoder (a single generation bump).
        let object = FileSpec::File1.build(150_000, 4);
        let r = run_scenario(
            &ScenarioConfig::new(object)
                .policy(PolicyKind::TcpSeq)
                .loss(0.05)
                .seed(13)
                .recovery()
                .nack_faults(0.3, 0.3)
                .wipe_at(SimDuration::from_millis(300)),
        );
        assert!(r.completed(), "{r:?}");
        assert!(r.data_intact);
        let enc = r.encoder.as_ref().expect("encoder stats");
        assert!(enc.resyncs <= 1, "duplicate resync bumped twice: {enc:?}");
    }

    #[test]
    fn naive_under_loss_stalls() {
        let object = FileSpec::File1.build(400_000, 3);
        let r = run_scenario(
            &ScenarioConfig::new(object)
                .policy(PolicyKind::Naive)
                .loss(0.01)
                .seed(7),
        );
        // The paper's headline correctness result: the transfer should
        // abort with only part of the object retrieved.
        assert!(!r.completed());
        assert!(r.server.aborted || r.client.aborted);
        assert!(r.fraction_retrieved() < 1.0);
        assert!(r.data_intact, "partial data must still be a clean prefix");
    }
}
