//! Gateway middlebox behaviour in small simulations: shim wrapping,
//! pass-through rules, NACK control traffic, and drop accounting.

use std::net::Ipv4Addr;

use bytecache::gateway::{DecoderGateway, EncoderGateway, CONTROL_PORT};
use bytecache::{wire, Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{Context, LinkConfig, Node, Simulator};
use bytecache_packet::{Packet, TcpFlags};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const ENC_GW: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const DEC_GW: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);

/// Emits a fixed list of packets at start, records everything received.
struct Script {
    to_send: Vec<Packet>,
    received: Vec<Packet>,
}

impl Script {
    fn new(to_send: Vec<Packet>) -> Self {
        Script {
            to_send,
            received: Vec::new(),
        }
    }
}

impl Node for Script {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for p in self.to_send.drain(..) {
            ctx.forward(p);
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let _ = ctx;
        self.received.push(packet);
    }
}

/// Holds its packets until a timer fires, then emits them all.
struct DelayedScript {
    at: SimDuration,
    to_send: Vec<Packet>,
}

impl Node for DelayedScript {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.at, 0);
    }
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        for p in self.to_send.drain(..) {
            ctx.forward(p);
        }
    }
}

fn data_packet(id: u16, seq: u32, payload: Vec<u8>) -> Packet {
    Packet::builder()
        .src(SERVER, 80)
        .dst(CLIENT, 4000)
        .ip_id(id)
        .seq(seq)
        .flags(TcpFlags::PSH)
        .payload(payload)
        .build()
}

/// Build sender → encoder → decoder → receiver with clean fast links.
/// Returns (sim, sender, receiver, encoder_gw, decoder_gw).
#[allow(clippy::type_complexity)]
fn chain(
    packets: Vec<Packet>,
    nacks: bool,
) -> (
    Simulator,
    bytecache_netsim::NodeId,
    bytecache_netsim::NodeId,
    bytecache_netsim::NodeId,
    bytecache_netsim::NodeId,
) {
    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(packets));
    let receiver = sim.add_node(Script::new(Vec::new()));
    let dre = DreConfig::default();
    let enc = sim.add_node(
        EncoderGateway::new(Encoder::new(dre.clone(), PolicyKind::Naive.build()), CLIENT)
            .with_control_addr(ENC_GW),
    );
    let mut dec_gw = DecoderGateway::new(Decoder::new(dre), CLIENT, DEC_GW);
    if nacks {
        dec_gw = dec_gw.with_nacks(ENC_GW);
    }
    let dec = sim.add_node(dec_gw);
    let link = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_millis(1),
        channel: Default::default(),
    };
    sim.add_duplex_link(sender, enc, link.clone());
    sim.add_duplex_link(enc, dec, link.clone());
    sim.add_duplex_link(dec, receiver, link);
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(enc, CLIENT, dec);
    sim.add_route(dec, CLIENT, receiver);
    sim.add_route(dec, ENC_GW, enc);
    (sim, sender, receiver, enc, dec)
}

#[test]
fn data_packets_arrive_with_original_payloads() {
    let payloads: Vec<Vec<u8>> = (0..5)
        .map(|i| {
            (0..1000u32)
                .map(|j| ((j * 31 + i * 7) % 251) as u8)
                .collect()
        })
        .collect();
    let packets: Vec<Packet> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| data_packet(i as u16, 1000 + (i as u32) * 1000, p.clone()))
        .collect();
    let (mut sim, _sender, receiver, _enc, _dec) = chain(packets, false);
    sim.run_until_idle();
    let rx = sim.node::<Script>(receiver).unwrap();
    assert_eq!(rx.received.len(), 5);
    for (i, pkt) in rx.received.iter().enumerate() {
        assert_eq!(&pkt.payload[..], &payloads[i][..], "payload {i} altered");
    }
}

#[test]
fn empty_payload_packets_pass_through_unwrapped() {
    let ack = Packet::builder()
        .src(SERVER, 80)
        .dst(CLIENT, 4000)
        .ack_num(5)
        .build();
    let (mut sim, _sender, receiver, _enc, _dec) = chain(vec![ack.clone()], false);
    sim.run_until_idle();
    let rx = sim.node::<Script>(receiver).unwrap();
    assert_eq!(rx.received.len(), 1);
    assert_eq!(rx.received[0], ack, "pure ACK must not be shim-wrapped");
}

#[test]
fn encoder_output_is_valid_shim() {
    // Capture what leaves the encoder by terminating the chain there.
    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![data_packet(1, 1000, vec![9u8; 500])]));
    let sink = sim.add_node(Script::new(Vec::new()));
    let enc = sim.add_node(EncoderGateway::new(
        Encoder::new(DreConfig::default(), PolicyKind::Naive.build()),
        CLIENT,
    ));
    let link = LinkConfig::default();
    sim.add_duplex_link(sender, enc, link.clone());
    sim.add_link(enc, sink, link);
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(enc, CLIENT, sink);
    sim.run_until_idle();
    let rx = sim.node::<Script>(sink).unwrap();
    assert_eq!(rx.received.len(), 1);
    let shim = wire::parse(&rx.received[0].payload).expect("valid shim payload");
    assert_eq!(shim.header.orig_len, 500);
    assert_eq!(shim.header.id, 0);
}

#[test]
fn undecodable_packets_are_dropped_and_counted() {
    // Two packets with identical content; drop the first before the
    // decoder sees it by routing it nowhere... simpler: encode both but
    // deliver only the second. We emulate the loss by sending packet 2
    // through a fresh decoder that never saw packet 1.
    let shared: Vec<u8> = (0..1200u32).map(|i| (i % 251) as u8).collect();
    let mut enc = Encoder::new(DreConfig::default(), PolicyKind::Naive.build());
    let meta1 = bytecache::PacketMeta {
        flow: data_packet(0, 0, vec![]).flow(),
        seq: bytecache_packet::SeqNum::new(1000),
        payload_len: shared.len(),
        flow_index: 0,
    };
    let _lost = enc.encode(&meta1, &bytes::Bytes::from(shared.clone()));
    let meta2 = bytecache::PacketMeta {
        seq: bytecache_packet::SeqNum::new(2200),
        ..meta1
    };
    let w2 = enc.encode(&meta2, &bytes::Bytes::from(shared.clone()));
    assert!(w2.matches > 0);

    // Feed only packet 2 through a decoder gateway.
    let mut sim = Simulator::new(1);
    let pkt = data_packet(2, 2200, w2.wire);
    let sender = sim.add_node(Script::new(vec![pkt]));
    let receiver = sim.add_node(Script::new(Vec::new()));
    let dec = sim.add_node(
        DecoderGateway::new(Decoder::new(DreConfig::default()), CLIENT, DEC_GW).with_nacks(ENC_GW),
    );
    let enc_sink = sim.add_node(Script::new(Vec::new()));
    sim.add_link(sender, dec, LinkConfig::default());
    sim.add_link(dec, receiver, LinkConfig::default());
    sim.add_link(dec, enc_sink, LinkConfig::default());
    sim.add_route(sender, CLIENT, dec);
    sim.add_route(dec, CLIENT, receiver);
    sim.add_route(dec, ENC_GW, enc_sink);
    sim.run_until_idle();

    assert!(sim.node::<Script>(receiver).unwrap().received.is_empty());
    let gw = sim.node::<DecoderGateway>(dec).unwrap();
    assert_eq!(gw.dropped(), 1);
    assert_eq!(gw.decoder().stats().missing_reference, 1);
    // A NACK was emitted toward the encoder gateway.
    let nacks = &sim.node::<Script>(enc_sink).unwrap().received;
    assert_eq!(gw.nacks_sent(), 1);
    assert_eq!(nacks.len(), 1);
    assert_eq!(nacks[0].tcp.dst_port, CONTROL_PORT);
    // It names both the id-gap (0..2) and the failed packet (2... id 1
    // was the second encode, so ids 0 and 1).
    assert!(nacks[0].payload.len() >= 4);
}

#[test]
fn nack_control_packets_mark_encoder_entries_dead() {
    let shared: Vec<u8> = (0..1200u32).map(|i| ((i * 13) % 251) as u8).collect();
    // Sender sends the data packet AND (separately) a NACK for id 0.
    // Control records are 6 bytes: reserved u16 BE (0) + shim id u32 BE.
    let data = data_packet(1, 1000, shared.clone());
    let mut record = 0u16.to_be_bytes().to_vec();
    record.extend_from_slice(&0u32.to_be_bytes());
    let nack = Packet::builder()
        .src(DEC_GW, CONTROL_PORT)
        .dst(ENC_GW, CONTROL_PORT)
        .flags(TcpFlags::PSH)
        .payload(record)
        .build();

    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![data, nack]));
    let sink = sim.add_node(Script::new(Vec::new()));
    let enc = sim.add_node(
        EncoderGateway::new(
            Encoder::new(DreConfig::default(), PolicyKind::Naive.build()),
            CLIENT,
        )
        .with_control_addr(ENC_GW),
    );
    sim.add_link(sender, enc, LinkConfig::default());
    sim.add_link(enc, sink, LinkConfig::default());
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(sender, ENC_GW, enc);
    sim.add_route(enc, CLIENT, sink);
    sim.run_until_idle();

    let gw = sim.node::<EncoderGateway>(enc).unwrap();
    assert_eq!(gw.nacks_received(), 1);
    assert!(gw.encoder().cache().is_dead(bytecache::PacketId(0)));
    // The control packet was consumed, not forwarded.
    assert_eq!(sim.node::<Script>(sink).unwrap().received.len(), 1);
}

#[test]
fn truncated_nack_payload_is_counted_but_whole_records_still_apply() {
    // Regression: a control payload whose length is not a multiple of
    // the 6-byte record size used to have its trailing bytes silently
    // discarded by `chunks_exact`. The gateway must now count the
    // malformed payload while still honoring the complete records.
    let shared: Vec<u8> = (0..1200u32).map(|i| ((i * 13) % 251) as u8).collect();
    let data = data_packet(1, 1000, shared.clone());
    // One complete record for id 0, then a 3-byte truncated tail.
    let mut payload = 0u16.to_be_bytes().to_vec();
    payload.extend_from_slice(&0u32.to_be_bytes());
    payload.extend_from_slice(&[0x00, 0x00, 0x01]);
    let nack = Packet::builder()
        .src(DEC_GW, CONTROL_PORT)
        .dst(ENC_GW, CONTROL_PORT)
        .flags(TcpFlags::PSH)
        .payload(payload)
        .build();

    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![data, nack]));
    let sink = sim.add_node(Script::new(Vec::new()));
    let enc = sim.add_node(
        EncoderGateway::new(
            Encoder::new(DreConfig::default(), PolicyKind::Naive.build()),
            CLIENT,
        )
        .with_control_addr(ENC_GW),
    );
    sim.add_link(sender, enc, LinkConfig::default());
    sim.add_link(enc, sink, LinkConfig::default());
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(sender, ENC_GW, enc);
    sim.add_route(enc, CLIENT, sink);
    sim.run_until_idle();

    let gw = sim.node::<EncoderGateway>(enc).unwrap();
    assert_eq!(gw.nacks_malformed(), 1, "truncated tail must be counted");
    assert_eq!(gw.nacks_received(), 1, "the complete record still applies");
    assert!(gw.encoder().cache().is_dead(bytecache::PacketId(0)));
}

#[test]
fn garbage_control_payload_is_rejected_whole() {
    // A structured-message-sized payload with an unknown kind byte must
    // not be interpreted as NACK records.
    let shared: Vec<u8> = (0..1200u32).map(|i| ((i * 13) % 251) as u8).collect();
    let data = data_packet(1, 1000, shared);
    let mut payload = vec![0xBD, 0x7F]; // control magic, unknown kind
    payload.extend_from_slice(&0u16.to_be_bytes());
    payload.extend_from_slice(&0u32.to_be_bytes());
    let junk = Packet::builder()
        .src(DEC_GW, CONTROL_PORT)
        .dst(ENC_GW, CONTROL_PORT)
        .flags(TcpFlags::PSH)
        .payload(payload)
        .build();

    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![data, junk]));
    let sink = sim.add_node(Script::new(Vec::new()));
    let enc = sim.add_node(
        EncoderGateway::new(
            Encoder::new(DreConfig::default(), PolicyKind::Naive.build()),
            CLIENT,
        )
        .with_control_addr(ENC_GW),
    );
    sim.add_link(sender, enc, LinkConfig::default());
    sim.add_link(enc, sink, LinkConfig::default());
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(sender, ENC_GW, enc);
    sim.add_route(enc, CLIENT, sink);
    sim.run_until_idle();

    let gw = sim.node::<EncoderGateway>(enc).unwrap();
    assert_eq!(gw.nacks_malformed(), 1);
    assert_eq!(gw.nacks_received(), 0);
    assert!(!gw.encoder().cache().is_dead(bytecache::PacketId(0)));
}

#[test]
fn wiped_decoder_resyncs_over_the_control_channel() {
    // End-to-end recovery: gen-stamped encoder + recovery-enabled
    // decoder; wipe the decoder cache mid-stream and verify the resync
    // handshake converges without a per-shim NACK storm.
    // Packets 2 and 3 repeat the payloads of 0 and 1, so the encoder is
    // guaranteed to emit them as encoded shims referencing pre-wipe
    // entries; packet 4's payload is unmatchable.
    let mut payloads: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            (0..1000u32)
                .map(|j| ((j * 31 + i * 101) % 251) as u8)
                .collect()
        })
        .collect();
    payloads.push(payloads[0].clone());
    payloads.push(payloads[1].clone());
    payloads.push((0..1000u32).map(|j| ((j * 173 + 7) % 193) as u8).collect());
    let batch = |range: std::ops::Range<usize>| -> Vec<Packet> {
        payloads[range.clone()]
            .iter()
            .zip(range)
            .map(|(p, i)| data_packet(i as u16, 1000 + (i as u32) * 1000, p.clone()))
            .collect()
    };

    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(batch(0..2)));
    // Second batch fires well after the wipe: its stale-generation shims
    // trigger the resync request. The third batch arrives after the
    // encoder has bumped its generation, completing the handshake.
    let late = sim.add_node(DelayedScript {
        at: SimDuration::from_millis(500),
        to_send: batch(2..4),
    });
    let later = sim.add_node(DelayedScript {
        at: SimDuration::from_millis(900),
        to_send: batch(4..5),
    });
    let receiver = sim.add_node(Script::new(Vec::new()));
    let dre = DreConfig::default();
    let enc = sim.add_node(
        EncoderGateway::new(Encoder::new(dre.clone(), PolicyKind::Naive.build()), CLIENT)
            .with_control_addr(ENC_GW)
            .with_wire_gen(true),
    );
    let dec = sim.add_node(
        DecoderGateway::new(Decoder::new(dre), CLIENT, DEC_GW)
            .with_nacks(ENC_GW)
            .with_recovery(true),
    );
    let link = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_millis(1),
        channel: Default::default(),
    };
    sim.add_duplex_link(sender, enc, link.clone());
    sim.add_duplex_link(late, enc, link.clone());
    sim.add_duplex_link(later, enc, link.clone());
    sim.add_duplex_link(enc, dec, link.clone());
    sim.add_duplex_link(dec, receiver, link);
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(late, CLIENT, enc);
    sim.add_route(later, CLIENT, enc);
    sim.add_route(enc, CLIENT, dec);
    sim.add_route(dec, CLIENT, receiver);
    sim.add_route(dec, ENC_GW, enc);

    // Run past the first batch, wipe the decoder, then let the delayed
    // batch and the recovery handshake play out.
    sim.run_until(bytecache_netsim::time::SimTime::from_micros(100_000));
    sim.node_mut::<DecoderGateway>(dec).unwrap().wipe_cache();
    sim.run_until_idle();

    let dec_gw = sim.node::<DecoderGateway>(dec).unwrap();
    assert!(dec_gw.resyncs_sent() >= 1, "resync request was sent");
    assert_eq!(dec_gw.decoder().stats().wipes, 1);
    assert_eq!(dec_gw.decoder().stats().resyncs, 1, "generation adopted");
    let enc_gw = sim.node::<EncoderGateway>(enc).unwrap();
    assert_eq!(enc_gw.encoder().stats().resyncs, 1, "encoder bumped gen");
    // The stale-generation shims (packets 2, 3) were dropped *silently* —
    // no per-shim NACK storm; TCP retransmission is their backstop.
    assert_eq!(dec_gw.decoder().stats().stale_gen, 2);
    assert_eq!(dec_gw.nacks_sent(), 0, "resync suppressed the NACK storm");
    // Deliveries: the two pre-wipe packets and the post-handshake one.
    let rx = sim.node::<Script>(receiver).unwrap();
    let delivered: Vec<&[u8]> = rx.received.iter().map(|p| &p.payload[..]).collect();
    assert_eq!(
        delivered,
        vec![&payloads[0][..], &payloads[1][..], &payloads[4][..]]
    );
}

#[test]
fn multi_destination_gateways_serve_two_clients() {
    let other_client = Ipv4Addr::new(10, 0, 0, 6);
    let shared: Vec<u8> = (0..1000u32).map(|i| ((i * 7) % 251) as u8).collect();
    let p1 = data_packet(1, 1000, shared.clone());
    let p2 = Packet::builder()
        .src(SERVER, 80)
        .dst(other_client, 4000)
        .ip_id(2)
        .seq(5000)
        .flags(TcpFlags::PSH)
        .payload(shared.clone())
        .build();

    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![p1, p2]));
    let rx1 = sim.add_node(Script::new(Vec::new()));
    let rx2 = sim.add_node(Script::new(Vec::new()));
    let dre = DreConfig::default();
    let enc = sim.add_node(EncoderGateway::for_destinations(
        Encoder::new(dre.clone(), PolicyKind::Naive.build()),
        [CLIENT, other_client],
    ));
    let dec = sim.add_node(DecoderGateway::for_destinations(
        Decoder::new(dre),
        [CLIENT, other_client],
        DEC_GW,
    ));
    sim.add_link(sender, enc, LinkConfig::default());
    sim.add_link(enc, dec, LinkConfig::default());
    sim.add_link(dec, rx1, LinkConfig::default());
    sim.add_link(dec, rx2, LinkConfig::default());
    sim.add_route(sender, CLIENT, enc);
    sim.add_route(sender, other_client, enc);
    sim.add_route(enc, CLIENT, dec);
    sim.add_route(enc, other_client, dec);
    sim.add_route(dec, CLIENT, rx1);
    sim.add_route(dec, other_client, rx2);
    sim.run_until_idle();

    // Both clients got the exact payload...
    assert_eq!(
        &sim.node::<Script>(rx1).unwrap().received[0].payload[..],
        &shared[..]
    );
    assert_eq!(
        &sim.node::<Script>(rx2).unwrap().received[0].payload[..],
        &shared[..]
    );
    // ...and the second flow's packet was compressed against the first
    // flow's (inter-flow DRE through the shared cache).
    let stats = sim
        .node::<EncoderGateway>(enc)
        .unwrap()
        .encoder()
        .stats()
        .clone();
    assert_eq!(stats.packets, 2);
    assert!(
        stats.matched_bytes as usize >= shared.len() / 2,
        "{stats:?}"
    );
}

#[test]
fn gateways_built_from_the_same_destinations_format_identically() {
    // The destination sets hash without a per-instance key, so two
    // gateways built from one list hold (and print) their sets alike.
    let dsts: Vec<Ipv4Addr> = (0..64u8).map(|i| Ipv4Addr::new(40, 0, i, 2)).collect();
    let dre = DreConfig::default();
    let encoder = || {
        EncoderGateway::for_destinations(
            Encoder::new(dre.clone(), PolicyKind::TcpSeq.build()),
            dsts.iter().copied(),
        )
    };
    let decoder = || {
        DecoderGateway::for_destinations(Decoder::new(dre.clone()), dsts.iter().copied(), DEC_GW)
    };
    assert_eq!(format!("{:?}", encoder()), format!("{:?}", encoder()));
    assert_eq!(format!("{:?}", decoder()), format!("{:?}", decoder()));
}

/// 1200 bytes of content that no other seed's content matches.
fn content(seed: u32) -> Vec<u8> {
    (0..1200u32)
        .map(|i| ((i.wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(0x9E37_79B9)) >> 13) as u8)
        .collect()
}

/// A control packet from the decoder gateway to the encoder gateway.
fn control(payload: Vec<u8>) -> Packet {
    Packet::builder()
        .src(DEC_GW, CONTROL_PORT)
        .dst(ENC_GW, CONTROL_PORT)
        .flags(TcpFlags::PSH)
        .payload(payload)
        .build()
}

/// One 6-byte NACK record per id, reserved field 0.
fn nack_payload(ids: &[u32]) -> Vec<u8> {
    ids.iter()
        .flat_map(|id| [[0, 0].as_slice(), &id.to_be_bytes()].concat())
        .collect()
}

fn control_encoder() -> EncoderGateway {
    EncoderGateway::new(
        Encoder::new(DreConfig::default(), PolicyKind::Naive.build()),
        CLIENT,
    )
    .with_control_addr(ENC_GW)
}

#[test]
fn batches_run_in_input_order() {
    // Id 0 caches content(0). The next batch repeats that content, then
    // NACKs id 0, then sends fresh data, an ACK from the client and the
    // content once more. In input order the repeat still encodes
    // against id 0; applying the NACK first would send it raw.
    let ack = Packet::builder()
        .src(CLIENT, 4000)
        .dst(SERVER, 80)
        .ack_num(2200)
        .flags(TcpFlags::ACK)
        .build();
    let first = vec![data_packet(0, 1000, content(0))];
    let mixed = vec![
        data_packet(1, 2200, content(0)),
        control(nack_payload(&[0])),
        data_packet(2, 3400, content(1)),
        ack,
        data_packet(3, 4600, content(0)),
    ];

    let mut batched = control_encoder();
    let mut alone = control_encoder();
    let mut encoded = batched.process_batch(first.clone());
    encoded.extend(batched.process_batch(mixed.clone()));
    let one_at_a_time: Vec<Packet> = first
        .into_iter()
        .chain(mixed)
        .flat_map(|p| alone.process_batch(vec![p]))
        .collect();
    assert_eq!(encoded, one_at_a_time);
    assert_eq!(batched.stats(), alone.stats());
    assert!(
        encoded[1].payload.len() < 600,
        "the repeat must encode against id 0 before the NACK kills it"
    );
    assert!(batched.encoder().cache().is_dead(bytecache::PacketId(0)));

    // The decoder side, with id 1 lost on the way: its NACK comes back
    // just before the packet whose decode produced it.
    let make_decoder = || {
        DecoderGateway::new(Decoder::new(DreConfig::default()), CLIENT, DEC_GW).with_nacks(ENC_GW)
    };
    let arriving: Vec<Packet> = encoded
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| (i != 1).then_some(p))
        .collect();
    let mut batched = make_decoder();
    let mut alone = make_decoder();
    let decoded = batched.process_batch(arriving.clone());
    let one_at_a_time: Vec<Packet> = arriving
        .into_iter()
        .flat_map(|p| alone.process_batch(vec![p]))
        .collect();
    assert_eq!(decoded, one_at_a_time);
    assert_eq!(batched.stats(), alone.stats());
    assert!(batched.nacks_sent() > 0, "the lost id is reported");
}

/// What one control payload did to an encoder gateway holding ids 0..8.
#[derive(Debug, PartialEq, Eq)]
struct ControlEffect {
    malformed: u64,
    received: u64,
    repairs: u64,
    flushes: u64,
    dead: Vec<bool>,
    sent: usize,
}

const PRIMED_IDS: u32 = 8;

fn effect_of(payload: &[u8]) -> ControlEffect {
    let mut gw = control_encoder();
    let data = (0..PRIMED_IDS)
        .map(|i| data_packet(i as u16, 1000 + i * 1200, content(100 + i)))
        .collect();
    gw.process_batch(data);
    let sent = gw.process_batch(vec![control(payload.to_vec())]).len();
    ControlEffect {
        malformed: gw.nacks_malformed(),
        received: gw.nacks_received(),
        repairs: gw.repairs_sent(),
        flushes: gw.encoder().cache().stats().flushes,
        dead: (0..PRIMED_IDS)
            .map(|id| {
                gw.encoder()
                    .cache()
                    .is_dead(bytecache::PacketId(u64::from(id)))
            })
            .collect(),
        sent,
    }
}

/// The framing rules of the control channel, written out independently
/// of the gateway: what `payload` must do to a gateway holding ids
/// 0..8, none dead, at cache generation 0.
fn framing_rules(payload: &[u8]) -> ControlEffect {
    let mut e = ControlEffect {
        malformed: 0,
        received: 0,
        repairs: 0,
        flushes: 0,
        dead: vec![false; PRIMED_IDS as usize],
        sent: 0,
    };
    let word = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
    if payload.first() == Some(&0xBD) {
        if payload.len() != 8 || !matches!(payload[1], 1 | 2) {
            e.malformed = 1;
            return e;
        }
        let value = word(&payload[4..8]);
        let reserved_clear = payload[2..4] == [0, 0];
        if payload[1] == 1 && reserved_clear && value == 0 {
            e.flushes = 1; // the flush empties the cache: nothing is dead
        }
        if payload[1] == 2 && reserved_clear && value < PRIMED_IDS {
            e.repairs = 1;
            e.sent = 1;
            e.dead[value as usize] = true;
        }
        return e;
    }
    e.malformed = u64::from(!payload.len().is_multiple_of(6));
    e.received = u64::from(payload.len() >= 6);
    for record in payload.chunks_exact(6) {
        let id = word(&record[2..6]);
        if record[..2] == [0, 0] && id < PRIMED_IDS {
            e.dead[id as usize] = true;
        }
    }
    e
}

#[test]
fn hostile_control_payloads_follow_the_framing_rules() {
    let valid = [
        nack_payload(&[1, 3, 5]),
        vec![0xBD, 0x01, 0, 0, 0, 0, 0, 0], // resync away from generation 0
        vec![0xBD, 0x02, 0, 0, 0, 0, 0, 3], // recover id 3
    ];
    for payload in &valid {
        let mut variants: Vec<Vec<u8>> =
            (0..=payload.len()).map(|n| payload[..n].to_vec()).collect();
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[at] ^= 1 << bit;
                variants.push(flipped);
            }
        }
        for variant in variants {
            assert_eq!(
                effect_of(&variant),
                framing_rules(&variant),
                "payload {variant:02x?}"
            );
        }
    }
    // The valid payloads themselves do what they say.
    let nack = effect_of(&valid[0]);
    assert_eq!(
        nack.dead,
        [false, true, false, true, false, true, false, false]
    );
    assert_eq!((nack.received, nack.malformed), (1, 0));
    assert_eq!(effect_of(&valid[1]).flushes, 1);
    assert_eq!(effect_of(&valid[2]).repairs, 1);
    // A nonzero reserved field silences a record or message whole.
    let mut fenced = valid[0].clone();
    fenced[6] = 0x01;
    assert_eq!(
        effect_of(&fenced).dead,
        [false, true, false, false, false, true, false, false]
    );
    for message in &valid[1..] {
        let mut fenced = message.clone();
        fenced[3] = 0x01;
        let e = effect_of(&fenced);
        assert_eq!((e.flushes, e.repairs, e.malformed), (0, 0, 0));
        assert!(e.dead.iter().all(|d| !d));
    }
}

#[test]
fn decoder_gateway_control_packets_are_pinned_to_the_byte() {
    // NACK: ids 0 and 1 (id 0 lost, id 1 referencing it), as the decoder
    // gateway builds it in answer to an undecodable packet.
    let shared: Vec<u8> = (0..1200u32).map(|i| (i % 251) as u8).collect();
    let mut enc = Encoder::new(DreConfig::default(), PolicyKind::Naive.build());
    let meta = |seq| bytecache::PacketMeta {
        flow: data_packet(0, 0, vec![]).flow(),
        seq: bytecache_packet::SeqNum::new(seq),
        payload_len: shared.len(),
        flow_index: 0,
    };
    let _lost = enc.encode(&meta(1000), &bytes::Bytes::from(shared.clone()));
    let w = enc.encode(&meta(2200), &bytes::Bytes::from(shared.clone()));
    let mut dec =
        DecoderGateway::new(Decoder::new(DreConfig::default()), CLIENT, DEC_GW).with_nacks(ENC_GW);
    let out = dec.process_batch(vec![data_packet(2, 2200, w.wire)]);
    assert_eq!(out.len(), 1, "the undecodable packet is dropped");
    #[rustfmt::skip]
    let nack: [u8; 52] = [
        0x45, 0x00, 0x00, 0x34, 0x00, 0x01, 0x40, 0x00, 0x40, 0x06, 0x26, 0xbd, // IPv4
        0x0a, 0x00, 0x00, 0x04, 0x0a, 0x00, 0x00, 0x03,
        0x1e, 0x61, 0x1e, 0x61, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // TCP
        0x50, 0x08, 0xff, 0xff, 0x5f, 0x07, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // reserved 0, id 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // reserved 0, id 1
    ];
    assert_eq!(out[0].to_bytes(), nack);

    // Resync request: a wiped decoder meets a generation-1 shim.
    let mut enc = Encoder::new(DreConfig::default(), PolicyKind::Naive.build()).with_wire_gen(true);
    assert!(enc.resync(0));
    let w = enc.encode(&meta(1000), &bytes::Bytes::from(shared.clone()));
    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Script::new(vec![data_packet(1, 1000, w.wire)]));
    let receiver = sim.add_node(Script::new(Vec::new()));
    let mut gw = DecoderGateway::new(Decoder::new(DreConfig::default()), CLIENT, DEC_GW)
        .with_nacks(ENC_GW)
        .with_recovery(true);
    gw.wipe_cache();
    let dec = sim.add_node(gw);
    let enc_sink = sim.add_node(Script::new(Vec::new()));
    sim.add_link(sender, dec, LinkConfig::default());
    sim.add_link(dec, receiver, LinkConfig::default());
    sim.add_link(dec, enc_sink, LinkConfig::default());
    sim.add_route(sender, CLIENT, dec);
    sim.add_route(dec, CLIENT, receiver);
    sim.add_route(dec, ENC_GW, enc_sink);
    // Before the first retry timer fires.
    sim.run_until(bytecache_netsim::time::SimTime::from_micros(50_000));
    let resync = &sim.node::<Script>(enc_sink).unwrap().received;
    assert_eq!(resync.len(), 1);
    #[rustfmt::skip]
    let message: [u8; 48] = [
        0x45, 0x00, 0x00, 0x30, 0x00, 0x01, 0x40, 0x00, 0x40, 0x06, 0x26, 0xc1, // IPv4
        0x0a, 0x00, 0x00, 0x04, 0x0a, 0x00, 0x00, 0x03,
        0x1e, 0x61, 0x1e, 0x61, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // TCP
        0x50, 0x08, 0xff, 0xff, 0xa2, 0x09, 0x00, 0x00,
        0xbd, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // resync, reserved 0, gen 1
    ];
    assert_eq!(resync[0].to_bytes(), message);
}
