//! `gw_web_1400` and `gw_fresh_256`: the gateway pair with no simulator.
//!
//! One thread drives a closed loop: build a batch of packets, encode
//! them, serialize every packet to wire bytes, parse them back (checksums
//! verified), decode, and compare every delivered payload with the bytes
//! it was cut from. The corpus is at least twice the cache and is
//! re-walked under fresh flow ports, so by the time a byte comes round
//! again its previous copy has been evicted: no pass ever matches itself
//! and the hit rate is the content's own.

use std::net::Ipv4Addr;
use std::time::Instant;

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_packet::{Packet, TcpFlags};
use bytecache_workload::{generate, FileSpec, ObjectKind};
use bytes::Bytes;

use crate::counts::LayerCounts;
use crate::mix;
use crate::trace::Tracer;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_PORT: u16 = 80;
const DECODER_GW: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
/// Port the warm-up pass uses; each later pass takes the next one.
const FIRST_CLIENT_PORT: u32 = 1024;

/// What the flows carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// Paper-calibrated redundant streams (`FileSpec::File1`, about 45 %
    /// copied bytes): the DRE read path does most of the work.
    Web,
    /// Incompressible bytes (`ObjectKind::Video`): every packet is a
    /// cache write and no lookup hits.
    Fresh,
}

/// Size of a gateway workload.
#[derive(Debug, Clone)]
pub struct GwParams {
    /// Flow content.
    pub content: Content,
    /// Payload bytes per packet.
    pub segment: usize,
    /// Interleaved flows.
    pub flows: usize,
    /// Packets per `process_batch` call.
    pub batch: usize,
    /// Cache byte budget of both gateways; the corpus is at least twice it.
    pub cache_bytes: usize,
    /// Laps (passes over the corpus) in the timed section.
    pub laps: usize,
}

impl GwParams {
    /// The DRE configuration both gateways run: the product's defaults
    /// at this workload's cache size.
    #[must_use]
    pub fn dre(&self) -> DreConfig {
        DreConfig {
            cache_bytes: self.cache_bytes,
            ..DreConfig::default()
        }
    }
}

/// One packet of a pass: which flow, and where in its stream.
#[derive(Debug, Clone, Copy)]
struct Seg {
    flow: u16,
    off: u32,
    len: u16,
}

fn client_addr(flow: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, (flow >> 8) as u8, flow as u8)
}

/// The generated input: one byte stream per flow and the round-robin
/// order their segments are offered in.
#[derive(Debug)]
pub struct Corpus {
    streams: Vec<Bytes>,
    order: Vec<Seg>,
}

impl Corpus {
    /// Generate `flows` streams from `seed` (a distinct seed per flow).
    /// Every stream is at least `2 * cache_bytes / flows` long plus an
    /// extra of up to a sixteenth, so flows end at different times and
    /// with partial segments, as real ones do. The lengths are the same
    /// for every seed (only the content differs), so packets per pass and
    /// the memory high-water mark do not vary with it.
    #[must_use]
    pub fn generate(params: &GwParams, seed: u64) -> Self {
        let nominal = (2 * params.cache_bytes).div_ceil(params.flows);
        let streams: Vec<Bytes> = (0..params.flows)
            .map(|f| {
                let len = nominal + (mix(0xC0_4B05, f as u64) % (nominal as u64 / 16 + 1)) as usize;
                let flow_seed = mix(seed, 1 + f as u64);
                Bytes::from(match params.content {
                    Content::Web => FileSpec::File1.build(len, flow_seed),
                    Content::Fresh => generate(ObjectKind::Video, len, flow_seed),
                })
            })
            .collect();
        let mut order = Vec::new();
        let mut offs = vec![0usize; streams.len()];
        let mut live = streams.len();
        while live > 0 {
            live = 0;
            for (f, stream) in streams.iter().enumerate() {
                let off = offs[f];
                if off < stream.len() {
                    let len = params.segment.min(stream.len() - off);
                    order.push(Seg {
                        flow: f as u16,
                        off: off as u32,
                        len: len as u16,
                    });
                    offs[f] = off + len;
                    live += 1;
                }
            }
        }
        Corpus { streams, order }
    }

    /// Packets in one pass over the corpus.
    #[must_use]
    pub fn packets_per_pass(&self) -> usize {
        self.order.len()
    }

    /// Payload bytes in one pass over the corpus.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Flows in the corpus.
    #[must_use]
    pub fn flows(&self) -> usize {
        self.streams.len()
    }

    fn range(seg: Seg) -> std::ops::Range<usize> {
        seg.off as usize..seg.off as usize + seg.len as usize
    }

    /// The bytes `seg` was cut from, for the verify step.
    fn original(&self, seg: Seg) -> &[u8] {
        &self.streams[seg.flow as usize][Self::range(seg)]
    }

    /// The `index`-th packet ever offered (pass `index / packets_per_pass`).
    /// Each pass uses a fresh client port, so its flows are new to the
    /// gateways, and sequence numbers rise along every flow, so the
    /// flush-on-retransmission policy never sees one fall.
    fn packet(&self, index: usize) -> (Seg, Packet) {
        let seg = self.order[index % self.order.len()];
        let pass = (index / self.order.len()) as u32;
        let port = u16::try_from(FIRST_CLIENT_PORT + pass).expect("pass count fits the port space");
        let packet = Packet::builder()
            .src(SERVER, SERVER_PORT)
            .dst(client_addr(seg.flow), port)
            .seq(seg.off + 1)
            .ip_id(index as u16)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(self.streams[seg.flow as usize].slice(Self::range(seg)))
            .build();
        (seg, packet)
    }

    /// One pass as the packet stream the encoder gateway sees at ingress —
    /// the recorded input of the layer replays. `pass` only picks the
    /// port, so any value no gateway has seen is "fresh".
    #[must_use]
    pub fn ingress_stream(&self, pass: usize) -> Vec<Packet> {
        let base = pass * self.order.len();
        (base..base + self.order.len())
            .map(|i| self.packet(i).1)
            .collect()
    }
}

/// What one stretch of the loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Host wall seconds of the stretch.
    pub wall_s: f64,
    /// Packets offered.
    pub attempted: u64,
    /// Packets not delivered byte-identical.
    pub failed: u64,
    /// Payload bytes delivered byte-identical.
    pub payload_ok: u64,
    /// Bytes offered to the encoder→decoder hop: IP and TCP headers, shim
    /// and body of every packet the encoder gateway emitted.
    pub air_bytes: u64,
    /// Packets offered to the hop.
    pub air_packets: u64,
}

impl LoopStats {
    /// Fold a later stretch into this one.
    pub fn add(&mut self, other: &LoopStats) {
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.payload_ok += other.payload_ok;
        self.air_bytes += other.air_bytes;
        self.air_packets += other.air_packets;
    }

    /// Bytes offered to the hop per payload byte delivered intact.
    #[must_use]
    pub fn air_byte_ratio(&self) -> f64 {
        if self.payload_ok == 0 {
            0.0
        } else {
            self.air_bytes as f64 / self.payload_ok as f64
        }
    }
}

/// Corpus plus a warmed gateway pair, ready for the timed loop.
#[derive(Debug)]
pub struct Pipeline {
    corpus: Corpus,
    enc: EncoderGateway,
    dec: DecoderGateway,
    /// Index of the next packet to offer.
    next: usize,
    batch: usize,
    /// Serialization buffers, one per batch slot, reused across batches.
    wires: Vec<Vec<u8>>,
}

impl Pipeline {
    /// Everything before the timed section: generate the corpus, build
    /// both gateways with the product's default builders, and run one
    /// untimed pass so both caches are full.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up pass loses or corrupts a packet.
    #[must_use]
    pub fn setup(params: &GwParams, seed: u64) -> Self {
        let corpus = Corpus::generate(params, seed);
        let clients: Vec<Ipv4Addr> = (0..corpus.flows() as u16).map(client_addr).collect();
        let dre = params.dre();
        let enc = EncoderGateway::for_destinations(
            Encoder::new(dre.clone(), PolicyKind::CacheFlush.build()),
            clients.iter().copied(),
        );
        let dec = DecoderGateway::for_destinations(Decoder::new(dre), clients, DECODER_GW);
        let mut pipeline = Pipeline {
            corpus,
            enc,
            dec,
            next: 0,
            batch: params.batch,
            wires: vec![Vec::new(); params.batch],
        };
        let warm = pipeline.run(pipeline.lap_batches(), None);
        assert_eq!(warm.failed, 0, "warm-up pass lost or corrupted a packet");
        pipeline
    }

    /// The generated input.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Switch both gateways' telemetry recorders.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.enc.set_telemetry_enabled(enabled);
        self.dec.set_telemetry_enabled(enabled);
    }

    /// The gateways' counters since construction (warm-up included).
    #[must_use]
    pub fn counts(&self) -> LayerCounts {
        let mut c = LayerCounts::default();
        c.add_gateways(&self.enc, &self.dec);
        c
    }

    /// Batches in one lap of the timed section: one pass over the corpus.
    /// Cost per batch rises and falls with the position in the pass (the
    /// caches turn over once per pass), so laps of whole passes are the
    /// unit that repeats.
    #[must_use]
    pub fn lap_batches(&self) -> usize {
        self.corpus.packets_per_pass().div_ceil(self.batch)
    }

    /// Run `batches` batches of the closed loop. With a tracer, every
    /// pipeline call gets a boundary span under one `batch` span; the
    /// calls are sequential, so their sum is the budget.
    pub fn run(&mut self, batches: usize, mut tracer: Option<&mut Tracer>) -> LoopStats {
        let mut stats = LoopStats::default();
        let stamp = |t: &Option<&mut Tracer>| t.as_ref().map_or(0, |t| t.now_ns());
        let mut segs = Vec::with_capacity(self.batch);
        let started = Instant::now();
        for _ in 0..batches {
            let t0 = stamp(&tracer);
            segs.clear();
            let mut packets = Vec::with_capacity(self.batch);
            for i in self.next..self.next + self.batch {
                let (seg, packet) = self.corpus.packet(i);
                segs.push((seg, packet.flow()));
                packets.push(packet);
            }
            self.next += self.batch;
            let t1 = stamp(&tracer);
            let encoded = self.enc.process_batch(packets);
            let t2 = stamp(&tracer);
            for (packet, wire) in encoded.iter().zip(&mut self.wires) {
                packet.write_bytes(wire);
                stats.air_bytes += wire.len() as u64;
            }
            stats.air_packets += encoded.len() as u64;
            let t3 = stamp(&tracer);
            // A packet that fails its checksums never reaches the decoder
            // and is counted as undelivered by the verify step.
            let parsed: Vec<Packet> = self.wires[..encoded.len()]
                .iter()
                .filter_map(|w| Packet::from_bytes(w).ok())
                .collect();
            let t4 = stamp(&tracer);
            let delivered = self.dec.process_batch(parsed);
            let t5 = stamp(&tracer);
            let mut arrived = delivered.iter().peekable();
            for &(seg, flow) in &segs {
                stats.attempted += 1;
                let hit = arrived
                    .peek()
                    .is_some_and(|p| p.flow() == flow && p.tcp.seq.raw() == seg.off + 1);
                if hit
                    && arrived
                        .next()
                        .is_some_and(|p| p.payload[..] == *self.corpus.original(seg))
                {
                    stats.payload_ok += u64::from(seg.len);
                } else {
                    stats.failed += 1;
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                let t6 = t.now_ns();
                let id = (self.next / self.batch) as u64;
                let parent = t.push("batch", t0, t6, 0, id);
                t.push("packet.build", t0, t1, parent, id);
                t.push("gateway.encode", t1, t2, parent, id);
                t.push("packet.serialize", t2, t3, parent, id);
                t.push("packet.parse", t3, t4, parent, id);
                t.push("gateway.decode", t4, t5, parent, id);
                t.push("verify", t5, t6, parent, id);
            }
        }
        stats.wall_s = started.elapsed().as_secs_f64();
        stats
    }
}
