//! Layer replays: the packet stream recorded at gateway ingress,
//! re-driven through one layer at a time.
//!
//! Each replay gives one layer a cost per packet (or byte, or probe)
//! with nothing else on the clock — the trick `record_schedule` /
//! `replay_schedule` plays for the event queue, generalised. Replays
//! overlap (an encode contains a scan and a store write), so they
//! subdivide a boundary span; they are never added to the budget.

use std::hint::black_box;
use std::time::Instant;

use bytecache::{wire, Cache, Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_netsim::{replay_schedule, ScheduleOp, Simulator};
use bytecache_packet::Packet;
use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, Polynomial};

/// One gateway's recorded ingress: the data packets it was handed, in
/// order, and the policy its encoder ran.
#[derive(Debug, Clone)]
pub struct Session {
    /// Policy of the encoder that saw the stream.
    pub policy: PolicyKind,
    /// The recorded packets.
    pub packets: Vec<Packet>,
}

/// Payload bytes recorded and replayed at most: two turns of the default
/// cache, so the store replays include eviction, without recording a
/// whole sweep.
pub const REPLAY_CAP_BYTES: u64 = 64 << 20;

/// Packets serialized before the batch is parsed back, so each clock
/// reading is shared by many packets.
const PACKET_CHUNK: usize = 256;

impl Session {
    /// Payload bytes of the recorded packets.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.payload.len() as u64).sum()
    }
}

/// Host nanoseconds each layer took over the replayed stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTimes {
    /// Packets replayed.
    pub packets: u64,
    /// Payload bytes replayed.
    pub bytes: u64,
    /// Sampled fingerprints probed in the lookup replay.
    pub probes: u64,
    /// `Fingerprinter::windows` + `Sampler::selects`.
    pub rabin_ns: u64,
    /// `Cache::insert` + `Cache::index_sampled` (the fingerprints come
    /// from the rabin replay, so no byte is scanned twice).
    pub store_write_ns: u64,
    /// `Cache::lookup` over the sampled fingerprints.
    pub store_lookup_ns: u64,
    /// `Encoder::encode`.
    pub encode_ns: u64,
    /// `wire::parse` over the encoder's output.
    pub wire_parse_ns: u64,
    /// `Decoder::decode` over the encoder's output.
    pub decode_ns: u64,
    /// `Packet::builder()…build()`.
    pub packet_build_ns: u64,
    /// `Packet::write_bytes`.
    pub packet_serialize_ns: u64,
    /// `Packet::from_bytes` (checksums verified).
    pub packet_parse_ns: u64,
}

fn meta_of(p: &Packet) -> PacketMeta {
    PacketMeta {
        flow: p.flow(),
        seq: p.tcp.seq,
        payload_len: p.payload.len(),
        flow_index: 0,
    }
}

/// Time `f`, adding the elapsed nanoseconds to `*acc`.
fn clocked<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_nanos() as u64;
    out
}

/// Replay `sessions` (each through fresh engines, as the gateway that
/// recorded it started) until [`REPLAY_CAP_BYTES`] have been replayed.
#[must_use]
pub fn replay_layers(sessions: &[Session], dre: &DreConfig) -> ReplayTimes {
    let mut t = ReplayTimes::default();
    let fingerprinter = Fingerprinter::new(Polynomial::generate(dre.polynomial_seed), dre.window);
    let sampler = Sampler::new(dre.sample_bits);
    let mut wire_buf: Vec<Vec<u8>> = vec![Vec::new(); PACKET_CHUNK];
    for session in sessions {
        if t.bytes >= REPLAY_CAP_BYTES {
            break;
        }
        let packets = &session.packets;
        t.packets += packets.len() as u64;
        t.bytes += session.payload_bytes();

        // Sampled (offset, fingerprint) pairs of every packet, in order:
        // the rabin replay's output feeds both store replays.
        let mut sampled: Vec<(u16, u64)> = Vec::new();
        let mut ends = Vec::with_capacity(packets.len());
        clocked(&mut t.rabin_ns, || {
            for p in packets {
                for (offset, fp) in fingerprinter.windows(&p.payload) {
                    if sampler.selects(fp) {
                        sampled.push((offset as u16, fp));
                    }
                }
                ends.push(sampled.len());
            }
        });
        t.probes += sampled.len() as u64;

        let mut cache = Cache::new(dre);
        clocked(&mut t.store_write_ns, || {
            let mut start = 0;
            for (p, &end) in packets.iter().zip(&ends) {
                let id = cache.insert(p.payload.clone(), p.flow(), p.tcp.seq);
                black_box(cache.index_sampled(id, &sampled[start..end]));
                start = end;
            }
        });
        clocked(&mut t.store_lookup_ns, || {
            for &(_, fp) in &sampled {
                black_box(cache.lookup(fp).is_some());
            }
        });
        drop(cache);

        let mut encoder = Encoder::new(dre.clone(), session.policy.build());
        let shims: Vec<Vec<u8>> = clocked(&mut t.encode_ns, || {
            packets
                .iter()
                .map(|p| encoder.encode(&meta_of(p), &p.payload).wire)
                .collect()
        });
        drop(encoder);
        clocked(&mut t.wire_parse_ns, || {
            for shim in &shims {
                black_box(wire::parse(shim).is_ok());
            }
        });
        let mut decoder = Decoder::new(dre.clone());
        clocked(&mut t.decode_ns, || {
            for (shim, p) in shims.iter().zip(packets) {
                black_box(decoder.decode(shim, &meta_of(p)).0.is_ok());
            }
        });
        drop((decoder, shims));

        for chunk in packets.chunks(PACKET_CHUNK) {
            let built: Vec<Packet> = clocked(&mut t.packet_build_ns, || {
                chunk
                    .iter()
                    .map(|p| {
                        Packet::builder()
                            .src(p.ip.src, p.tcp.src_port)
                            .dst(p.ip.dst, p.tcp.dst_port)
                            .seq(p.tcp.seq.raw())
                            .ip_id(p.ip.id)
                            .flags(p.tcp.flags)
                            .payload(p.payload.clone())
                            .build()
                    })
                    .collect()
            });
            clocked(&mut t.packet_serialize_ns, || {
                for (p, buf) in built.iter().zip(&mut wire_buf) {
                    p.write_bytes(buf);
                }
            });
            clocked(&mut t.packet_parse_ns, || {
                for buf in &wire_buf[..built.len()] {
                    black_box(Packet::from_bytes(buf).is_ok());
                }
            });
        }
    }
    t
}

/// Replay a recorded event-queue schedule through a fresh queue of the
/// simulator's default kind; returns host nanoseconds.
#[must_use]
pub fn replay_queue(ops: &[ScheduleOp]) -> u64 {
    let kind = Simulator::new(0).queue_kind();
    let mut ns = 0;
    clocked(&mut ns, || black_box(replay_schedule(ops, kind)));
    ns
}
