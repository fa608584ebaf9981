//! Multi-flow shard-scaling harness: drive the gateway pair over a
//! trace of interleaved client flows with the engine shards running
//! concurrently.
//!
//! The discrete-event simulator serializes packets by construction, so
//! it cannot show what sharding buys on a multi-core middlebox. This
//! harness bypasses the event loop: it synthesizes `flows` simultaneous
//! downloads (every client fetching the same object — the inter-flow
//! redundancy case), interleaves their packets round-robin into batches,
//! and pushes each batch through
//! [`EncoderGateway::process_batch`](bytecache::gateway::EncoderGateway::process_batch)
//! and
//! [`DecoderGateway::process_batch`](bytecache::gateway::DecoderGateway::process_batch),
//! which fan the work out across the shards on scoped threads. An
//! optional Bernoulli loss process between the gateways exercises the
//! NACK control channel and the per-shard undecodable accounting.
//!
//! Every delivered payload is verified against the original, so the
//! harness doubles as an end-to-end correctness check for the parallel
//! path.

use std::net::Ipv4Addr;

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{DreConfig, PolicyKind, ShardedDecoder, ShardedEncoder};
use bytecache_packet::{Packet, TcpFlags};
use bytecache_workload::FileSpec;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Parameters of a shard-scaling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardScaleParams {
    /// Shard count for both gateways (must match, like every DRE knob).
    pub shards: usize,
    /// Number of concurrent client flows.
    pub flows: usize,
    /// Object size each flow downloads.
    pub object_size: usize,
    /// Payload bytes per data packet.
    pub segment: usize,
    /// Packets per `process_batch` call.
    pub batch: usize,
    /// Bernoulli loss rate on the inter-gateway segment.
    pub loss: f64,
    /// Encoding policy (one instance per shard).
    pub policy: PolicyKind,
    /// RNG seed for the loss process.
    pub seed: u64,
}

impl Default for ShardScaleParams {
    fn default() -> Self {
        ShardScaleParams {
            shards: 1,
            flows: 8,
            object_size: 200_000,
            segment: 1400,
            batch: 64,
            loss: 0.0,
            policy: PolicyKind::CacheFlush,
            seed: 1,
        }
    }
}

/// Outcome of a shard-scaling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardScaleResult {
    /// Shards used.
    pub shards: usize,
    /// Data packets offered to the encoder gateway.
    pub packets: u64,
    /// Original payload bytes in.
    pub bytes_in: u64,
    /// Shim bytes leaving the encoder gateway.
    pub wire_bytes: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Packets the decoder gateway could not reconstruct.
    pub undecodable: u64,
    /// Every delivered payload matched its original byte-for-byte.
    pub verified: bool,
    /// Wall-clock seconds spent inside encoder `process_batch` calls.
    pub encode_secs: f64,
    /// Wall-clock seconds spent inside decoder `process_batch` calls.
    pub decode_secs: f64,
    /// Windows the encoder shards rolled a fingerprint over (the scan's
    /// per-byte CPU cost; see `EncoderStats::scan_windows`).
    pub scan_windows: u64,
    /// Encoder windows that passed the fingerprint sampler.
    pub sampled_windows: u64,
    /// Fingerprint-table insertions across the encoder shards.
    pub index_insertions: u64,
}

impl ShardScaleResult {
    /// Encoder-side throughput over original bytes, MiB/s.
    #[must_use]
    pub fn encode_mib_per_sec(&self) -> f64 {
        if self.encode_secs <= 0.0 {
            return 0.0;
        }
        self.bytes_in as f64 / (1024.0 * 1024.0) / self.encode_secs
    }

    /// Wire bytes per original byte (compression ratio across all flows).
    #[must_use]
    pub fn byte_ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            return 1.0;
        }
        self.wire_bytes as f64 / self.bytes_in as f64
    }
}

fn client_addr(flow: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, (flow % 250) as u8 + 1)
}

/// Synthesize the interleaved multi-flow trace: every flow sends the
/// same object, segmented, round-robin across flows.
#[must_use]
pub fn build_trace(params: &ShardScaleParams) -> Vec<Packet> {
    let object = FileSpec::File1.build(params.object_size, 42);
    let segments: Vec<&[u8]> = object.chunks(params.segment).collect();
    let mut trace = Vec::with_capacity(segments.len() * params.flows);
    for (s, segment) in segments.iter().enumerate() {
        for flow in 0..params.flows {
            let seq = 1 + (s * params.segment) as u32;
            trace.push(
                Packet::builder()
                    .src(SERVER, 80)
                    .dst(client_addr(flow), 4000)
                    .ip_id((s * params.flows + flow) as u16)
                    .seq(seq)
                    .flags(TcpFlags::PSH)
                    .payload(segment.to_vec())
                    .build(),
            );
        }
    }
    trace
}

/// Run one shard-scaling measurement.
///
/// # Panics
///
/// Panics if the parameters are invalid (zero shards, zero segment).
#[must_use]
pub fn run(params: &ShardScaleParams) -> ShardScaleResult {
    assert!(params.segment > 0, "segment must be positive");
    let config = DreConfig {
        shards: params.shards,
        ..DreConfig::default()
    };
    let clients: Vec<Ipv4Addr> = (0..params.flows).map(client_addr).collect();
    let enc_addr = Ipv4Addr::new(10, 0, 0, 2);
    let mut enc_gw = EncoderGateway::sharded(
        ShardedEncoder::new(config.clone(), params.policy),
        clients.clone(),
    )
    .with_control_addr(enc_addr);
    let mut dec_gw = DecoderGateway::sharded(
        ShardedDecoder::new(config),
        clients,
        Ipv4Addr::new(10, 0, 0, 4),
    )
    .with_nacks(enc_addr);

    let trace = build_trace(params);
    let object = FileSpec::File1.build(params.object_size, 42);
    let packets = trace.len() as u64;
    let bytes_in: u64 = trace.iter().map(|p| p.payload.len() as u64).sum();
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);

    let mut wire_bytes = 0u64;
    let mut lost = 0u64;
    let mut verified = true;
    let mut encode_secs = 0.0f64;
    let mut decode_secs = 0.0f64;
    for batch in trace.chunks(params.batch) {
        let t0 = std::time::Instant::now();
        let encoded = enc_gw.process_batch(batch.to_vec());
        encode_secs += t0.elapsed().as_secs_f64();
        // The lossy inter-gateway segment.
        let mut survivors = Vec::with_capacity(encoded.len());
        for pkt in encoded {
            wire_bytes += pkt.payload.len() as u64;
            if params.loss > 0.0 && rng.gen_bool(params.loss) {
                lost += 1;
            } else {
                survivors.push(pkt);
            }
        }
        let t1 = std::time::Instant::now();
        let delivered = dec_gw.process_batch(survivors);
        decode_secs += t1.elapsed().as_secs_f64();
        for pkt in delivered {
            if pkt.tcp.dst_port == bytecache::gateway::CONTROL_PORT {
                // NACK control packet travelling back toward the
                // encoder gateway: deliver it out of band (the harness
                // models the reverse channel as lossless).
                let leftover = enc_gw.process_batch(vec![pkt]);
                debug_assert!(leftover.is_empty());
            } else {
                // Delivered data packet: verify the payload against the
                // original segment (same flow ⇒ same content at a seq).
                let offset = (pkt.tcp.seq.raw() - 1) as usize;
                if object.len() < offset + pkt.payload.len()
                    || object[offset..offset + pkt.payload.len()] != pkt.payload[..]
                {
                    verified = false;
                }
            }
        }
    }

    let enc_stats = enc_gw.stats();
    ShardScaleResult {
        shards: params.shards,
        packets,
        bytes_in,
        wire_bytes,
        lost,
        undecodable: dec_gw.dropped(),
        verified,
        encode_secs,
        decode_secs,
        scan_windows: enc_stats.scan_windows,
        sampled_windows: enc_stats.sampled_windows,
        index_insertions: enc_stats.index_insertions,
    }
}

/// Run the scaling sweep over several shard counts and render a table.
#[must_use]
pub fn render_sweep(shard_counts: &[usize], base: &ShardScaleParams) -> String {
    let mut out = String::new();
    out.push_str("## shard scaling — multi-flow batch encode through the gateway pair\n");
    out.push_str(&format!(
        "  flows: {} | object: {} B | segment: {} B | batch: {} | loss: {} | policy: {}\n",
        base.flows,
        base.object_size,
        base.segment,
        base.batch,
        base.loss,
        base.policy.label()
    ));
    out.push_str(
        "  shards |   MiB/s | byte ratio | Mwindows | inserts | lost | undecodable | verified\n",
    );
    out.push_str(
        "  ------ | ------- | ---------- | -------- | ------- | ---- | ----------- | --------\n",
    );
    for &shards in shard_counts {
        let r = run(&ShardScaleParams {
            shards,
            ..base.clone()
        });
        out.push_str(&format!(
            "  {:>6} | {:>7.1} | {:>10.3} | {:>8.1} | {:>7} | {:>4} | {:>11} | {}\n",
            r.shards,
            r.encode_mib_per_sec(),
            r.byte_ratio(),
            r.scan_windows as f64 / 1e6,
            r.index_insertions,
            r.lost,
            r.undecodable,
            r.verified
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_delivers_everything_verified() {
        let r = run(&ShardScaleParams {
            shards: 4,
            flows: 8,
            object_size: 60_000,
            ..ShardScaleParams::default()
        });
        assert!(r.verified, "{r:?}");
        assert_eq!(r.lost + r.undecodable, 0, "{r:?}");
        // The scan-effort counters surface through the gateway merge:
        // one pass ⇒ roughly one window per payload byte.
        assert!(r.scan_windows > 0 && r.scan_windows <= r.bytes_in, "{r:?}");
        assert!(r.index_insertions > 0, "{r:?}");
        assert!(r.sampled_windows >= r.index_insertions, "{r:?}");
        // Eight identical flows: massive inter-flow redundancy within
        // each shard ⇒ strong compression even sharded.
        assert!(r.byte_ratio() < 0.6, "{r:?}");
    }

    #[test]
    fn lossy_channel_never_corrupts() {
        let r = run(&ShardScaleParams {
            shards: 4,
            flows: 6,
            object_size: 60_000,
            loss: 0.05,
            policy: PolicyKind::Naive, // worst case for stale refs
            seed: 7,
            ..ShardScaleParams::default()
        });
        assert!(r.verified, "delivered payloads must be intact: {r:?}");
        assert!(r.lost > 0, "loss process should have fired: {r:?}");
    }

    #[test]
    fn single_shard_matches_unsharded_byte_counts() {
        let base = ShardScaleParams {
            shards: 1,
            flows: 4,
            object_size: 60_000,
            ..ShardScaleParams::default()
        };
        let r = run(&base);
        assert!(r.verified);
        // The trace and engine are deterministic: repeating the run
        // reproduces the byte counts exactly.
        let r2 = run(&base);
        assert_eq!(r.wire_bytes, r2.wire_bytes);
    }
}
