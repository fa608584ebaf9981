//! Beyond the paper — flash-crowd capacity: tens of thousands of
//! concurrent flows through a bank of gateway pairs.
//!
//! The paper's motivating deployment is many wireless users fetching
//! overlapping content through cache-equipped gateways. This harness
//! builds that regime open-loop: a catalog of objects with Zipf
//! popularity (the flash crowd piles onto the head object), flows
//! arriving as a Poisson process, and a bank of encoder/decoder
//! gateway shards each owning one rate-limited wireless link. Every
//! flow is a full TCP download through its shard, so the run reports
//! what the paper cares about at scale:
//!
//! * **aggregate byte savings** — encoder bytes-in vs bytes-out across
//!   the bank (inter-flow DRE: later fetches of a popular object ride
//!   the shard cache);
//! * **per-flow stall and time-to-first-byte distributions** — from the
//!   telemetry histograms (log-bucketed, so quantiles are octave
//!   approximations);
//! * **cache pressure** — insert/eviction counters and resident bytes
//!   under a fixed per-shard byte budget;
//! * **events processed** — the size of the simulation, for whoever
//!   times it (`perfbench/` does; this harness reports outcomes only).
//!
//! `repro capacity` runs the crowd once, on the event-queue kind
//! `--queue` names (the simulator's default otherwise). The report has
//! no wall-clock value in it and is byte-identical for both kinds.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{LinkConfig, LinkId, QueueKind, Simulator};
use bytecache_tcp::{TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_telemetry::{Histogram, Recorder};
use bytecache_workload::{flash_crowd, generate, ObjectKind};
use bytes::Bytes;

use crate::campaign::Campaign;
use crate::report::Table;

/// Flash-crowd parameters.
#[derive(Debug, Clone)]
pub struct CapacityParams {
    /// Total flows launched (each is one object download).
    pub flows: usize,
    /// Gateway shards; each owns one encoder/decoder pair and one
    /// rate-limited wireless link. Flows are assigned round-robin.
    pub shards: usize,
    /// Distinct objects in the catalog.
    pub catalog: usize,
    /// Size of every catalog object in bytes.
    pub object_size: usize,
    /// Zipf popularity exponent (larger = heavier flash-crowd head).
    pub zipf_exponent: f64,
    /// Mean Poisson inter-arrival time between flow starts (µs).
    pub mean_interarrival_us: f64,
    /// Bernoulli loss rate on each shard's wireless data direction.
    pub loss: f64,
    /// DRE cache byte budget per shard (both encoder and decoder side).
    pub cache_bytes: usize,
    /// Encoding policy every shard's encoder runs.
    pub policy: PolicyKind,
    /// TCP receive window (bytes); bounds each flow's in-flight share
    /// (the object size binds first for small objects).
    pub receive_window: usize,
    /// Wireless serialization rate per shard (bytes/sec).
    pub link_rate: u64,
    /// Simulation seed (channel + workload randomness).
    pub seed: u64,
    /// Event-queue kind; `None` uses the simulator's default.
    pub queue: Option<QueueKind>,
}

impl CapacityParams {
    /// CI-sized smoke: ~500 flows, a few seconds of wall-clock.
    #[must_use]
    pub fn quick() -> Self {
        CapacityParams {
            flows: 500,
            shards: 4,
            catalog: 64,
            object_size: 12_000,
            zipf_exponent: 0.9,
            mean_interarrival_us: 1_000.0,
            loss: 0.0,
            cache_bytes: 4 << 20,
            policy: PolicyKind::CacheFlush,
            receive_window: 17_376, // 12 x MSS
            link_rate: 2_000_000,
            seed: 42,
            queue: None,
        }
    }

    /// The full capacity run: 25k flows, all concurrent at the peak.
    ///
    /// The 25k flows (24 kB objects — the paper's Table I web-page
    /// scale) arrive in a ~0.5 s window while the shared 250 kB/s
    /// wireless links need a minute-plus to drain, so the *entire*
    /// crowd is in flight at the peak.
    ///
    /// The policy is [`Naive`] — unrestricted matching, the only rule
    /// that allows *inter-flow* matches, which is the entire flash-crowd
    /// payoff (a 64-object catalog under Zipf 0.9 means most fetches
    /// ride earlier flows' packets). The per-flow-safe policies
    /// (`TcpSeq`, `KDistance`, `AckGated`) all refuse cross-flow
    /// sources, so they would reduce this workload to intra-object
    /// savings. Naive's loss exposure — matches against packets the
    /// decoder never got — is repaired by the informed-marking loop the
    /// harness wires up ([`DecoderGateway::with_nacks`]): the decoder
    /// NACKs undecodable ids and the encoder marks them dead.
    ///
    /// [`Naive`]: bytecache::policy::Naive
    /// [`DecoderGateway::with_nacks`]: bytecache::gateway::DecoderGateway::with_nacks
    #[must_use]
    pub fn full() -> Self {
        CapacityParams {
            flows: 25_000,
            shards: 16,
            catalog: 64,
            object_size: 24_000,
            zipf_exponent: 0.9,
            mean_interarrival_us: 20.0,
            loss: 0.000_5,
            cache_bytes: 16 << 20,
            policy: PolicyKind::Naive,
            receive_window: 34_752, // 24 x MSS: the whole object can be in flight
            link_rate: 250_000,
            seed: 42,
            queue: None,
        }
    }

    /// Pin the event-queue kind (builder style).
    #[must_use]
    pub fn queue(mut self, queue: Option<QueueKind>) -> Self {
        self.queue = queue;
        self
    }
}

/// Everything the harness measured. Every field is deterministic and
/// the same on both queue kinds.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Flows launched.
    pub flows: usize,
    /// Gateway shards.
    pub shards: usize,
    /// Nodes in the simulator.
    pub nodes: usize,
    /// Flows that completed with the full object delivered.
    pub completed: usize,
    /// Flows that aborted (max retransmissions exceeded).
    pub aborted: usize,
    /// Peak number of simultaneously active flows (arrival→completion
    /// interval sweep; incomplete flows stay active to the end).
    pub peak_concurrent: usize,
    /// Original payload bytes into the encoder bank.
    pub bytes_in: u64,
    /// Encoded shim bytes out of the encoder bank.
    pub bytes_out: u64,
    /// `1 - bytes_out / bytes_in` — aggregate DRE byte savings.
    pub savings_fraction: f64,
    /// Bytes offered on the wireless data links (headers included).
    pub wire_bytes: u64,
    /// Per-flow worst ACK-clock stall, µs (p50/p90/p99/max; octave
    /// resolution above the exact max).
    pub stall_us: [u64; 4],
    /// Per-flow time to first payload byte, µs (p50/p90/p99/max).
    pub ttfb_us: [u64; 4],
    /// Encoder-side cache inserts across the bank.
    pub cache_inserts: u64,
    /// Encoder-side cache evictions across the bank (byte budget).
    pub cache_evictions: u64,
    /// Resident encoder cache bytes at the end of the run.
    pub cache_resident: u64,
    /// Per-shard cache byte budget.
    pub cache_budget: u64,
    /// Undecodable packets dropped by the decoder bank.
    pub decoder_dropped: u64,
    /// Events the engine processed in one run.
    pub events: u64,
    /// Simulated end time, µs.
    pub end_us: u64,
    /// One line per flow and per shard, which the numbers above are
    /// summed from: two runs agree exactly when their digests do.
    pub digest: String,
}

/// Per-flow address block, disjoint from the `10.0.x.x` gateway plan.
fn addr(flow: usize, host: u8) -> Ipv4Addr {
    debug_assert!(flow < 250 * 200, "flow id out of the address plan");
    Ipv4Addr::new(40 + (flow / 250) as u8, (flow % 250) as u8, 0, host)
}

/// Shard-local addresses: the decoder's own IP and the encoder's
/// control (NACK/recovery) endpoint.
fn shard_addr(shard: usize, host: u8) -> Ipv4Addr {
    debug_assert!(shard < 250, "shard id out of the address plan");
    Ipv4Addr::new(10, 0, shard as u8, host)
}

/// Run the flash crowd once and report what came of it, plus the
/// telemetry snapshot (simulator and gateway series and the
/// `capacity.stall_us` / `capacity.ttfb_us` histograms) when the
/// campaign collects it; empty otherwise. The report is the same either
/// way. The crowd is one simulation, so the campaign's thread count
/// does not apply.
#[must_use]
pub fn run(campaign: &Campaign, params: &CapacityParams) -> (CapacityResult, Recorder) {
    let with_metrics = campaign.telemetry();
    assert!(params.flows > 0 && params.shards > 0 && params.catalog > 0);
    // Web-page-like objects: high intra-object redundancy plus the
    // inter-flow redundancy of the shared catalog.
    let objects: Vec<Bytes> = (0..params.catalog)
        .map(|i| {
            Bytes::from(generate(
                ObjectKind::WebPage,
                params.object_size,
                params.seed.wrapping_add(i as u64),
            ))
        })
        .collect();
    let plan = flash_crowd(
        params.flows,
        params.catalog,
        params.zipf_exponent,
        params.mean_interarrival_us,
        params.seed,
    );

    let mut sim = Simulator::new(params.seed);
    sim.set_queue_kind(params.queue.unwrap_or_default());
    if with_metrics {
        sim.set_telemetry_enabled(true);
    }

    // The receive window bounds each flow's in-flight share so a
    // 25k-flow crowd queues seconds, not minutes, at the shard links.
    // A flash crowd through a 250 kB/s shaper sees multi-second
    // queueing RTTs; RFC 6298's 1 s initial RTO would spuriously
    // retransmit nearly every first-window segment before an RTT
    // sample exists, so start (and floor) the RTO above the expected
    // queueing delay.
    let tcp = TcpConfig {
        receive_window: params.receive_window,
        max_retries: 20,
        initial_rto: SimDuration::from_secs(5),
        min_rto: SimDuration::from_secs(2),
        ..TcpConfig::default()
    };
    let lan = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(200),
        channel: ChannelConfig::clean(),
    };
    let data_channel = if params.loss > 0.0 {
        ChannelConfig {
            loss: LossModel::Bernoulli { rate: params.loss },
            ..ChannelConfig::clean()
        }
    } else {
        ChannelConfig::clean()
    };
    let dre = DreConfig {
        cache_bytes: params.cache_bytes,
        ..DreConfig::default()
    };

    // Gateway bank first (stable low node ids), flows after.
    let shard_clients = |s: usize| {
        (0..params.flows)
            .filter(move |f| f % params.shards == s)
            .map(|f| addr(f, 2))
    };
    let mut encs = Vec::with_capacity(params.shards);
    let mut decs = Vec::with_capacity(params.shards);
    let mut wireless: Vec<LinkId> = Vec::with_capacity(params.shards);
    for s in 0..params.shards {
        let mut enc_gw = EncoderGateway::for_destinations(
            Encoder::new(dre.clone(), params.policy.build()),
            shard_clients(s),
        )
        .with_control_addr(shard_addr(s, 3));
        let mut dec_gw = DecoderGateway::for_destinations(
            Decoder::new(dre.clone()),
            shard_clients(s),
            shard_addr(s, 4),
        )
        .with_nacks(shard_addr(s, 3));
        if with_metrics {
            enc_gw.set_telemetry_enabled(true);
            dec_gw.set_telemetry_enabled(true);
        }
        let enc = sim.add_node(enc_gw);
        let dec = sim.add_node(dec_gw);
        wireless.push(sim.add_link(
            enc,
            dec,
            LinkConfig {
                rate_bytes_per_sec: Some(params.link_rate),
                propagation: SimDuration::from_millis(10),
                channel: data_channel.clone(),
            },
        ));
        sim.add_link(
            dec,
            enc,
            LinkConfig {
                rate_bytes_per_sec: Some(params.link_rate),
                propagation: SimDuration::from_millis(10),
                channel: ChannelConfig::clean(),
            },
        );
        sim.add_route(dec, shard_addr(s, 3), enc);
        encs.push(enc);
        decs.push(dec);
    }

    let mut clients = Vec::with_capacity(params.flows);
    for (f, spec) in plan.iter().enumerate() {
        let s = f % params.shards;
        let (enc, dec) = (encs[s], decs[s]);
        let server_ip = addr(f, 1);
        let client_ip = addr(f, 2);
        // Catalog objects are ref-counted: 10k servers share the
        // catalog's payload memory instead of cloning it.
        let server = sim.add_node(TcpServerNode::new(
            server_ip,
            80,
            objects[spec.object].clone(),
            tcp.clone(),
        ));
        let client = sim.add_node(
            TcpClientNode::new(client_ip, 40_000, server_ip, 80, tcp.clone())
                .with_start_delay(SimDuration::from_micros(spec.start_us)),
        );
        sim.add_duplex_link(server, enc, lan.clone());
        sim.add_duplex_link(dec, client, lan.clone());

        sim.add_route(server, client_ip, enc);
        sim.add_route(enc, client_ip, dec);
        sim.add_route(dec, client_ip, client);
        sim.add_route(client, server_ip, dec);
        sim.add_route(dec, server_ip, enc);
        sim.add_route(enc, server_ip, server);
        clients.push(client);
    }
    let nodes = params.flows * 2 + params.shards * 2;

    let end = sim.run_until_idle();

    // ---- extract the deterministic report ------------------------------
    let mut completed = 0usize;
    let mut aborted = 0usize;
    let mut delivered = 0u64;
    let mut stall = Histogram::default();
    let mut ttfb = Histogram::default();
    // Active-interval sweep for peak concurrency: +1 at arrival, -1 at
    // completion (incomplete flows stay active to the end).
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(params.flows * 2);
    let mut own = with_metrics.then(Recorder::enabled);
    let mut digest = String::new();
    for (f, &client) in clients.iter().enumerate() {
        let report = sim.node::<TcpClientNode>(client).expect("client").report();
        let full = report.complete && report.bytes_delivered == params.object_size as u64;
        completed += usize::from(full);
        aborted += usize::from(report.aborted);
        delivered += report.bytes_delivered;
        let start_us = report
            .started_at
            .map_or(plan[f].start_us, |t| t.as_micros());
        let end_us = report
            .completed_at
            .map_or(end.as_micros(), |t| t.as_micros());
        edges.push((start_us, 1));
        edges.push((end_us.max(start_us), -1));
        let stall_us = report.max_stall.map_or(0, |d| d.as_micros());
        let ttfb_us = report
            .first_byte_at
            .map_or(0, |t| t.as_micros().saturating_sub(start_us));
        stall.record(stall_us);
        ttfb.record(ttfb_us);
        if let Some(rec) = own.as_mut() {
            rec.record("capacity.stall_us", stall_us);
            rec.record("capacity.ttfb_us", ttfb_us);
        }
        let _ = writeln!(
            digest,
            "flow={f} obj={} complete={full} bytes={} start={start_us} end={end_us} \
             stall={stall_us} ttfb={ttfb_us}",
            plan[f].object, report.bytes_delivered,
        );
    }
    edges.sort_unstable();
    let (mut active, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        active += d;
        peak = peak.max(active);
    }

    let mut bytes_in = 0u64;
    let mut bytes_out = 0u64;
    let mut wire_bytes = 0u64;
    let mut cache_inserts = 0u64;
    let mut cache_evictions = 0u64;
    let mut cache_resident = 0u64;
    let mut decoder_dropped = 0u64;
    for s in 0..params.shards {
        let enc = sim.node::<EncoderGateway>(encs[s]).expect("encoder");
        let st = enc.stats();
        let cs = enc.encoder().cache().stats().clone();
        bytes_in += st.bytes_in;
        bytes_out += st.bytes_out;
        cache_inserts += cs.inserts;
        cache_evictions += cs.evictions;
        cache_resident += enc.encoder().cache().bytes_used() as u64;
        let dec = sim.node::<DecoderGateway>(decs[s]).expect("decoder");
        decoder_dropped += dec.dropped();
        let ws = sim.link_stats(wireless[s]);
        wire_bytes += ws.bytes_offered;
        let _ = writeln!(
            digest,
            "shard={s} in={} out={} inserts={} evictions={} resident={} dropped={} \
             offered={} lost={} delivered={}",
            st.bytes_in,
            st.bytes_out,
            cs.inserts,
            cs.evictions,
            enc.encoder().cache().bytes_used(),
            dec.dropped(),
            ws.packets_offered,
            ws.packets_lost,
            ws.packets_delivered,
        );
    }
    let _ = writeln!(
        digest,
        "end_us={} events={} no_route={} delivered={delivered}",
        end.as_micros(),
        sim.events_processed(),
        sim.no_route_drops()
    );

    let metrics = own.map(|per_flow| {
        // Simulator series (queue depth, hop latency, channel events),
        // the gateway bank's encoder/decoder/cache series, and the
        // per-flow capacity histograms recorded above.
        let mut rec = sim.telemetry_snapshot();
        for s in 0..params.shards {
            let enc = sim.node::<EncoderGateway>(encs[s]).expect("encoder");
            let dec = sim.node::<DecoderGateway>(decs[s]).expect("decoder");
            rec.merge(&enc.telemetry_snapshot());
            rec.merge(&dec.telemetry_snapshot());
        }
        rec.merge(&per_flow);
        rec
    });

    let q = |h: &Histogram| {
        [
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.90).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
        ]
    };
    let result = CapacityResult {
        flows: params.flows,
        shards: params.shards,
        nodes,
        completed,
        aborted,
        peak_concurrent: usize::try_from(peak).unwrap_or(0),
        bytes_in,
        bytes_out,
        savings_fraction: if bytes_in == 0 {
            0.0
        } else {
            1.0 - bytes_out as f64 / bytes_in as f64
        },
        wire_bytes,
        stall_us: q(&stall),
        ttfb_us: q(&ttfb),
        cache_inserts,
        cache_evictions,
        cache_resident,
        cache_budget: params.cache_bytes as u64,
        decoder_dropped,
        events: sim.events_processed(),
        end_us: end.as_micros(),
        digest,
    };
    (result, metrics.unwrap_or_default())
}

/// Render the report.
#[must_use]
pub fn render(r: &CapacityResult) -> Table {
    let mut t = Table::new(
        &format!(
            "capacity — flash crowd: {} flows over {} gateway shards ({} nodes)",
            r.flows, r.shards, r.nodes
        ),
        &["measure", "value"],
    );
    t.row(&[
        "flows complete / aborted".to_string(),
        format!("{}/{} / {}", r.completed, r.flows, r.aborted),
    ]);
    t.row(&[
        "peak concurrent flows".to_string(),
        format!("{}", r.peak_concurrent),
    ]);
    t.row(&[
        "encoder bytes in -> out".to_string(),
        format!(
            "{} -> {} (savings {:.1}%)",
            r.bytes_in,
            r.bytes_out,
            r.savings_fraction * 100.0
        ),
    ]);
    t.row(&[
        "wireless wire bytes".to_string(),
        format!("{}", r.wire_bytes),
    ]);
    t.row(&[
        "stall p50/p90/p99/max (ms)".to_string(),
        format!(
            "{:.1} / {:.1} / {:.1} / {:.1}",
            r.stall_us[0] as f64 / 1e3,
            r.stall_us[1] as f64 / 1e3,
            r.stall_us[2] as f64 / 1e3,
            r.stall_us[3] as f64 / 1e3
        ),
    ]);
    t.row(&[
        "ttfb p50/p90/p99/max (ms)".to_string(),
        format!(
            "{:.1} / {:.1} / {:.1} / {:.1}",
            r.ttfb_us[0] as f64 / 1e3,
            r.ttfb_us[1] as f64 / 1e3,
            r.ttfb_us[2] as f64 / 1e3,
            r.ttfb_us[3] as f64 / 1e3
        ),
    ]);
    t.row(&[
        "encoder cache (bank totals)".to_string(),
        format!(
            "{} inserts, {} evictions, {} resident / {} bank budget ({} per shard)",
            r.cache_inserts,
            r.cache_evictions,
            r.cache_resident,
            r.cache_budget * r.shards as u64,
            r.cache_budget
        ),
    ]);
    t.row(&[
        "decoder undecodable drops".to_string(),
        format!("{}", r.decoder_dropped),
    ]);
    t.row(&[
        "events (one run)".to_string(),
        format!("{} (idle at {:.2} s)", r.events, r.end_us as f64 / 1e6),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CapacityParams {
        CapacityParams {
            flows: 40,
            shards: 2,
            catalog: 8,
            object_size: 6_000,
            zipf_exponent: 1.0,
            mean_interarrival_us: 2_000.0,
            loss: 0.0,
            cache_bytes: 1 << 20,
            policy: PolicyKind::CacheFlush,
            receive_window: 17_376,
            link_rate: 2_000_000,
            seed: 7,
            queue: None,
        }
    }

    #[test]
    fn tiny_crowd_is_identical_across_queue_kinds_and_saves_bytes() {
        let campaign = Campaign::default();
        let heap = run(&campaign, &tiny().queue(Some(QueueKind::Heap))).0;
        let r = run(&campaign, &tiny().queue(Some(QueueKind::Wheel))).0;
        assert_eq!(heap.digest, r.digest, "heap and wheel must agree");
        assert_eq!(
            run(&campaign, &tiny()).0.digest,
            r.digest,
            "unpinned runs on the wheel"
        );
        assert_eq!(r.completed, 40, "clean channel: every flow completes");
        assert_eq!(r.aborted, 0);
        assert!(r.peak_concurrent > 1, "arrivals must overlap");
        assert!(
            r.savings_fraction > 0.2,
            "zipf catalog reuse should compress: {:.3}",
            r.savings_fraction
        );
        assert_eq!(r.decoder_dropped, 0);

        let table = render(&r).render();
        assert!(table.contains("flash crowd"));
        assert_eq!(table, render(&heap).render());
    }

    #[test]
    fn metrics_snapshot_carries_the_capacity_histograms() {
        let (r, rec) = run(&Campaign::default().with_telemetry(true), &tiny());
        let (plain, empty) = run(&Campaign::default(), &tiny());
        assert_eq!(r.digest, plain.digest, "telemetry must not steer");
        assert!(empty.is_empty());
        let stall = rec.hist("capacity.stall_us").expect("stall histogram");
        assert_eq!(stall.count(), 40);
        assert!(rec.hist("capacity.ttfb_us").is_some());
    }
}
