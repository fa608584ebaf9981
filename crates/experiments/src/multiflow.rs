//! Many independent transfers in **one** simulator — the PDES scaling
//! workload.
//!
//! [`crate::scenario::run_scenario`] builds a four-node chain per run;
//! campaign parallelism then runs many *simulators* concurrently. The
//! parallel engine attacks the orthogonal axis: one big simulation
//! spread over worker threads. This module builds `flows` disjoint
//! server → encoder → decoder → client chains (4 nodes and 6
//! directed links each) inside a single [`Simulator`], so a 4-flow
//! topology already has 16 nodes, and the default contiguous block
//! partition gives each worker whole chains.
//!
//! Every run digests to a stable string, which must be byte-identical
//! for every `sim_workers` value: the tests below are the workspace's
//! only multi-chain cross-engine check.

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{ExecMode, LinkConfig, LinkId, QueueKind, Simulator};
use bytecache_tcp::{TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_workload::FileSpec;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Parameters of a multiflow run.
#[derive(Debug, Clone)]
pub struct MultiflowConfig {
    /// Number of disjoint four-node chains (4 × `flows` nodes total).
    pub flows: usize,
    /// Object size served on each chain (contents differ per flow).
    pub object_size: usize,
    /// Bernoulli loss rate on every chain's wireless data direction.
    pub loss_rate: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Simulator worker threads: `0` legacy serial, `1` the
    /// deterministic serial oracle, `>= 2` the parallel engine.
    pub sim_workers: usize,
    /// Event-queue kind (heap oracle or timing wheel).
    pub queue: QueueKind,
}

impl MultiflowConfig {
    /// A `flows`-chain workload with defaults sized for the scaling
    /// benchmark.
    #[must_use]
    pub fn new(flows: usize, object_size: usize) -> Self {
        MultiflowConfig {
            flows,
            object_size,
            loss_rate: 0.02,
            seed: 11,
            sim_workers: 0,
            queue: QueueKind::default(),
        }
    }

    /// Set the worker count (builder style).
    #[must_use]
    pub fn sim_workers(mut self, workers: usize) -> Self {
        self.sim_workers = workers;
        self
    }

    /// Set the event-queue kind (builder style).
    #[must_use]
    pub fn queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }
}

/// Aggregate outcome of one multiflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiflowResult {
    /// Chains that completed with the object intact.
    pub completed: usize,
    /// Total chains.
    pub flows: usize,
    /// Total nodes in the simulator.
    pub nodes: usize,
    /// Simulated time when the run went idle.
    pub end_time: SimTime,
    /// Events the engine processed.
    pub events: u64,
    /// Bytes offered across all wireless data directions.
    pub wire_bytes: u64,
    /// Stable per-flow digest: download report fields and wireless
    /// counters, one line per flow. Byte-identical across engines.
    pub digest: String,
}

/// Per-flow address block: chains must not share IPs, so flow `f`
/// lives in `10.(40 + f / 250).(f % 250).x`.
fn addr(flow: usize, host: u8) -> Ipv4Addr {
    debug_assert!(flow < 250 * 64, "flow id out of the address plan");
    Ipv4Addr::new(40 + (flow / 250) as u8, (flow % 250) as u8, 0, host)
}

/// Run `flows` independent transfers in one simulator.
///
/// # Panics
///
/// Panics if the event budget is exhausted (protocol loop).
#[must_use]
pub fn run_multiflow(config: &MultiflowConfig) -> MultiflowResult {
    let mut sim = Simulator::new(config.seed);
    sim.set_queue_kind(config.queue);
    match config.sim_workers {
        0 => {}
        1 => sim.set_exec_mode(ExecMode::SerialDet),
        w => sim.set_exec_mode(ExecMode::Parallel { workers: w }),
    }

    let tcp = TcpConfig {
        max_retries: 15,
        ..TcpConfig::default()
    };
    let lan = LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(500),
        channel: ChannelConfig::clean(),
    };
    let data_channel = if config.loss_rate > 0.0 {
        ChannelConfig {
            loss: LossModel::Bernoulli {
                rate: config.loss_rate,
            },
            ..ChannelConfig::clean()
        }
    } else {
        ChannelConfig::clean()
    };

    let mut clients = Vec::with_capacity(config.flows);
    let mut wireless: Vec<LinkId> = Vec::with_capacity(config.flows);
    for f in 0..config.flows {
        let server_ip = addr(f, 1);
        let client_ip = addr(f, 2);
        // Flow objects differ (distinct workload seed per flow) so
        // chains do not accidentally share traffic patterns.
        let object = FileSpec::File1.build(config.object_size, 7 + f as u64);
        let server = sim.add_node(TcpServerNode::new(server_ip, 80, object, tcp.clone()));
        let enc = sim.add_node(
            EncoderGateway::new(
                Encoder::new(DreConfig::default(), PolicyKind::CacheFlush.build()),
                client_ip,
            )
            .with_control_addr(addr(f, 3)),
        );
        let dec = sim.add_node(
            DecoderGateway::new(Decoder::new(DreConfig::default()), client_ip, addr(f, 4))
                .with_nacks(addr(f, 3)),
        );
        let client = sim.add_node(TcpClientNode::new(
            client_ip,
            40_000,
            server_ip,
            80,
            tcp.clone(),
        ));

        sim.add_duplex_link(server, enc, lan.clone());
        sim.add_duplex_link(dec, client, lan.clone());
        wireless.push(sim.add_link(
            enc,
            dec,
            LinkConfig {
                rate_bytes_per_sec: Some(1_000_000),
                propagation: SimDuration::from_millis(10),
                channel: data_channel.clone(),
            },
        ));
        sim.add_link(
            dec,
            enc,
            LinkConfig {
                rate_bytes_per_sec: Some(1_000_000),
                propagation: SimDuration::from_millis(10),
                channel: ChannelConfig::clean(),
            },
        );

        sim.add_route(server, client_ip, enc);
        sim.add_route(enc, client_ip, dec);
        sim.add_route(dec, client_ip, client);
        sim.add_route(client, server_ip, dec);
        sim.add_route(dec, server_ip, enc);
        sim.add_route(enc, server_ip, server);
        sim.add_route(dec, addr(f, 3), enc);

        clients.push(client);
    }

    let end_time = sim.run_until_idle();

    let mut completed = 0usize;
    let mut wire_bytes = 0u64;
    let mut digest = String::new();
    for (f, &client) in clients.iter().enumerate() {
        let report = sim.node::<TcpClientNode>(client).expect("client").report();
        let ws = sim.link_stats(wireless[f]);
        if report.complete && report.bytes_delivered == config.object_size as u64 {
            completed += 1;
        }
        wire_bytes += ws.bytes_offered;
        let _ = writeln!(
            digest,
            "flow={f} complete={} bytes={} dur_us={} offered={} lost={} delivered={}",
            report.complete,
            report.bytes_delivered,
            report
                .duration()
                .map_or(0, bytecache_netsim::time::SimDuration::as_micros),
            ws.packets_offered,
            ws.packets_lost,
            ws.packets_delivered,
        );
    }
    let _ = writeln!(
        digest,
        "end_us={} events={} no_route={}",
        end_time.as_micros(),
        sim.events_processed(),
        sim.no_route_drops()
    );

    MultiflowResult {
        completed,
        flows: config.flows,
        nodes: config.flows * 4,
        end_time,
        events: sim.events_processed(),
        wire_bytes,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flows_complete_and_digest_is_stable() {
        let cfg = MultiflowConfig::new(3, 40_000);
        let a = run_multiflow(&cfg);
        assert_eq!(a.completed, 3);
        assert_eq!(a.nodes, 12);
        assert!(a.events > 0);
        let b = run_multiflow(&cfg);
        assert_eq!(a, b, "same config must reproduce the same run");
    }

    #[test]
    fn queue_kinds_digest_identically() {
        let wheel = run_multiflow(&MultiflowConfig::new(3, 40_000));
        let heap = run_multiflow(&MultiflowConfig::new(3, 40_000).queue(QueueKind::Heap));
        assert_eq!(wheel, heap, "wheel must replay the heap's run exactly");
    }

    #[test]
    fn digest_is_identical_across_engines_and_worker_counts() {
        let oracle = run_multiflow(&MultiflowConfig::new(4, 40_000).sim_workers(1));
        assert_eq!(oracle.completed, 4);
        for workers in [2usize, 4, 8] {
            let got = run_multiflow(&MultiflowConfig::new(4, 40_000).sim_workers(workers));
            assert_eq!(
                got, oracle,
                "multiflow diverged from the oracle at {workers} workers"
            );
        }
    }
}
