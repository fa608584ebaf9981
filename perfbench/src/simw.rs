//! `sim_paper_sweep` and `sim_mice_crowd`: full simulations on the
//! benchmark's own topology.
//!
//! Both workloads share one builder: `pairs` encoder/decoder gateway
//! pairs, each owning one rate-limited 10 ms "wireless" hop, and one
//! server → encoder gw → hop → decoder gw → client chain per flow,
//! assigned to the pairs round-robin. The paper sweep is the one-pair,
//! one-flow case under Bernoulli loss; the mice crowd is thousands of
//! two-segment flows on four lossless pairs. Every simulator and
//! gateway setting is the product's default.

use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Instant;

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_netsim::channel::ChannelConfig;
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{Context, LinkConfig, LinkId, Node, NodeId, Simulator};
use bytecache_packet::Packet;
use bytecache_tcp::{TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_workload::{flash_crowd, generate, FileSpec, ObjectKind};
use bytes::Bytes;

use crate::counts::LayerCounts;
use crate::mix;
use crate::replay::{replay_queue, Session, REPLAY_CAP_BYTES};
use crate::trace::Timed;

/// TCP port every server listens on; the data direction of a recorded
/// packet stream is picked out by it.
const SERVER_PORT: u16 = 80;
const CLIENT_PORT: u16 = 40_000;
/// One-way delay of the rate-limited hop, microseconds (paper: 10 ms).
const HOP_DELAY_US: u64 = 10_000;
/// One-way delay of the LAN hops at both ends, microseconds.
const LAN_DELAY_US: u64 = 500;

/// Per-flow address block, disjoint from the `10.x` gateway plan.
fn flow_addr(flow: usize, host: u8) -> Ipv4Addr {
    assert!(flow < 200 * 250 * 250, "flow id out of the address plan");
    Ipv4Addr::new(
        40 + (flow / 62_500) as u8,
        (flow / 250 % 250) as u8,
        (flow % 250) as u8,
        host,
    )
}

fn gateway_addr(pair: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, pair as u8, 4)
}

/// TCP as the paper's scenarios run it: the defaults, with Linux's 15
/// retries so robust policies can ride out 20 % loss.
fn tcp_config() -> TcpConfig {
    TcpConfig {
        max_retries: 15,
        ..TcpConfig::default()
    }
}

/// A middlebox that forwards everything untouched: the gateway of the
/// no-DRE twin run, so topology and link behaviour stay identical.
#[derive(Debug, Default)]
struct PassThrough;

impl Node for PassThrough {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        ctx.forward(packet);
    }
}

/// One download to simulate.
#[derive(Debug, Clone)]
pub struct FlowDef {
    /// The object served.
    pub object: Bytes,
    /// When the client starts, microseconds of simulated time.
    pub start_us: u64,
}

/// How to build and observe one simulation.
#[derive(Debug, Clone, Copy)]
pub struct TopoSpec {
    /// Simulator seed (channel randomness).
    pub sim_seed: u64,
    /// Gateway pairs, each with its own hop.
    pub pairs: usize,
    /// Encoding policy; `None` puts pass-through boxes where the
    /// gateways would be.
    pub policy: Option<PolicyKind>,
    /// Bernoulli loss on the hop's data direction.
    pub loss: f64,
    /// Hop serialization rate, bytes per second.
    pub link_rate: u64,
    /// Wrap every node in [`Timed`] and record the event-queue schedule.
    pub traced: bool,
    /// Also keep the data packets the encoder gateways are handed.
    pub tap: bool,
}

/// Layer indices of [`SimOutcome::busy_ns`] and [`SimOutcome::calls`].
pub const LAYERS: [&str; 4] = [
    "tcp.server",
    "tcp.client",
    "gateway.encode",
    "gateway.decode",
];

/// One flow's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Simulated download seconds; the simulation's end time if the
    /// download did not complete.
    pub duration_s: f64,
    /// Longest gap between in-order progress events, simulated ms.
    pub stall_ms: f64,
    /// Completed with every byte identical to the object served.
    pub ok: bool,
    /// Bytes delivered in order and identical to the object's prefix.
    pub intact_bytes: u64,
}

/// Everything one or more simulations produced.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Host wall seconds spent inside `run_until_idle`.
    pub run_wall_s: f64,
    /// Per-flow results, in flow order.
    pub flows: Vec<FlowResult>,
    /// The layers' counters, summed.
    pub counts: LayerCounts,
    /// Host nanoseconds inside each layer's callbacks ([`LAYERS`] order;
    /// zero unless traced).
    pub busy_ns: [u64; 4],
    /// Callbacks delivered to each layer (zero unless traced).
    pub calls: [u64; 4],
    /// Ingress data packets recorded at each encoder gateway, one
    /// session per gateway per simulation (empty unless traced).
    pub taps: Vec<Session>,
    /// Host nanoseconds the recorded event-queue schedules took to replay
    /// through a fresh queue alone (zero unless traced). Each schedule is
    /// replayed and dropped as soon as its simulation ends: a crowd's
    /// schedules together would outweigh the crowd.
    pub queue_replay_ns: u64,
}

impl SimOutcome {
    /// Fold another outcome (a later download of the sweep) into this one.
    pub fn merge(&mut self, other: SimOutcome) {
        self.run_wall_s += other.run_wall_s;
        self.flows.extend(other.flows);
        self.counts.add(&other.counts);
        for i in 0..4 {
            self.busy_ns[i] += other.busy_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.taps.extend(other.taps);
        self.queue_replay_ns += other.queue_replay_ns;
    }
}

/// A constructed, not yet started simulation.
pub struct Built {
    sim: Simulator,
    spec: TopoSpec,
    objects: Vec<Bytes>,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    gateways: Vec<(NodeId, NodeId)>,
    hops: Vec<LinkId>,
}

/// Packets one encoder-gateway tap keeps at most.
const TAP_CAP: usize = 60_000;

fn add<N: Node + Any + Send>(sim: &mut Simulator, node: N, traced: bool, tap: usize) -> NodeId {
    if traced {
        sim.add_node(Timed::with_tap(node, tap))
    } else {
        sim.add_node(node)
    }
}

/// Borrow node `id` as an `N`, wrapped or not; with its busy time and
/// callback count when wrapped.
fn peek<N: Any>(sim: &Simulator, id: NodeId) -> (&N, u64, u64, &[Packet]) {
    if let Some(t) = sim.node::<Timed<N>>(id) {
        (t.inner(), t.busy_ns(), t.calls(), t.tap())
    } else {
        (sim.node::<N>(id).expect("node type"), 0, 0, &[])
    }
}

impl Built {
    /// Build the topology for `flows` under `spec`.
    #[must_use]
    pub fn new(spec: TopoSpec, flows: &[FlowDef]) -> Self {
        let mut sim = Simulator::new(spec.sim_seed);
        if spec.traced {
            sim.record_schedule();
        }
        let tcp = tcp_config();
        let lan = LinkConfig {
            rate_bytes_per_sec: None,
            propagation: SimDuration::from_micros(LAN_DELAY_US),
            channel: ChannelConfig::clean(),
        };
        let pair_clients = |pair: usize| {
            (0..flows.len())
                .filter(move |f| f % spec.pairs == pair)
                .map(|f| flow_addr(f, 2))
        };
        let hop = |loss| {
            LinkConfig::wireless(spec.link_rate, SimDuration::from_micros(HOP_DELAY_US), loss)
        };
        let mut gateways = Vec::with_capacity(spec.pairs);
        let mut hops = Vec::with_capacity(spec.pairs);
        for pair in 0..spec.pairs {
            let (enc, dec) = match spec.policy {
                Some(kind) => {
                    let dre = DreConfig::default();
                    let enc = EncoderGateway::for_destinations(
                        Encoder::new(dre.clone(), kind.build()),
                        pair_clients(pair),
                    );
                    let dec = DecoderGateway::for_destinations(
                        Decoder::new(dre),
                        pair_clients(pair),
                        gateway_addr(pair),
                    );
                    (
                        add(
                            &mut sim,
                            enc,
                            spec.traced,
                            if spec.tap { TAP_CAP } else { 0 },
                        ),
                        add(&mut sim, dec, spec.traced, 0),
                    )
                }
                None => (sim.add_node(PassThrough), sim.add_node(PassThrough)),
            };
            hops.push(sim.add_link(enc, dec, hop(spec.loss)));
            sim.add_link(dec, enc, hop(0.0));
            gateways.push((enc, dec));
        }
        let mut servers = Vec::with_capacity(flows.len());
        let mut clients = Vec::with_capacity(flows.len());
        for (f, flow) in flows.iter().enumerate() {
            let (enc, dec) = gateways[f % spec.pairs];
            let (server_ip, client_ip) = (flow_addr(f, 1), flow_addr(f, 2));
            let server = add(
                &mut sim,
                TcpServerNode::new(server_ip, SERVER_PORT, flow.object.clone(), tcp.clone()),
                spec.traced,
                0,
            );
            let client = add(
                &mut sim,
                TcpClientNode::new(client_ip, CLIENT_PORT, server_ip, SERVER_PORT, tcp.clone())
                    .with_start_delay(SimDuration::from_micros(flow.start_us)),
                spec.traced,
                0,
            );
            sim.add_duplex_link(server, enc, lan.clone());
            sim.add_duplex_link(dec, client, lan.clone());
            sim.add_route(server, client_ip, enc);
            sim.add_route(enc, client_ip, dec);
            sim.add_route(dec, client_ip, client);
            sim.add_route(client, server_ip, dec);
            sim.add_route(dec, server_ip, enc);
            sim.add_route(enc, server_ip, server);
            servers.push(server);
            clients.push(client);
        }
        Built {
            sim,
            spec,
            objects: flows.iter().map(|f| f.object.clone()).collect(),
            servers,
            clients,
            gateways,
            hops,
        }
    }

    /// Run to idle, check every delivered byte against the object served,
    /// and collect the layers' counters.
    #[must_use]
    pub fn run(mut self) -> SimOutcome {
        let started = Instant::now();
        let end = self.sim.run_until_idle();
        let mut out = SimOutcome {
            run_wall_s: started.elapsed().as_secs_f64(),
            ..SimOutcome::default()
        };
        let sim = &self.sim;
        for ((&server, &client), object) in
            self.servers.iter().zip(&self.clients).zip(&self.objects)
        {
            let (s, s_busy, s_calls, _) = peek::<TcpServerNode>(sim, server);
            let (c, c_busy, c_calls, _) = peek::<TcpClientNode>(sim, client);
            let report = c.report();
            let received = c.received();
            let intact = object.starts_with(received);
            let ok = report.complete && intact && received.len() == object.len();
            out.flows.push(FlowResult {
                duration_s: report
                    .duration()
                    .filter(|_| ok)
                    .map_or(end.as_secs_f64(), SimDuration::as_secs_f64),
                stall_ms: report.max_stall.map_or(0.0, |d| d.as_micros() as f64 / 1e3),
                ok,
                intact_bytes: if intact { received.len() as u64 } else { 0 },
            });
            out.counts.add_tcp(s.report(), report);
            out.busy_ns[0] += s_busy;
            out.calls[0] += s_calls;
            out.busy_ns[1] += c_busy;
            out.calls[1] += c_calls;
        }
        for (&(enc, dec), &hop) in self.gateways.iter().zip(&self.hops) {
            out.counts.add_link(sim.link_stats(hop));
            let Some(policy) = self.spec.policy else {
                continue;
            };
            let (e, e_busy, e_calls, tap) = peek::<EncoderGateway>(sim, enc);
            let (d, d_busy, d_calls, _) = peek::<DecoderGateway>(sim, dec);
            out.counts.add_gateways(e, d);
            out.busy_ns[2] += e_busy;
            out.calls[2] += e_calls;
            out.busy_ns[3] += d_busy;
            out.calls[3] += d_calls;
            if self.spec.tap {
                out.taps.push(Session {
                    policy,
                    packets: tap
                        .iter()
                        .filter(|p| p.tcp.src_port == SERVER_PORT)
                        .cloned()
                        .collect(),
                });
            }
        }
        out.counts.sim_events = sim.events_processed();
        if self.spec.traced {
            let schedule = self.sim.take_schedule();
            out.counts.wheel_schedule_ops = schedule.len() as u64;
            out.queue_replay_ns = replay_queue(&schedule);
        }
        out
    }
}

/// How a run treats the gateways and the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The measured configuration: DRE gateways, no instrumentation.
    Plain,
    /// DRE gateways, every node clocked, schedule and ingress recorded.
    Traced,
    /// Pass-through boxes instead of gateways (`sim.no_dre_ns_per_event`).
    NoDre,
}

/// One simulation of a workload. Both simulated workloads are laps of
/// these, run back to back, each built from scratch inside the timed
/// section (caches start empty: users pay that on every run).
#[derive(Debug, Clone)]
pub struct SimJob {
    /// What the job is, for the failed-download notes.
    pub label: String,
    /// Topology and channel.
    pub spec: TopoSpec,
    /// The downloads.
    pub flows: Vec<FlowDef>,
}

/// Run one lap of `jobs` under `mode`; returns the merged outcome and the
/// jobs in which a download did not deliver its object.
#[must_use]
pub fn run_jobs(jobs: &[SimJob], mode: Mode) -> (SimOutcome, Vec<&SimJob>) {
    let mut total = SimOutcome::default();
    let mut failed = Vec::new();
    for job in jobs {
        // Ingress is recorded only until the layer replays have enough.
        let tapped: u64 = total.taps.iter().map(Session::payload_bytes).sum();
        let spec = TopoSpec {
            policy: job.spec.policy.filter(|_| mode != Mode::NoDre),
            traced: mode == Mode::Traced,
            tap: mode == Mode::Traced && tapped < REPLAY_CAP_BYTES,
            ..job.spec
        };
        let outcome = Built::new(spec, &job.flows).run();
        if outcome.flows.iter().any(|f| !f.ok) {
            failed.push(job);
        }
        total.merge(outcome);
    }
    (total, failed)
}

/// The paper's wireless hop: 1 MB/s.
const PAPER_LINK_RATE: u64 = 1_000_000;

// ---------------------------------------------------------------- sweep

/// Size of the paper sweep.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Object size in bytes (paper: 587,567).
    pub object_size: usize,
    /// Bernoulli loss rates of the grid.
    pub losses: Vec<f64>,
    /// Channel seeds per (file, policy, loss) cell.
    pub seeds_per_cell: usize,
}

/// The sweep's policies: the paper's three fixes.
pub const SWEEP_POLICIES: [PolicyKind; 3] = [
    PolicyKind::CacheFlush,
    PolicyKind::TcpSeq,
    PolicyKind::KDistance(8),
];

/// Lay out the grid from `seed`: one lap per seed index, holding one
/// single-flow job per (file, policy, loss). Every seed index generates
/// its own File 1 and File 2 (a generated file's redundancy varies by a
/// per cent or two with its seed, and with one pair per run that was most
/// of `air_byte_ratio`'s seed-to-seed variation). Policies at one (file,
/// loss, seed index) share the file and the simulator seed, as in the
/// paper's equal-channel comparisons.
#[must_use]
pub fn sweep_jobs(params: &SweepParams, seed: u64) -> Vec<Vec<SimJob>> {
    let mut laps = Vec::new();
    for seed_index in 0..params.seeds_per_cell {
        let file_seed = |file: u64| mix(mix(seed, 0xF11E_0000 + file), seed_index as u64);
        let files = [
            Bytes::from(FileSpec::File1.build(params.object_size, file_seed(1))),
            Bytes::from(FileSpec::File2.build(params.object_size, file_seed(2))),
        ];
        let mut jobs = Vec::new();
        for (file, object) in files.iter().enumerate() {
            for policy in SWEEP_POLICIES {
                for (loss_index, &loss) in params.losses.iter().enumerate() {
                    let cell = (file * params.losses.len() + loss_index) as u64;
                    jobs.push(SimJob {
                        label: format!(
                            "File {} / {} / loss {loss} / seed index {seed_index}",
                            file + 1,
                            policy.label()
                        ),
                        spec: TopoSpec {
                            sim_seed: mix(mix(seed, cell), seed_index as u64),
                            pairs: 1,
                            policy: Some(policy),
                            loss,
                            link_rate: PAPER_LINK_RATE,
                            traced: false,
                            tap: false,
                        },
                        flows: vec![FlowDef {
                            object: object.clone(),
                            start_us: 0,
                        }],
                    });
                }
            }
        }
        laps.push(jobs);
    }
    laps
}

// ----------------------------------------------------------------- mice

/// Size of the mice crowd.
#[derive(Debug, Clone)]
pub struct MiceParams {
    /// Simulations, run back to back.
    pub rounds: usize,
    /// Rounds in one lap of the timed section; divides `rounds`.
    pub rounds_per_lap: usize,
    /// Downloads per simulation.
    pub flows: usize,
    /// Gateway pairs.
    pub pairs: usize,
    /// Objects in the catalog.
    pub catalog: usize,
    /// Bytes per object (one small segment).
    pub object_size: usize,
    /// Zipf popularity exponent.
    pub zipf: f64,
    /// Mean Poisson inter-arrival, microseconds of simulated time.
    pub mean_interarrival_us: f64,
}

/// Generate the catalog and one open-loop arrival plan per round from
/// `seed`; every round is one job, `rounds_per_lap` of them a lap.
#[must_use]
pub fn mice_jobs(params: &MiceParams, seed: u64) -> Vec<Vec<SimJob>> {
    let catalog: Vec<Bytes> = (0..params.catalog)
        .map(|i| {
            Bytes::from(generate(
                ObjectKind::WebPage,
                params.object_size,
                mix(seed, 0x0B_0000 + i as u64),
            ))
        })
        .collect();
    let rounds: Vec<SimJob> = (0..params.rounds)
        .map(|round| {
            let round_seed = mix(seed, 0xA221 + round as u64);
            let plan = flash_crowd(
                params.flows,
                params.catalog,
                params.zipf,
                params.mean_interarrival_us,
                round_seed,
            );
            SimJob {
                label: format!("round {round}"),
                spec: TopoSpec {
                    sim_seed: round_seed,
                    pairs: params.pairs,
                    policy: Some(PolicyKind::CacheFlush),
                    loss: 0.0,
                    link_rate: PAPER_LINK_RATE,
                    traced: false,
                    tap: false,
                },
                flows: plan
                    .iter()
                    .map(|f| FlowDef {
                        object: catalog[f.object].clone(),
                        start_us: f.start_us,
                    })
                    .collect(),
            }
        })
        .collect();
    rounds
        .chunks(params.rounds_per_lap)
        .map(<[SimJob]>::to_vec)
        .collect()
}
