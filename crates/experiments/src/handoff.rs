//! Gateway-handoff sweep — mobility across cache-equipped gateways with
//! two handoff strategies, on multi-hop topologies built from
//! [`Topology`]/[`Mobility`].
//!
//! The paper (§II) argues IP-level byte caching survives mobility
//! because the end-to-end TCP session is preserved. This harness goes
//! further and asks what happens to the *caches* when the client moves
//! between gateways that each hold byte-cache state:
//!
//! * [`HandoffStrategy::Resync`] — the new gateway starts cold and
//!   arms the generation handshake (wipe → stale-generation drops →
//!   `MSG_RESYNC` → encoder flush + generation bump). Correct, but the
//!   encoder cache is sacrificed at every hop.
//! * [`HandoffStrategy::Migrate`] — the old gateway's decoder state is
//!   serialized ([`DecoderState`](bytecache::DecoderState), bounded by
//!   `migrate_budget`) and imported into the new gateway out of band.
//!   The generation carries over, so encoding continues warm.
//!
//! Two topology shapes exercise the subsystem:
//!
//! * [`TopologyShape::Chain2Hop`] — a *cache chain*: two independent
//!   encoder/decoder pairs in series
//!   (`server — e1 ══ d1 — e2 ══ {d2a, d2b} — client`), with one
//!   handoff on the second hop. Per-hop wire bytes against a paired
//!   pass-through baseline answer the cascaded-DRE question: does the
//!   second hop still compress after the first already did?
//! * [`TopologyShape::Mesh4`] — one encoder hub, four decoder gateways
//!   in a LAN mesh, the client hopping `d1 → d2 → d3 → d4`.
//!
//! Every cell runs paired transfers sharing the seed: a pass-through
//! baseline (same topology, same mobility schedule, no DRE) and the
//! DRE run. Reported: stall means, bytes sacrificed (wire ratio vs
//! baseline), per-hop savings, resync/migration counts, and in-flight
//! drops at the handoff boundary. [`determinism_check`] asserts the
//! whole thing is byte-identical on both `QueueKind`s and with
//! telemetry on or off.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache::{Decoder, DreConfig, Encoder, PolicyKind};
use bytecache_netsim::channel::ChannelConfig;
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{LinkConfig, LinkId, Mobility, NodeId, QueueKind, Simulator, Topology};
use bytecache_tcp::{TcpClientNode, TcpConfig, TcpServerNode};
use bytecache_telemetry::Recorder;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::{self, Campaign, IdentityCheck};
use crate::report::Table;
use crate::scenario::addrs::{CLIENT, CLIENT_PORT, SERVER, SERVER_PORT};
use crate::scenario::PassThrough;

/// Control address of the first (or only) encoder gateway.
const CTRL_A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
/// Control address of the chain's second encoder gateway.
const CTRL_B: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);

/// Local address of decoder gateway `i` (NACK/control source).
fn decoder_addr(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, i + 1)
}

/// How the new gateway acquires cache state at a handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoffStrategy {
    /// Cold start + generation handshake: the new gateway wipes and the
    /// encoder answers the resulting resync with a flush and a
    /// generation bump.
    Resync,
    /// Warm start: the old gateway's decoder snapshot is transferred
    /// out of band and imported, generation carried over.
    Migrate,
}

impl HandoffStrategy {
    /// Stable lowercase label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HandoffStrategy::Resync => "resync",
            HandoffStrategy::Migrate => "migrate",
        }
    }
}

/// Which multi-hop topology the sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyShape {
    /// Two encoder/decoder pairs in series; the handoff moves the
    /// client between two gateways on the second hop.
    Chain2Hop,
    /// One encoder hub and four decoder gateways in a LAN mesh; three
    /// handoffs walk the client across all four.
    Mesh4,
}

impl TopologyShape {
    /// Stable lowercase label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TopologyShape::Chain2Hop => "chain2hop",
            TopologyShape::Mesh4 => "mesh4",
        }
    }

    /// Number of DRE hops (encoder → decoder segments) in the shape.
    #[must_use]
    pub fn hops(self) -> usize {
        match self {
            TopologyShape::Chain2Hop => 2,
            TopologyShape::Mesh4 => 1,
        }
    }
}

/// Handoff sweep parameters.
#[derive(Debug, Clone)]
pub struct HandoffParams {
    /// Object size in bytes.
    pub object_size: usize,
    /// Loss rates on the wireless attachment links (both directions —
    /// [`Topology::connect`] builds a symmetric duplex edge).
    pub losses: Vec<f64>,
    /// Strategies to compare.
    pub strategies: Vec<HandoffStrategy>,
    /// Topology shapes to run.
    pub shapes: Vec<TopologyShape>,
    /// Whether to additionally wipe the serving gateway's cache before
    /// the first handoff (recovery × mobility interplay).
    pub wipe: Vec<bool>,
    /// Seeds per cell.
    pub seeds: u64,
    /// First handoff time in ms; later mesh hops land at 2× and 3×,
    /// the optional wipe at half.
    pub handoff_ms: u64,
    /// Bound on the serialized migration transfer; oldest entries are
    /// shed first. `None` transfers everything.
    pub migrate_budget: Option<usize>,
    /// Event-queue kind; `None` uses the timing wheel. The
    /// [`determinism_check`] covers both kinds regardless.
    pub queue: Option<QueueKind>,
}

impl HandoffParams {
    /// The `--quick` grid: both shapes, both strategies, clean and
    /// lossy attachment links.
    #[must_use]
    pub fn quick(seeds: u64) -> Self {
        HandoffParams {
            object_size: 150_000,
            losses: vec![0.0, 0.03],
            strategies: vec![HandoffStrategy::Resync, HandoffStrategy::Migrate],
            shapes: vec![TopologyShape::Chain2Hop, TopologyShape::Mesh4],
            wipe: vec![false],
            seeds,
            handoff_ms: 150,
            migrate_budget: Some(512 * 1024),
            queue: None,
        }
    }

    /// Full grid: adds the wipe interplay and a heavier loss rate.
    #[must_use]
    pub fn full(seeds: u64) -> Self {
        HandoffParams {
            object_size: 600_000,
            losses: vec![0.0, 0.03, 0.08],
            strategies: vec![HandoffStrategy::Resync, HandoffStrategy::Migrate],
            shapes: vec![TopologyShape::Chain2Hop, TopologyShape::Mesh4],
            wipe: vec![false, true],
            seeds,
            handoff_ms: 400,
            migrate_budget: Some(512 * 1024),
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

/// One cell of the handoff sweep (means over completed paired runs,
/// counters summed over all runs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HandoffPoint {
    /// Topology shape.
    pub shape: TopologyShape,
    /// Handoff strategy.
    pub strategy: HandoffStrategy,
    /// Wireless loss rate.
    pub loss: f64,
    /// Whether the pre-handoff wipe was injected.
    pub wipe: bool,
    /// Mean longest in-order-progress gap of the DRE runs, ms.
    pub stall_ms: f64,
    /// Mean longest gap of the paired pass-through baselines, ms.
    pub baseline_stall_ms: f64,
    /// Mean wire-bytes ratio over all DRE hops (DRE / baseline) — the
    /// bytes sacrificed to the handoff strategy.
    pub bytes_ratio: f64,
    /// Mean per-hop wire-bytes ratio (hop 1 first). Two entries for
    /// the chain (the cascaded-DRE question), one for the mesh.
    pub hop_ratios: Vec<f64>,
    /// Generation resyncs completed by decoders, summed over runs.
    pub resyncs: u64,
    /// Resync requests sent (initial sends), summed over runs.
    pub resyncs_sent: u64,
    /// Per-entry repair requests sent, summed over runs.
    pub repairs: u64,
    /// Cache migrations performed, summed over runs.
    pub migrations: u64,
    /// Serialized migration bytes transferred, summed over runs.
    pub migration_bytes: u64,
    /// Attach transitions (completed handoffs), summed over runs.
    pub handoffs: u64,
    /// Packets dropped in flight at detached gateways, summed.
    pub in_flight_drops: u64,
    /// Paired runs where both transfers completed with intact data.
    pub runs: usize,
    /// Paired runs excluded from the means (either side incomplete).
    pub failures: usize,
    /// DRE runs that delivered corrupted bytes — must be zero.
    pub corrupted: usize,
}

/// Everything one simulation produced (internal).
struct OneRun {
    complete: bool,
    intact: bool,
    stall_ms: f64,
    /// Data-direction wire bytes per DRE hop (encoder → decoder links).
    hop_wire: Vec<u64>,
    resyncs: u64,
    resyncs_sent: u64,
    repairs: u64,
    migrations: u64,
    migration_bytes: u64,
    attaches: u64,
    in_flight_drops: u64,
    digest: String,
    telemetry: Option<Recorder>,
}

/// A handoff action applied at a simulated time (internal).
enum Action {
    Wipe(NodeId),
    Handoff { from: NodeId, to: NodeId },
}

struct Net {
    topo: Topology,
    client: NodeId,
    /// Encoder gateways (DRE runs only; pass-through nodes otherwise).
    encoders: Vec<NodeId>,
    /// Every decoder-gateway node, digest order.
    decoders: Vec<NodeId>,
    /// Decoder gateways in client-service order (the handoff schedule
    /// walks this list).
    schedule: Vec<NodeId>,
    /// Data-direction links per DRE hop.
    hop_links: Vec<Vec<LinkId>>,
}

fn lan() -> LinkConfig {
    LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_micros(500),
        channel: ChannelConfig::clean(),
    }
}

/// Wireless attachment link; `loss` applies to both directions (the
/// duplex [`Topology::connect`] shares one config per edge).
fn wifi(loss: f64) -> LinkConfig {
    LinkConfig {
        rate_bytes_per_sec: Some(1_000_000),
        propagation: SimDuration::from_millis(10),
        channel: ChannelConfig::lossy(loss),
    }
}

fn tcp() -> TcpConfig {
    TcpConfig {
        // Linux's default: ride out lossy handoffs without aborting.
        max_retries: 15,
        ..TcpConfig::default()
    }
}

fn dre_config() -> DreConfig {
    DreConfig::default()
}

fn add_encoder(sim: &mut Simulator, dre: bool, ctrl: Ipv4Addr) -> NodeId {
    if dre {
        sim.add_node(
            EncoderGateway::new(
                Encoder::new(dre_config(), PolicyKind::CacheFlush.build()),
                CLIENT,
            )
            .with_control_addr(ctrl)
            .with_wire_gen(true),
        )
    } else {
        sim.add_node(PassThrough)
    }
}

fn add_decoder(
    sim: &mut Simulator,
    dre: bool,
    index: u8,
    ctrl: Ipv4Addr,
    attached: bool,
) -> NodeId {
    if dre {
        sim.add_node(
            DecoderGateway::new(Decoder::new(dre_config()), CLIENT, decoder_addr(index))
                .with_nacks(ctrl)
                .with_recovery(true)
                .with_attached(attached),
        )
    } else {
        sim.add_node(PassThrough)
    }
}

/// Assemble the chain: `server — e1 ══ d1 — e2 ══ {d2a, d2b} — client`,
/// client initially attached via `d2a`.
fn build_chain(sim: &mut Simulator, loss: f64, object: &[u8], dre: bool) -> Net {
    let server = sim.add_node(TcpServerNode::new(
        SERVER,
        SERVER_PORT,
        object.to_vec(),
        tcp(),
    ));
    let e1 = add_encoder(sim, dre, CTRL_A);
    let d1 = add_decoder(sim, dre, 0, CTRL_A, true);
    let e2 = add_encoder(sim, dre, CTRL_B);
    let d2a = add_decoder(sim, dre, 1, CTRL_B, true);
    let d2b = add_decoder(sim, dre, 2, CTRL_B, false);
    let client = sim.add_node(TcpClientNode::new(
        CLIENT,
        CLIENT_PORT,
        SERVER,
        SERVER_PORT,
        tcp(),
    ));

    let mut topo = Topology::new();
    topo.connect(sim, server, e1, lan());
    topo.connect(sim, e1, d1, wifi(loss));
    topo.connect(sim, d1, e2, lan());
    topo.connect(sim, e2, d2a, wifi(loss));
    topo.connect(sim, e2, d2b, wifi(loss));
    topo.connect(sim, d2a, client, lan());
    topo.connect(sim, d2b, client, lan());
    topo.set_edge(d2b, client, false);

    topo.bind(server, SERVER);
    topo.bind(client, CLIENT);
    topo.bind(e1, CTRL_A);
    topo.bind(e2, CTRL_B);
    topo.bind(d1, decoder_addr(0));
    topo.bind(d2a, decoder_addr(1));
    topo.bind(d2b, decoder_addr(2));
    topo.install_routes(sim);

    let hop_links = vec![
        vec![topo.links(e1, d1).0],
        vec![topo.links(e2, d2a).0, topo.links(e2, d2b).0],
    ];
    Net {
        topo,
        client,
        encoders: vec![e1, e2],
        decoders: vec![d1, d2a, d2b],
        schedule: vec![d2a, d2b],
        hop_links,
    }
}

/// Assemble the mesh: `server — e0 ══ {d1..d4} — client`, the four
/// decoder gateways also meshed over the LAN, client starting at `d1`.
fn build_mesh(sim: &mut Simulator, loss: f64, object: &[u8], dre: bool) -> Net {
    let server = sim.add_node(TcpServerNode::new(
        SERVER,
        SERVER_PORT,
        object.to_vec(),
        tcp(),
    ));
    let e0 = add_encoder(sim, dre, CTRL_A);
    let gws: Vec<NodeId> = (0..4)
        .map(|i| add_decoder(sim, dre, i, CTRL_A, i == 0))
        .collect();
    let client = sim.add_node(TcpClientNode::new(
        CLIENT,
        CLIENT_PORT,
        SERVER,
        SERVER_PORT,
        tcp(),
    ));

    let mut topo = Topology::new();
    topo.connect(sim, server, e0, lan());
    for &g in &gws {
        topo.connect(sim, e0, g, wifi(loss));
    }
    for (i, &a) in gws.iter().enumerate() {
        for &b in &gws[i + 1..] {
            topo.connect(sim, a, b, lan());
        }
    }
    for (i, &g) in gws.iter().enumerate() {
        topo.connect(sim, g, client, lan());
        if i != 0 {
            topo.set_edge(g, client, false);
        }
    }

    topo.bind(server, SERVER);
    topo.bind(client, CLIENT);
    topo.bind(e0, CTRL_A);
    for (i, &g) in gws.iter().enumerate() {
        topo.bind(g, decoder_addr(i as u8));
    }
    topo.install_routes(sim);

    let hop_links = vec![gws.iter().map(|&g| topo.links(e0, g).0).collect()];
    Net {
        topo,
        client,
        encoders: vec![e0],
        decoders: gws.clone(),
        schedule: gws,
        hop_links,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    shape: TopologyShape,
    strategy: HandoffStrategy,
    loss: f64,
    wipe: bool,
    object: &[u8],
    seed: u64,
    handoff_ms: u64,
    queue: QueueKind,
    migrate_budget: Option<usize>,
    dre: bool,
    telemetry: bool,
) -> OneRun {
    let mut sim = Simulator::new(seed);
    sim.set_queue_kind(queue);
    if telemetry {
        sim.set_telemetry_enabled(true);
    }

    let mut net = match shape {
        TopologyShape::Chain2Hop => build_chain(&mut sim, loss, object, dre),
        TopologyShape::Mesh4 => build_mesh(&mut sim, loss, object, dre),
    };
    if telemetry && dre {
        for &g in &net.decoders {
            sim.node_mut::<DecoderGateway>(g)
                .expect("decoder gateway")
                .set_telemetry_enabled(true);
        }
        for &e in &net.encoders {
            sim.node_mut::<EncoderGateway>(e)
                .expect("encoder gateway")
                .set_telemetry_enabled(true);
        }
    }

    // The mobility script reroutes at each hop; the matching cache
    // actions (detach/wipe/migrate/attach) are applied from the host
    // between run_until segments at the same instants.
    let hop_at = |i: usize| SimTime::ZERO + SimDuration::from_millis((i as u64 + 1) * handoff_ms);
    let mut script = Mobility::new(CLIENT);
    for (i, pair) in net.schedule.windows(2).enumerate() {
        script = script.hop(hop_at(i), pair[0], pair[1]);
    }
    script.apply(&mut net.topo, &mut sim);

    let mut actions: Vec<(SimTime, Action)> = Vec::new();
    if dre {
        if wipe {
            actions.push((
                SimTime::ZERO + SimDuration::from_millis(handoff_ms / 2),
                Action::Wipe(net.schedule[0]),
            ));
        }
        for (i, pair) in net.schedule.windows(2).enumerate() {
            actions.push((
                hop_at(i),
                Action::Handoff {
                    from: pair[0],
                    to: pair[1],
                },
            ));
        }
    }

    for (at, action) in actions {
        sim.run_until(at);
        match action {
            Action::Wipe(gw) => {
                sim.node_mut::<DecoderGateway>(gw)
                    .expect("serving gateway")
                    .wipe_cache();
            }
            Action::Handoff { from, to } => {
                let state = {
                    let old = sim.node_mut::<DecoderGateway>(from).expect("old gateway");
                    old.set_attached(false, from.index() as u64);
                    match strategy {
                        HandoffStrategy::Migrate => Some(old.export_decoder_state(migrate_budget)),
                        HandoffStrategy::Resync => None,
                    }
                };
                let new = sim.node_mut::<DecoderGateway>(to).expect("new gateway");
                match state {
                    Some(state) => new.import_decoder_state(state),
                    // Cold start: arm the generation handshake so the
                    // first stale shim triggers one clean resync rather
                    // than a per-entry repair storm.
                    None => new.wipe_cache(),
                }
                new.set_attached(true, to.index() as u64);
            }
        }
    }
    let end = sim.run_until_idle();

    let client_node = sim.node::<TcpClientNode>(net.client).expect("client");
    let report = client_node.report().clone();
    let intact = if report.complete {
        client_node.received() == object
    } else {
        object.starts_with(client_node.received())
    };
    let stall_ms = report.max_stall.map_or(0.0, |d| d.as_secs_f64() * 1_000.0);
    let hop_wire: Vec<u64> = net
        .hop_links
        .iter()
        .map(|links| links.iter().map(|&l| sim.link_stats(l).bytes_offered).sum())
        .collect();

    let mut digest = String::new();
    let _ = writeln!(
        digest,
        "shape={} strategy={} loss={loss} wipe={wipe} seed={seed} dre={dre}",
        shape.label(),
        strategy.label(),
    );
    let _ = writeln!(
        digest,
        "end_us={} complete={} intact={intact} bytes={} stall_us={}",
        end.as_micros(),
        report.complete,
        report.bytes_delivered,
        report.max_stall.map_or(0, |d| d.as_micros()),
    );
    for (i, wire) in hop_wire.iter().enumerate() {
        let _ = writeln!(digest, "hop{i} wire={wire}");
    }

    let mut resyncs = 0u64;
    let mut resyncs_sent = 0u64;
    let mut repairs = 0u64;
    let mut migrations = 0u64;
    let mut migration_bytes = 0u64;
    let mut attaches = 0u64;
    let mut recorder = if telemetry {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    if dre {
        for (i, &g) in net.decoders.iter().enumerate() {
            let gw = sim.node::<DecoderGateway>(g).expect("decoder gateway");
            let stats = gw.stats();
            resyncs += stats.resyncs;
            resyncs_sent += gw.resyncs_sent();
            repairs += gw.recovery_requests();
            migrations += gw.migrations();
            migration_bytes += gw.migration_bytes();
            attaches += gw.attaches();
            let _ = writeln!(
                digest,
                "gw{i} stats={stats:?} dropped={} resyncs_sent={} repairs={} retries={} \
                 det={} att={} mig={} mig_bytes={} carry={:?}",
                gw.dropped(),
                gw.resyncs_sent(),
                gw.recovery_requests(),
                gw.recovery_retries(),
                gw.detaches(),
                gw.attaches(),
                gw.migrations(),
                gw.migration_bytes(),
                gw.last_carry_gen(),
            );
            if telemetry {
                recorder.merge(&gw.telemetry_snapshot());
            }
        }
        for (i, &e) in net.encoders.iter().enumerate() {
            let enc = sim.node::<EncoderGateway>(e).expect("encoder gateway");
            let _ = writeln!(digest, "enc{i} stats={:?}", enc.stats());
            if telemetry {
                recorder.merge(&enc.telemetry_snapshot());
            }
        }
    }
    let _ = writeln!(digest, "no_route_drops={}", sim.no_route_drops());
    if telemetry {
        let mut sim_tele = sim.telemetry_snapshot();
        sim_tele.strip_wall_clock();
        recorder.merge(&sim_tele);
    }

    OneRun {
        complete: report.complete,
        intact,
        stall_ms,
        hop_wire,
        resyncs,
        resyncs_sent,
        repairs,
        migrations,
        migration_bytes,
        attaches,
        in_flight_drops: sim.no_route_drops(),
        digest,
        telemetry: telemetry.then_some(recorder),
    }
}

/// Run the sweep; one [`HandoffPoint`] per (shape, strategy, loss,
/// wipe) cell, plus the DRE runs' telemetry merged in input order (empty
/// unless the campaign collects it). Results are identical for every
/// thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &HandoffParams) -> (Vec<HandoffPoint>, Recorder) {
    let mut cells = Vec::new();
    for &shape in &params.shapes {
        for &strategy in &params.strategies {
            for &loss in &params.losses {
                for &wipe in &params.wipe {
                    cells.push((shape, strategy, loss, wipe));
                }
            }
        }
    }
    campaign.run_recorded("handoff", cells, |(shape, strategy, loss, wipe), rec| {
        point(params, shape, strategy, loss, wipe, rec)
    })
}

fn point(
    params: &HandoffParams,
    shape: TopologyShape,
    strategy: HandoffStrategy,
    loss: f64,
    wipe: bool,
    rec: &mut Recorder,
) -> HandoffPoint {
    let object = FileSpec::File1.build(params.object_size, 42);
    let queue = params.queue.unwrap_or(QueueKind::Wheel);
    let hops = shape.hops();
    let mut stall_sum = 0.0;
    let mut baseline_stall_sum = 0.0;
    let mut ratio_sum = 0.0;
    let mut hop_ratio_sums = vec![0.0; hops];
    let mut resyncs = 0u64;
    let mut resyncs_sent = 0u64;
    let mut repairs = 0u64;
    let mut migrations = 0u64;
    let mut migration_bytes = 0u64;
    let mut handoffs = 0u64;
    let mut in_flight_drops = 0u64;
    let mut runs = 0usize;
    let mut failures = 0usize;
    let mut corrupted = 0usize;
    let one = |seed, wipe, dre, telemetry| {
        run_one(
            shape,
            strategy,
            loss,
            wipe,
            &object,
            seed,
            params.handoff_ms,
            queue,
            params.migrate_budget,
            dre,
            telemetry,
        )
    };
    for seed in 0..params.seeds {
        let baseline = one(seed, false, false, false);
        let dre = one(seed, wipe, true, rec.is_enabled());
        if let Some(snapshot) = &dre.telemetry {
            rec.merge(snapshot);
        }
        if !dre.intact {
            corrupted += 1;
        }
        resyncs += dre.resyncs;
        resyncs_sent += dre.resyncs_sent;
        repairs += dre.repairs;
        migrations += dre.migrations;
        migration_bytes += dre.migration_bytes;
        handoffs += dre.attaches;
        in_flight_drops += dre.in_flight_drops;
        if baseline.complete && dre.complete && dre.intact {
            stall_sum += dre.stall_ms;
            baseline_stall_sum += baseline.stall_ms;
            let dre_total: u64 = dre.hop_wire.iter().sum();
            let base_total: u64 = baseline.hop_wire.iter().sum();
            ratio_sum += dre_total as f64 / base_total.max(1) as f64;
            for (sum, (&d, &b)) in hop_ratio_sums
                .iter_mut()
                .zip(dre.hop_wire.iter().zip(baseline.hop_wire.iter()))
            {
                *sum += d as f64 / b.max(1) as f64;
            }
            runs += 1;
        } else {
            failures += 1;
        }
    }
    let n = runs.max(1) as f64;
    HandoffPoint {
        shape,
        strategy,
        loss,
        wipe,
        stall_ms: stall_sum / n,
        baseline_stall_ms: baseline_stall_sum / n,
        bytes_ratio: ratio_sum / n,
        hop_ratios: hop_ratio_sums.iter().map(|s| s / n).collect(),
        resyncs,
        resyncs_sent,
        repairs,
        migrations,
        migration_bytes,
        handoffs,
        in_flight_drops,
        runs,
        failures,
        corrupted,
    }
}

/// Assert the handoff subsystem's determinism contract on every
/// (shape, strategy) of `params` through [`campaign::determinism_check`]:
/// the run digest — delivery, per-hop wire bytes, every gateway's
/// counters, the final clock — must be byte-identical on
/// [`QueueKind::Heap`] and [`QueueKind::Wheel`] and with telemetry
/// collection on or off.
#[must_use]
pub fn determinism_check(params: &HandoffParams) -> IdentityCheck {
    let object = FileSpec::File1.build(params.object_size, 42);
    let loss = params.losses.iter().copied().fold(0.0, f64::max);
    let wipe = params.wipe.iter().any(|&w| w);
    let mut probes = Vec::new();
    for &shape in &params.shapes {
        for &strategy in &params.strategies {
            probes.push((shape, strategy));
        }
    }
    campaign::determinism_check(&probes, |&(shape, strategy), queue, telemetry| {
        run_one(
            shape,
            strategy,
            loss,
            wipe,
            &object,
            42,
            params.handoff_ms,
            queue,
            params.migrate_budget,
            true,
            telemetry,
        )
        .digest
    })
}

/// Serialize handoff points as a JSON array with Rust's shortest
/// round-trip float formatting, so determinism checks can compare
/// outputs as strings.
#[must_use]
pub fn to_json(points: &[HandoffPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let hop_ratios = p
            .hop_ratios
            .iter()
            .map(|r| format!("{r}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            s,
            "  {{\"shape\": \"{}\", \"strategy\": \"{}\", \"loss\": {}, \"wipe\": {}, \
             \"stall_ms\": {}, \"baseline_stall_ms\": {}, \"bytes_ratio\": {}, \
             \"hop_ratios\": [{}], \"resyncs\": {}, \"resyncs_sent\": {}, \"repairs\": {}, \
             \"migrations\": {}, \"migration_bytes\": {}, \"handoffs\": {}, \
             \"in_flight_drops\": {}, \"runs\": {}, \"failures\": {}, \"corrupted\": {}}}{}",
            p.shape.label(),
            p.strategy.label(),
            p.loss,
            p.wipe,
            p.stall_ms,
            p.baseline_stall_ms,
            p.bytes_ratio,
            hop_ratios,
            p.resyncs,
            p.resyncs_sent,
            p.repairs,
            p.migrations,
            p.migration_bytes,
            p.handoffs,
            p.in_flight_drops,
            p.runs,
            p.failures,
            p.corrupted,
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    s.push(']');
    s
}

/// Render the sweep as a table, one row per cell.
#[must_use]
pub fn render(points: &[HandoffPoint]) -> Table {
    let mut t = Table::new(
        "Handoff — gateway mobility: resync vs cache migration",
        &[
            "shape",
            "strategy",
            "loss %",
            "wipe",
            "stall ms",
            "base ms",
            "bytes ratio",
            "hop ratios",
            "resyncs",
            "migrations",
            "mig KiB",
            "drops",
            "ok/fail",
        ],
    );
    for p in points {
        let hops = p
            .hop_ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" / ");
        t.row(&[
            p.shape.label().to_string(),
            p.strategy.label().to_string(),
            format!("{:.0}", p.loss * 100.0),
            format!("{}", p.wipe),
            format!("{:.1}", p.stall_ms),
            format!("{:.1}", p.baseline_stall_ms),
            format!("{:.3}", p.bytes_ratio),
            hops,
            format!("{}", p.resyncs),
            format!("{}", p.migrations),
            format!("{:.1}", p.migration_bytes as f64 / 1024.0),
            format!("{}", p.in_flight_drops),
            format!("{}/{}", p.runs, p.failures),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(strategies: Vec<HandoffStrategy>, shapes: Vec<TopologyShape>) -> HandoffParams {
        HandoffParams {
            object_size: 120_000,
            losses: vec![0.03],
            strategies,
            shapes,
            wipe: vec![false],
            seeds: 1,
            handoff_ms: 120,
            migrate_budget: Some(512 * 1024),
            queue: None,
        }
    }

    #[test]
    fn chain_handoff_completes_and_compresses_both_hops() {
        let params = tiny(
            vec![HandoffStrategy::Migrate],
            vec![TopologyShape::Chain2Hop],
        );
        let pts = run(&Campaign::default(), &params).0;
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.corrupted, 0, "corrupted delivery: {p:?}");
        assert_eq!(p.failures, 0, "handoff stalled the transfer: {p:?}");
        assert_eq!(p.migrations, 1, "exactly one migration expected: {p:?}");
        assert!(p.migration_bytes > 0);
        assert_eq!(p.handoffs, 1);
        assert_eq!(p.hop_ratios.len(), 2);
        // The cache-chain question: both hops must still compress —
        // cascaded DRE does not double-compress into noise.
        for (i, r) in p.hop_ratios.iter().enumerate() {
            assert!(*r < 0.9, "hop {i} did not compress: ratio {r} ({p:?})");
        }
    }

    #[test]
    fn mesh_resync_pays_with_resyncs_migrate_does_not() {
        let campaign = Campaign::default();
        let resync = run(
            &campaign,
            &tiny(vec![HandoffStrategy::Resync], vec![TopologyShape::Mesh4]),
        )
        .0;
        let migrate = run(
            &campaign,
            &tiny(vec![HandoffStrategy::Migrate], vec![TopologyShape::Mesh4]),
        )
        .0;
        let (r, m) = (&resync[0], &migrate[0]);
        assert_eq!(r.corrupted + m.corrupted, 0);
        assert_eq!(r.failures + m.failures, 0);
        assert_eq!(r.handoffs, 3);
        assert_eq!(m.handoffs, 3);
        // Resync arms the generation handshake at every hop (a hop
        // landing after the final data shim never observes a stale
        // generation, so late hops may not complete one); migrate
        // carries state and never needs any.
        assert!(r.resyncs >= 2, "resync strategy never resynced: {r:?}");
        assert_eq!(m.resyncs, 0, "migrate should never need a resync: {m:?}");
        assert_eq!(m.migrations, 3, "{m:?}");
        assert_eq!(r.migrations, 0);
        // Migration preserves savings: strictly fewer wire bytes than
        // throwing the cache away at each hop.
        assert!(
            m.bytes_ratio < r.bytes_ratio,
            "migrate ({}) should beat resync ({})",
            m.bytes_ratio,
            r.bytes_ratio
        );
    }

    #[test]
    fn digests_are_identical_across_modes_queues_and_telemetry() {
        let mut params = tiny(
            vec![HandoffStrategy::Resync, HandoffStrategy::Migrate],
            vec![TopologyShape::Chain2Hop, TopologyShape::Mesh4],
        );
        params.wipe = vec![true];
        let check = determinism_check(&params);
        assert!(check.identical, "handoff runs diverged");
        assert_eq!(check.combos, 4);
        assert_eq!(check.runs, 12);
    }

    #[test]
    fn telemetry_counters_flow_through_the_merge_path() {
        let params = tiny(vec![HandoffStrategy::Migrate], vec![TopologyShape::Mesh4]);
        let (pts, rec) = run(&Campaign::default().with_telemetry(true), &params);
        assert_eq!(pts[0].corrupted, 0);
        for key in [
            "gateway.detaches",
            "gateway.attaches",
            "gateway.migrations",
            "gateway.migration_bytes",
        ] {
            assert!(
                rec.counters().any(|((name, _), v)| name == key && v > 0),
                "counter {key} missing from merged telemetry"
            );
        }
    }

    #[test]
    fn json_is_exact_and_balanced() {
        let pts = vec![HandoffPoint {
            shape: TopologyShape::Chain2Hop,
            strategy: HandoffStrategy::Migrate,
            loss: 0.03,
            wipe: false,
            stall_ms: 12.5,
            baseline_stall_ms: 10.0,
            bytes_ratio: 0.5,
            hop_ratios: vec![0.5, 0.625],
            resyncs: 0,
            resyncs_sent: 0,
            repairs: 1,
            migrations: 1,
            migration_bytes: 4096,
            handoffs: 1,
            in_flight_drops: 3,
            runs: 1,
            failures: 0,
            corrupted: 0,
        }];
        let json = to_json(&pts);
        assert_eq!(json, to_json(&pts), "serialization must be a pure function");
        assert!(json.contains("\"hop_ratios\": [0.5, 0.625]"));
        assert!(json.contains("\"migration_bytes\": 4096"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
