//! Property test: routing-table recomputation in the `topology` module
//! is deterministic — the same plan run twice is identical — and
//! byte-identical on both event-queue kinds, on random mesh topologies
//! with scheduled attachment changes.
//!
//! Each case draws a random mesh (4–6 relays), binds two or three sink
//! addresses, disables a random subset of edges up front, and schedules
//! a handful of mid-run edge flips — the attachment changes a gateway
//! handoff performs — each followed by [`Topology::reroute_at`], which
//! diffs the derived tables and feeds `schedule_route_change`. Burst
//! sources then push traffic through whatever routes survive.
//!
//! On top of the traffic digest, the derived routing tables themselves
//! ([`Topology::route_entries`]) are snapshotted at every recomputation
//! checkpoint and byte-compared.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytecache_netsim::channel::ChannelConfig;
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{
    Context, FnTrace, LinkConfig, Node, NodeId, QueueKind, Simulator, Topology, TraceEvent,
};
use bytecache_packet::{Packet, TcpFlags};
use proptest::prelude::*;

fn sink_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, i as u8, 1)
}

fn pkt(dst: Ipv4Addr, len: usize) -> Packet {
    Packet::builder()
        .src(Ipv4Addr::new(10, 9, 255, 1), 1)
        .dst(dst, 2)
        .flags(TcpFlags::ACK)
        .payload(vec![0xA5; len])
        .build()
}

/// Emits `count` packets spaced by `gap`.
struct Burst {
    dst: Ipv4Addr,
    count: usize,
    len: usize,
    gap: SimDuration,
}
impl Node for Burst {
    fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.gap, 0);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        ctx.forward(pkt(self.dst, self.len));
        if (token as usize) + 1 < self.count {
            ctx.set_timer(self.gap, token + 1);
        }
    }
}

/// Forwards everything along its routing table.
struct Relay;
impl Node for Relay {
    fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
        ctx.forward(p);
    }
}

#[derive(Default)]
struct Sink {
    arrivals: Vec<(SimTime, usize)>,
}
impl Node for Sink {
    fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
        self.arrivals.push((ctx.now(), p.payload.len()));
    }
}

/// A random mesh + attachment-change schedule. Edge indices address the
/// canonical mesh edge list (all pairs `i < j` in order); times are
/// strictly increasing and odd so a scheduled route change never ties
/// with a packet event (which all land on even microseconds: even gaps,
/// even propagation, no serialization delay).
#[derive(Debug, Clone)]
struct Plan {
    relays: usize,
    sinks: usize,
    disabled: Vec<usize>,
    flips: Vec<(u64, usize)>,
    sources: Vec<(usize, u64, usize, usize)>, // (attach relay, gap µs, count, len)
    prop_ms: u64,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        4usize..=6,
        2usize..=3,
        prop::collection::vec(0usize..64, 0..3),
        prop::collection::vec((1_000u64..20_000, 0usize..64), 1..4),
        prop::collection::vec(
            (
                0usize..64,
                prop_oneof![Just(800u64), Just(1_200), Just(1_600), Just(2_400)],
                10usize..40,
                20usize..200,
            ),
            2..=3,
        ),
        1u64..=4,
    )
        .prop_map(|(relays, sinks, disabled, flip_deltas, sources, prop_ms)| {
            let mut at = 5_000u64;
            let flips = flip_deltas
                .into_iter()
                .map(|(delta, edge)| {
                    at += delta;
                    (at | 1, edge)
                })
                .collect();
            Plan {
                relays,
                sinks,
                disabled,
                flips,
                sources,
                prop_ms,
            }
        })
}

/// Canonical mesh edge list for `n` relays: all pairs `i < j` in order.
fn mesh_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j));
        }
    }
    edges
}

fn clean_link(prop_ms: u64) -> LinkConfig {
    LinkConfig {
        rate_bytes_per_sec: None,
        propagation: SimDuration::from_millis(prop_ms),
        channel: ChannelConfig::clean(),
    }
}

fn fmt_trace(ev: &TraceEvent<'_>) -> String {
    match ev {
        TraceEvent::Transmit {
            at,
            from,
            to,
            packet,
        } => format!(
            "{:012} T {} {} {}",
            at.as_micros(),
            from.index(),
            to.index(),
            packet.payload.len()
        ),
        TraceEvent::Lost { at, from, to, .. } => {
            format!("{:012} L {} {}", at.as_micros(), from.index(), to.index())
        }
        TraceEvent::Corrupted { at, from, to, .. } => {
            format!("{:012} C {} {}", at.as_micros(), from.index(), to.index())
        }
        TraceEvent::Deliver { at, to, packet } => format!(
            "{:012} D {} {}",
            at.as_micros(),
            to.index(),
            packet.payload.len()
        ),
        TraceEvent::NoRoute { at, from, packet } => format!(
            "{:012} N {} {}",
            at.as_micros(),
            from.index(),
            packet.payload.len()
        ),
    }
}

/// Everything observable about a finished run.
type Digest = (
    Vec<String>,                // routing tables at every recomputation
    Vec<Vec<(SimTime, usize)>>, // per-sink arrivals
    Vec<String>,                // per-link stats
    SimTime,                    // final clock
    u64,                        // events processed
    u64,                        // no-route drops
    Vec<String>,                // trace log
);

fn routes_snapshot(topo: &Topology) -> String {
    let mut s = String::new();
    for (node, dst, hop) in topo.route_entries() {
        s.push_str(&format!("{} {} {};", node.index(), dst, hop.index()));
    }
    s
}

fn run_case(plan: &Plan, kind: QueueKind) -> Digest {
    let mut sim = Simulator::new(0xBC_70_70 ^ plan.relays as u64);
    sim.set_queue_kind(kind);
    let trace_log: Rc<RefCell<Vec<String>>> = Rc::default();
    {
        let log = Rc::clone(&trace_log);
        sim.set_trace(Box::new(FnTrace(move |ev: &TraceEvent<'_>| {
            log.borrow_mut().push(fmt_trace(ev));
        })));
    }

    let relays: Vec<NodeId> = (0..plan.relays).map(|_| sim.add_node(Relay)).collect();
    let mut topo = Topology::mesh(&mut sim, &relays, &clean_link(plan.prop_ms));
    let edges = mesh_edges(plan.relays);

    let mut sinks = Vec::new();
    for (i, &relay) in relays.iter().enumerate().take(plan.sinks) {
        let sink = sim.add_node(Sink::default());
        topo.connect(&mut sim, relay, sink, clean_link(plan.prop_ms));
        topo.bind(sink, sink_addr(i));
        sinks.push(sink);
    }
    let mut links = Vec::new();
    for (s, &(attach, gap, count, len)) in plan.sources.iter().enumerate() {
        let src = sim.add_node(Burst {
            dst: sink_addr(s % plan.sinks),
            count,
            len,
            gap: SimDuration::from_micros(gap),
        });
        let relay = relays[attach % plan.relays];
        topo.connect(&mut sim, src, relay, clean_link(plan.prop_ms));
        let (fwd, rev) = topo.links(src, relay);
        links.push(fwd);
        links.push(rev);
    }
    for (i, j) in edges.iter() {
        let (fwd, rev) = topo.links(relays[*i], relays[*j]);
        links.push(fwd);
        links.push(rev);
    }

    for &e in &plan.disabled {
        let (i, j) = edges[e % edges.len()];
        topo.set_edge(relays[i], relays[j], false);
    }
    topo.install_routes(&mut sim);
    let mut route_log = vec![routes_snapshot(&topo)];

    // Scheduled attachment changes: toggle an edge, then recompute and
    // diff the tables into the simulation at the scheduled time.
    for &(at, e) in &plan.flips {
        let (i, j) = edges[e % edges.len()];
        let cur = topo.edge_enabled(relays[i], relays[j]);
        topo.set_edge(relays[i], relays[j], !cur);
        topo.reroute_at(&mut sim, SimTime::from_micros(at));
        route_log.push(routes_snapshot(&topo));
    }

    sim.run_until_idle();

    let arrivals = sinks
        .iter()
        .map(|&s| sim.node::<Sink>(s).unwrap().arrivals.clone())
        .collect();
    let stats = links
        .iter()
        .map(|&l| format!("{:?}", sim.link_stats(l)))
        .collect();
    let log = std::mem::take(&mut *trace_log.borrow_mut());
    (
        route_log,
        arrivals,
        stats,
        sim.now(),
        sim.events_processed(),
        sim.no_route_drops(),
        log,
    )
}

/// The plan's heap digest, after checking that a second heap run and a
/// wheel run reproduce it.
fn assert_repeatable_on_both_kinds(plan: &Plan) -> Digest {
    let heap = run_case(plan, QueueKind::Heap);
    assert_eq!(run_case(plan, QueueKind::Heap), heap, "same plan twice");
    assert_eq!(run_case(plan, QueueKind::Wheel), heap, "wheel vs heap");
    heap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mesh + random attachment-change schedule: identical
    /// routing tables and identical traffic on every run and on both
    /// queue kinds.
    #[test]
    fn reroutes_are_mode_invariant(plan in plan_strategy()) {
        assert_repeatable_on_both_kinds(&plan);
    }
}

/// A fixed dense scenario kept out of proptest so it always runs, even
/// if a future proptest regression shrinks away the interesting cases:
/// every edge flipped once, two sinks contended by three sources.
#[test]
fn fixed_mesh_reroute_agrees_everywhere() {
    let plan = Plan {
        relays: 5,
        sinks: 2,
        disabled: vec![0, 7],
        flips: vec![(9_001, 0), (14_003, 3), (22_005, 7), (31_007, 3)],
        sources: vec![(4, 800, 30, 64), (3, 1_200, 25, 120), (2, 1_600, 20, 40)],
        prop_ms: 2,
    };
    let digest = assert_repeatable_on_both_kinds(&plan);
    // The schedule genuinely changes the derived tables at least once.
    assert!(
        digest.0.windows(2).any(|w| w[0] != w[1]),
        "attachment changes never altered the routing tables"
    );
}
