//! Property test: the timing wheel (`QueueKind::Wheel`) is
//! byte-identical to the `BinaryHeap` oracle (`QueueKind::Heap`).
//!
//! Each proptest case draws an adversarial schedule aimed at the
//! wheel's corner cases:
//!
//! * **tie bursts** — several packets forwarded back-to-back at one
//!   timestamp, and step gaps drawn from a small set so bursts from
//!   different origins collide at the same instant;
//! * **zero-delay self-events** — timer chains with zero delay, created
//!   *while* their timestamp is being drained;
//! * **far-future times** — inert timers up to `2^42` µs out, crossing
//!   the wheel horizon into the overflow heap and back;
//! * **mid-run route changes** — pre-scheduled flips landing between
//!   in-flight deliveries, plus one scheduled *between* run segments
//!   (after a `run_until` peek has advanced the wheel frontier — the
//!   backlog path).
//!
//! The digest covers everything observable: sink arrivals, link stats,
//! the final clock, event counts, no-route drops, the full trace log,
//! and the telemetry export (wall-clock spans stripped).

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{Context, FnTrace, LinkConfig, Node, QueueKind, Simulator, TraceEvent};
use bytecache_packet::{Packet, TcpFlags};
use bytecache_telemetry::Recorder;
use proptest::prelude::*;

const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

/// Token namespaces for `ScriptNode` timers.
const TOK_STEP: u64 = 0; // + step index
const TOK_CHAIN: u64 = 1 << 32; // + remaining chain length
const TOK_FAR: u64 = 1 << 33;

#[derive(Debug, Clone)]
enum Op {
    /// Forward `n` packets back-to-back: a same-timestamp tie burst
    /// from one origin.
    Burst(u8),
    /// `n` zero-delay self-timers, then one packet — events created at
    /// the timestamp currently being drained.
    ZeroChain(u8),
    /// An inert timer `1 << (30 + s)` µs out; `s` up to 12 pushes past
    /// the wheel horizon into the overflow heap.
    Far(u8),
}

struct ScriptNode {
    steps: Vec<(u64, Op)>,
}

impl ScriptNode {
    fn fire(&self, step: usize, ctx: &mut Context<'_>) {
        match self.steps[step].1 {
            Op::Burst(n) => {
                for _ in 0..n {
                    ctx.forward(pkt());
                }
            }
            Op::ZeroChain(n) => ctx.set_timer(SimDuration::ZERO, TOK_CHAIN + n as u64),
            Op::Far(s) => ctx.set_timer(
                SimDuration::from_micros(1u64 << (30 + s.min(12) as u32)),
                TOK_FAR,
            ),
        }
        if step + 1 < self.steps.len() {
            ctx.set_timer(
                SimDuration::from_micros(self.steps[step + 1].0),
                TOK_STEP + (step + 1) as u64,
            );
        }
    }
}

impl Node for ScriptNode {
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if !self.steps.is_empty() {
            ctx.set_timer(SimDuration::from_micros(self.steps[0].0), TOK_STEP);
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token >= TOK_FAR {
            return;
        }
        if token >= TOK_CHAIN {
            let left = token - TOK_CHAIN;
            if left > 0 {
                ctx.set_timer(SimDuration::ZERO, TOK_CHAIN + left - 1);
            } else {
                ctx.forward(pkt());
            }
            return;
        }
        self.fire(token as usize, ctx);
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

fn pkt() -> Packet {
    Packet::builder()
        .src(Ipv4Addr::new(10, 9, 0, 1), 1)
        .dst(DST, 2)
        .flags(TcpFlags::ACK)
        .payload(vec![0x5A; 40])
        .build()
}

#[derive(Debug, Clone)]
struct Plan {
    scripts: Vec<Vec<(u64, Op)>>,
    loss_milli: u32,
    dup_milli: u32,
    reorder_milli: u32,
    rate: Option<u64>,
    flip1_us: u64,
    flip2_delta_us: u64,
    cut_us: u64,
    seed: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..=3).prop_map(Op::Burst),
        (1u8..=3).prop_map(Op::ZeroChain),
        (1u8..=3).prop_map(Op::Burst),
        (1u8..=3).prop_map(Op::ZeroChain),
        (0u8..=12).prop_map(Op::Far),
    ]
}

/// Gaps drawn from a small set so steps of *different* nodes land on
/// the same timestamp (cross-origin ties), including zero gaps.
const GAPS: [u64; 7] = [0, 500, 500, 1_000, 1_000, 2_000, 7_500];

fn script_strategy() -> impl Strategy<Value = Vec<(u64, Op)>> {
    prop::collection::vec(
        ((0usize..GAPS.len()).prop_map(|i| GAPS[i]), op_strategy()),
        1..8,
    )
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        prop::collection::vec(script_strategy(), 1..4),
        0u32..200,
        0u32..80,
        0u32..150,
        (any::<bool>(), 200_000u64..2_000_000).prop_map(|(cap, r)| cap.then_some(r)),
        1_000u64..40_000,
        1_000u64..20_000,
        500u64..50_000,
        any::<u64>(),
    )
        .prop_map(
            |(
                scripts,
                loss_milli,
                dup_milli,
                reorder_milli,
                rate,
                flip1_us,
                flip2_delta_us,
                cut_us,
                seed,
            )| Plan {
                scripts,
                loss_milli,
                dup_milli,
                reorder_milli,
                rate,
                flip1_us,
                flip2_delta_us,
                cut_us,
                seed,
            },
        )
}

fn fmt_trace(ev: &TraceEvent<'_>) -> String {
    match ev {
        TraceEvent::Transmit { at, from, to, .. } => {
            format!("T {} {} {}", at.as_micros(), from.index(), to.index())
        }
        TraceEvent::Lost { at, from, to, .. } => {
            format!("L {} {} {}", at.as_micros(), from.index(), to.index())
        }
        TraceEvent::Corrupted { at, from, to, .. } => {
            format!("C {} {} {}", at.as_micros(), from.index(), to.index())
        }
        TraceEvent::Deliver { at, to, .. } => format!("D {} {}", at.as_micros(), to.index()),
        TraceEvent::NoRoute { at, from, .. } => format!("N {} {}", at.as_micros(), from.index()),
    }
}

type Digest = (
    Vec<Vec<(SimTime, usize)>>, // sink arrivals
    Vec<String>,                // link stats
    SimTime,                    // final clock
    u64,                        // events processed
    u64,                        // no-route drops
    Vec<String>,                // trace log
    Recorder,                   // telemetry (wall-clock stripped)
);

fn run_case(plan: &Plan, kind: QueueKind) -> Digest {
    let mut sim = Simulator::new(plan.seed);
    sim.set_queue_kind(kind);
    sim.set_telemetry_enabled(true);
    let trace_log: Rc<RefCell<Vec<String>>> = Rc::default();
    {
        let log = Rc::clone(&trace_log);
        sim.set_trace(Box::new(FnTrace(move |ev: &TraceEvent<'_>| {
            log.borrow_mut().push(fmt_trace(ev));
        })));
    }

    // All scripted senders route through one shared relay, which flips
    // between two sinks mid-run.
    let hub = sim.add_node(Relay);
    let sink_a = sim.add_node(Sink::default());
    let sink_b = sim.add_node(Sink::default());
    let mut links = Vec::new();
    for steps in &plan.scripts {
        let src = sim.add_node(ScriptNode {
            steps: steps.clone(),
        });
        links.push(sim.add_link(
            src,
            hub,
            LinkConfig {
                rate_bytes_per_sec: plan.rate,
                propagation: SimDuration::from_millis(1),
                channel: ChannelConfig {
                    loss: LossModel::Bernoulli {
                        rate: plan.loss_milli as f64 / 1_000.0,
                    },
                    duplicate_rate: plan.dup_milli as f64 / 1_000.0,
                    reorder_rate: plan.reorder_milli as f64 / 1_000.0,
                    reorder_window: SimDuration::from_millis(2),
                    ..ChannelConfig::clean()
                },
            },
        ));
        sim.add_route(src, DST, hub);
    }
    links.push(sim.add_link(hub, sink_a, LinkConfig::default()));
    links.push(sim.add_link(hub, sink_b, LinkConfig::default()));
    sim.add_route(hub, DST, sink_a);
    sim.schedule_route_change(SimTime::from_micros(plan.flip1_us), hub, DST, Some(sink_b));
    sim.schedule_route_change(
        SimTime::from_micros(plan.flip1_us + plan.flip2_delta_us),
        hub,
        DST,
        Some(sink_a),
    );

    // Two segments with a route change scheduled in between — by then a
    // peek has already advanced the wheel frontier past `cut`, so this
    // flip exercises the backlog path.
    sim.run_until(SimTime::from_micros(plan.cut_us));
    sim.schedule_route_change(
        SimTime::from_micros(plan.cut_us + 750),
        hub,
        DST,
        Some(sink_b),
    );
    sim.run_until_idle();

    let arrivals = [sink_a, sink_b]
        .iter()
        .map(|&s| sim.node::<Sink>(s).unwrap().arrivals.clone())
        .collect();
    let stats = links
        .iter()
        .map(|&l| format!("{:?}", sim.link_stats(l)))
        .collect();
    let mut tele = sim.telemetry_snapshot();
    tele.strip_wall_clock();
    let log = std::mem::take(&mut *trace_log.borrow_mut());
    (
        arrivals,
        stats,
        sim.now(),
        sim.events_processed(),
        sim.no_route_drops(),
        log,
        tele,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wheel reproduces the heap's `(time, insertion seq)` order bit
    /// for bit.
    #[test]
    fn wheel_matches_heap_on_legacy_serial(plan in plan_strategy()) {
        let heap = run_case(&plan, QueueKind::Heap);
        let wheel = run_case(&plan, QueueKind::Wheel);
        prop_assert_eq!(heap, wheel);
    }
}

/// A fixed dense scenario kept out of proptest so it always runs, even
/// with `PROPTEST_CASES=0`: every adversarial ingredient at once.
#[test]
fn dense_fixed_scenario_agrees_everywhere() {
    let plan = Plan {
        scripts: vec![
            vec![
                (0, Op::Burst(3)),
                (0, Op::ZeroChain(3)),
                (500, Op::Burst(2)),
                (1_000, Op::Far(12)),
                (1_000, Op::ZeroChain(1)),
            ],
            vec![
                (0, Op::ZeroChain(2)),
                (500, Op::Burst(3)),
                (500, Op::Far(0)),
                (2_000, Op::Burst(1)),
            ],
            vec![(1_000, Op::Burst(2)), (1_000, Op::ZeroChain(3))],
        ],
        loss_milli: 120,
        dup_milli: 40,
        reorder_milli: 80,
        rate: Some(400_000),
        flip1_us: 2_000,
        flip2_delta_us: 1_500,
        cut_us: 2_500,
        seed: 0xBC8,
    };
    let heap = run_case(&plan, QueueKind::Heap);
    assert!(
        heap.0.iter().any(|a| !a.is_empty()),
        "scenario delivers packets"
    );
    assert_eq!(run_case(&plan, QueueKind::Wheel), heap);
}
