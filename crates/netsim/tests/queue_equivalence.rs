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
//!
//! Cancellation is checked one layer down, on raw push/pop/cancel
//! schedules replayed through both kinds: the same pops and the same
//! `len()` after every operation.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{
    replay_schedule_with, Context, FnTrace, LinkConfig, Node, QueueKind, ScheduleOp, Simulator,
    TraceEvent,
};
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

/// What each kind reports after every op of a replayed schedule: the
/// `(time, push ordinal)` a pop returned and the pending count.
fn observe(ops: &[ScheduleOp], kind: QueueKind) -> Vec<(Option<(u64, u64)>, usize)> {
    let mut seen = Vec::with_capacity(ops.len());
    replay_schedule_with(ops, kind, |popped, len| seen.push((popped, len)));
    seen
}

/// One step of a generated schedule, in terms of the queue's state.
#[derive(Debug, Clone)]
enum QOp {
    /// Push near the last popped time, at an offset of class `class`
    /// (the last class lands below it).
    Push {
        class: u8,
        x: u64,
    },
    Pop,
    /// Cancel one pending event, picked by `pick` among them in time
    /// order, so a tie group's first, middle and last are all reached.
    Cancel {
        pick: u16,
    },
    /// Cancel an ordinal that is no longer (or never was) pending.
    CancelStale {
        pick: u16,
    },
    /// Pop until empty: the wheel unbases and the next pushes stage.
    Drain,
}

fn qop_strategy() -> impl Strategy<Value = QOp> {
    let push = || (0u8..7, any::<u64>()).prop_map(|(class, x)| QOp::Push { class, x });
    let cancel = || any::<u16>().prop_map(|pick| QOp::Cancel { pick });
    prop_oneof![
        push(),
        push(),
        push(),
        Just(QOp::Pop),
        Just(QOp::Pop),
        cancel(),
        cancel(),
        any::<u16>().prop_map(|pick| QOp::CancelStale { pick }),
        Just(QOp::Drain),
    ]
}

/// Lower a generated schedule to `ScheduleOp`s, tracking a model of the
/// pending set so every cancel names a real target.
fn lower(qops: &[QOp]) -> Vec<ScheduleOp> {
    use std::collections::BTreeSet;
    let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut now = 0u64;
    let mut pushes = 0u64;
    let mut ops = Vec::new();
    let pop = |pending: &mut BTreeSet<(u64, u64)>, now: &mut u64, ops: &mut Vec<_>| {
        if let Some(first) = pending.pop_first() {
            *now = first.0;
        }
        ops.push(ScheduleOp::Pop);
    };
    for op in qops {
        match *op {
            QOp::Push { class, x } => {
                let at = match class {
                    0 => now,                               // tie: bucket
                    1 => now + x % 64,                      // level 0
                    2 => now + x % 4_096,                   // level 1
                    3 => now + 5_000 + x % 4,               // one level-2 list
                    4 => now + x % (1 << 30),               // upper levels
                    5 => now + (1 << 42) + x % (1 << 44),   // overflow
                    _ => now.saturating_sub(1 + x % 3_000), // backlog
                };
                pending.insert((at, pushes));
                ops.push(ScheduleOp::Push(at));
                pushes += 1;
            }
            QOp::Pop => pop(&mut pending, &mut now, &mut ops),
            QOp::Cancel { pick } => {
                if let Some(&target) = pending.iter().nth(usize::from(pick) % pending.len().max(1))
                {
                    pending.remove(&target);
                    ops.push(ScheduleOp::Cancel(target.1));
                }
            }
            QOp::CancelStale { pick } => {
                let ordinal = u64::from(pick) % (pushes + 2);
                if !pending.iter().any(|&(_, o)| o == ordinal) {
                    ops.push(ScheduleOp::Cancel(ordinal));
                }
            }
            QOp::Drain => {
                while !pending.is_empty() {
                    pop(&mut pending, &mut now, &mut ops);
                }
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random push/pop/cancel schedules: the wheel pops the heap's keys
    /// and reports its `len()` after every op.
    #[test]
    fn wheel_matches_heap_with_cancels(qops in prop::collection::vec(qop_strategy(), 1..400)) {
        let ops = lower(&qops);
        prop_assert_eq!(observe(&ops, QueueKind::Wheel), observe(&ops, QueueKind::Heap));
    }
}

/// Hand-built schedules, one per place a pending entry can sit in the
/// wheel when it is cancelled; each must replay alike on both kinds.
/// (`wheel.rs`'s unit tests assert the entry really sits there.)
#[test]
fn cancels_in_every_wheel_location_agree_with_heap() {
    use ScheduleOp::{Cancel, Pop, Push};
    // Ordinals 0 and 1: an event at 0 plus a far anchor; popping the
    // first bases the wheel at 0 with the anchor still pending.
    let based = [Push(0), Push(1 << 20), Pop];
    let mut cases: Vec<(&str, Vec<ScheduleOp>)> = Vec::new();
    // Three ties at 5 000 µs share one level-2 slot list (ordinals 2–4).
    for (name, victim) in [("list head", 2), ("list middle", 3), ("list tail", 4)] {
        let mut ops = based.to_vec();
        ops.extend([Push(5_000), Push(5_000), Push(5_000), Cancel(victim)]);
        ops.extend([Pop, Pop, Pop, Pop]);
        cases.push((name, ops));
    }
    // Popping the first tie drains all three into the bucket.
    let mut bucket = based.to_vec();
    bucket.extend([
        Push(300),
        Push(300),
        Push(300),
        Pop,
        Cancel(3),
        Pop,
        Pop,
        Pop,
    ]);
    cases.push(("bucket", bucket));
    // Nothing popped yet: the wheel is unbased and pushes are staged.
    cases.push((
        "staged",
        vec![Push(40), Push(9), Push(70), Cancel(1), Pop, Pop, Pop],
    ));
    // Beyond the 2^42 µs horizon from the frontier.
    let mut overflow = based.to_vec();
    overflow.extend([Push(1 << 43), Push((1 << 43) + 1), Cancel(2), Pop, Pop, Pop]);
    cases.push(("overflow", overflow));
    // Below the frontier after a pop at 1 000 µs.
    let mut backlog = based.to_vec();
    backlog.extend([
        Push(1_000),
        Pop,
        Push(500),
        Push(700),
        Cancel(4),
        Pop,
        Pop,
        Pop,
    ]);
    cases.push(("backlog", backlog));
    // The last live entry goes by cancel; the wheel must re-unbase so the
    // next pushes, far below its old frontier, still pop in order.
    let last = vec![
        Push(1 << 30),
        Push((1 << 30) + 10),
        Pop,
        Cancel(1),
        Push(7),
        Push(3),
        Pop,
        Pop,
        Pop,
    ];
    cases.push(("last live entry", last));
    for (name, ops) in cases {
        let heap = observe(&ops, QueueKind::Heap);
        assert!(
            heap.iter().any(|(popped, _)| popped.is_some()),
            "{name}: pops something"
        );
        assert_eq!(observe(&ops, QueueKind::Wheel), heap, "{name}");
    }
}
