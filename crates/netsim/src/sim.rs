//! The event loop: queue, routing, links, and node dispatch.
//!
//! One single-threaded loop. Events pop in `(time, insertion seq)`
//! order — same-time ties fire in the order they were scheduled — and
//! every channel decision draws from one RNG seeded at construction, so
//! a run is a pure function of the seed and the topology. DESIGN.md §14
//! records why there is no parallel engine.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use bytecache_packet::Packet;
use bytecache_telemetry::{Event as TelemetryEvent, EventKind, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fxhash::{FxBuild, RouteMap};
use crate::link::{LinkConfig, LinkId, LinkState, LinkTable, TxVerdict};
use crate::node::{Action, Context, Node, NodeId};
use crate::stats::LinkStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceSink};
use crate::wheel::{EventHandle, EventQueue, PoolSlot, QueueKind, ScheduleOp};

/// Blanket helper granting `Any`-style downcasting to all nodes, so the
/// harness can inspect endpoint state (e.g. download statistics) after a
/// run via [`Simulator::node`].
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Total order on events: time, then global insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
}

#[derive(Debug)]
pub(crate) enum Event {
    Deliver {
        to: NodeId,
        packet: Packet,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    RouteChange {
        node: NodeId,
        dst: Ipv4Addr,
        next: Option<NodeId>,
    },
}

pub(crate) struct Queued {
    pub(crate) key: EventKey,
    pub(crate) event: Event,
}

// The queued-event record is the unit the scheduler moves around; keep
// it within two cache lines. `Deliver` — the overwhelmingly common
// variant — embeds the 80-byte `Packet` inline on purpose: boxing it
// would shave bytes here but add an allocation plus a pointer chase to
// every delivery, the exact costs the event pool exists to avoid. The
// rare variants (`Timer`, `RouteChange`) are already small. These
// assertions fail the build if `Packet` or a new variant grows the
// record past that budget. A pool slot is the record plus the two `u32`
// links of the wheel's doubly linked slot lists, 120 bytes; a link's
// state is what `transmit` reads, its channel boxed only when impaired.
const _: () = {
    assert!(std::mem::size_of::<EventKey>() == 16);
    assert!(std::mem::size_of::<Event>() <= 96);
    assert!(std::mem::size_of::<Queued>() <= 112);
    assert!(std::mem::size_of::<PoolSlot>() == 120);
    assert!(std::mem::size_of::<LinkState>() == 104);
};

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The discrete-event simulator.
///
/// Construct with a seed, add nodes/links/routes, then run. See the
/// [crate docs](crate) for the model and an end-to-end example in the
/// `bytecache-experiments` crate.
pub struct Simulator {
    now: SimTime,
    /// Insertion counter: the same-time tie-break of [`EventKey`].
    seq: u64,
    queue: EventQueue,
    nodes: Vec<Box<dyn SimNode>>,
    links: LinkTable,
    /// Per-node outgoing adjacency: `out_links[from]` lists
    /// `(to, link)` pairs sorted by `to`. Node ids are dense small
    /// integers, so this replaces the per-dispatch `HashMap` lookup
    /// with an indexed load plus a binary search — O(1) for the usual
    /// one- or two-entry list, O(log degree) for gateway hubs with
    /// hundreds of adjacent nodes.
    out_links: Vec<Vec<(NodeId, LinkId)>>,
    routes: Vec<RouteMap>,
    /// The one source of channel randomness, shared by every link.
    rng: StdRng,
    no_route_drops: u64,
    trace: Option<Box<dyn TraceSink>>,
    telemetry: Recorder,
    started: bool,
    event_budget: u64,
    events_processed: u64,
    /// Reused buffer for node-emitted actions: one dispatch at a time
    /// runs, so a single scratch vector avoids an allocation per event.
    action_scratch: Vec<Action>,
    /// When present, every queue push/pop/cancel is appended here (see
    /// [`Simulator::record_schedule`]).
    schedule_log: Option<Vec<ScheduleOp>>,
    /// `seq` of the recording's first push: a cancel is logged by its
    /// push's ordinal, `seq - schedule_base`.
    schedule_base: u64,
    /// Pending timers by `(node, token)`, for [`Context::cancel_timer`].
    /// A timer leaves the map when it pops or is cancelled; setting a
    /// second timer under a pending one's token takes over its entry.
    timers: HashMap<(NodeId, u64), EventHandle, FxBuild>,
    /// Latest deadline of a cancelled timer. When the queue runs dry
    /// the clock moves up to it, to where it would stand had the timer
    /// fired and been ignored.
    cancelled_until: SimTime,
}

/// Object-safe supertrait combining [`Node`] and downcasting.
trait SimNode: Node + AsAny {}
impl<T: Node + AsAny> SimNode for T {}

impl Simulator {
    /// New simulator; all channel randomness derives from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(QueueKind::default()),
            nodes: Vec::new(),
            links: LinkTable::default(),
            out_links: Vec::new(),
            routes: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            no_route_drops: 0,
            trace: None,
            telemetry: Recorder::disabled(),
            started: false,
            event_budget: 200_000_000,
            events_processed: 0,
            action_scratch: Vec::new(),
            schedule_log: None,
            schedule_base: 0,
            timers: HashMap::default(),
            cancelled_until: SimTime::ZERO,
        }
    }

    /// Select the event-queue implementation (default
    /// [`QueueKind::Wheel`]). This must happen before any event is
    /// scheduled (i.e. before the first run and before
    /// [`schedule_route_change`](Self::schedule_route_change)) — the
    /// knob swaps the queue out, which is only sound while it is empty.
    /// Both kinds produce byte-identical runs; [`QueueKind::Heap`] is
    /// the original `BinaryHeap` kept as the live oracle.
    ///
    /// # Panics
    ///
    /// Panics if events have already been scheduled or the simulation
    /// has started.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        assert!(
            !self.started && self.queue.is_empty() && self.seq == 0,
            "set_queue_kind must be called before any event is scheduled"
        );
        self.queue = EventQueue::new(kind);
    }

    /// The current event-queue implementation.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Start recording every queue push, pop and cancel as a
    /// [`ScheduleOp`] sequence (replacing any previous recording).
    ///
    /// The recorded schedule replays through
    /// [`replay_schedule`](crate::replay_schedule) to benchmark a queue
    /// kind in isolation on this exact workload. A cancelled event
    /// pushed before the recording started is left out of it.
    pub fn record_schedule(&mut self) {
        self.schedule_log = Some(Vec::new());
        self.schedule_base = self.seq;
    }

    /// Stop recording and return the captured schedule (empty if
    /// [`record_schedule`](Self::record_schedule) was never called).
    pub fn take_schedule(&mut self) -> Vec<ScheduleOp> {
        self.schedule_log.take().unwrap_or_default()
    }

    /// Install a node; returns its id.
    pub fn add_node(&mut self, node: impl Node + Any) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Box::new(node));
        self.routes.push(RouteMap::default());
        self.out_links.push(Vec::new());
        id
    }

    /// Install a unidirectional link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if a link already exists in that direction or either node
    /// id is unknown.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        assert!(from.0 < self.nodes.len(), "unknown node {from}");
        assert!(to.0 < self.nodes.len(), "unknown node {to}");
        let adj = &mut self.out_links[from.0];
        let pos = match adj.binary_search_by_key(&to.0, |&(t, _)| t.0) {
            Ok(_) => panic!("duplicate link {from} -> {to}"),
            Err(pos) => pos,
        };
        let id = LinkId(self.links.len());
        self.links.push(LinkState::new(config));
        // Most nodes (a crowd's endpoints) have one outgoing link; a
        // `Vec`'s first allocation would hold four.
        if adj.capacity() == 0 {
            adj.reserve_exact(1);
        }
        adj.insert(pos, (to, id));
        id
    }

    /// Install a pair of links `a → b` and `b → a` with the same
    /// configuration (channel state is independent per direction).
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        config: LinkConfig,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, config.clone()),
            self.add_link(b, a, config),
        )
    }

    /// Add (or replace) a route: at `node`, packets destined to `dst`
    /// are transmitted to `next_hop`.
    pub fn add_route(&mut self, node: NodeId, dst: Ipv4Addr, next_hop: NodeId) {
        self.routes[node.0].insert(dst, next_hop);
    }

    /// Remove a route; packets to `dst` at `node` are then dropped (and
    /// counted in [`no_route_drops`](Self::no_route_drops)).
    pub fn remove_route(&mut self, node: NodeId, dst: Ipv4Addr) {
        self.routes[node.0].remove(&dst);
    }

    /// The currently installed next hop at `node` for `dst`, if any —
    /// reflects scheduled route changes that have already applied.
    #[must_use]
    pub fn route(&self, node: NodeId, dst: Ipv4Addr) -> Option<NodeId> {
        self.routes[node.0].get(&dst).copied()
    }

    /// Schedule a route change at an absolute time (the mobility
    /// handoff primitive). `next = None` removes the route.
    pub fn schedule_route_change(
        &mut self,
        at: SimTime,
        node: NodeId,
        dst: Ipv4Addr,
        next: Option<NodeId>,
    ) {
        self.push(at, Event::RouteChange { node, dst, next });
    }

    /// Install a trace sink receiving every notable event.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Enable or disable the simulator's own telemetry recorder (queue
    /// depth and per-hop latency histograms, channel-drop events).
    /// Disabled by default; when off, instrumentation is a single branch
    /// per event.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// Borrow the simulator's telemetry recorder.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Snapshot of the simulator's telemetry (empty-disabled when
    /// telemetry is off). Adds the `sim.events_processed` and
    /// `sim.no_route_drops` counters on top of the live series.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut snap = self.telemetry.clone();
        snap.count("sim.events_processed", self.events_processed);
        snap.count("sim.no_route_drops", self.no_route_drops);
        snap
    }

    /// Abort the run (panic) if more than `budget` events are processed —
    /// a guard against accidental infinite protocol loops.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packets discarded because the emitting node had no route.
    #[must_use]
    pub fn no_route_drops(&self) -> u64 {
        self.no_route_drops
    }

    /// Total events processed so far (across all run calls).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Traffic counters of a link.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    #[must_use]
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.0].stats
    }

    /// Borrow a node downcast to its concrete type.
    ///
    /// Returns `None` if the node is not a `T`.
    #[must_use]
    pub fn node<T: Any>(&self, id: NodeId) -> Option<&T> {
        // Deref through the Box so the call dispatches on `dyn SimNode`
        // (the blanket AsAny impl would otherwise match the Box itself).
        (*self.nodes[id.0]).as_any().downcast_ref::<T>()
    }

    /// Mutably borrow a node downcast to its concrete type.
    #[must_use]
    pub fn node_mut<T: Any>(&mut self, id: NodeId) -> Option<&mut T> {
        (*self.nodes[id.0]).as_any_mut().downcast_mut::<T>()
    }

    fn push(&mut self, at: SimTime, event: Event) -> EventHandle {
        let key = EventKey { at, seq: self.seq };
        self.seq += 1;
        if let Some(log) = &mut self.schedule_log {
            log.push(ScheduleOp::Push(at.as_micros()));
        }
        self.queue.push(Queued { key, event })
    }

    /// Take `node`'s pending timer `token`, if any, out of the queue.
    fn cancel_timer(&mut self, node: NodeId, token: u64) {
        let Some(handle) = self.timers.remove(&(node, token)) else {
            return;
        };
        self.queue.cancel(handle);
        self.cancelled_until = self.cancelled_until.max(handle.key.at);
        if let Some(log) = &mut self.schedule_log {
            if let Some(ordinal) = handle.key.seq.checked_sub(self.schedule_base) {
                log.push(ScheduleOp::Cancel(ordinal));
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.with_node(NodeId(i), |n, ctx| n.on_start(ctx));
        }
    }

    /// Hand one event to the trace sink, if one is installed.
    fn trace_event(&mut self, event: TraceEvent<'_>) {
        if let Some(sink) = self.trace.as_mut() {
            sink.event(&event);
        }
    }

    /// Ring one telemetry event about `packet` at `node`, stamped with
    /// the current time, if telemetry is on.
    fn telemetry_event(&mut self, kind: EventKind, packet: &Packet, node: NodeId, wire: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                TelemetryEvent::new(kind)
                    .at_us(self.now.as_micros())
                    .flow(packet.flow().stable_hash())
                    .details(node.0 as u64, wire as u64),
            );
        }
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Forward(packet) => self.route_and_transmit(node, packet),
                Action::Timer(delay, token) => {
                    let handle = self.push(self.now + delay, Event::Timer { node, token });
                    self.timers.insert((node, token), handle);
                }
                Action::CancelTimer(token) => self.cancel_timer(node, token),
            }
        }
    }

    fn route_and_transmit(&mut self, from: NodeId, packet: Packet) {
        let at = self.now;
        let Some(&next) = self.routes[from.0].get(&packet.ip.dst) else {
            self.no_route_drops += 1;
            self.telemetry_event(EventKind::NoRoute, &packet, from, 0);
            self.trace_event(TraceEvent::NoRoute {
                at,
                from,
                packet: &packet,
            });
            return;
        };
        debug_assert!(from.0 < self.out_links.len(), "node id out of bounds");
        let adj = &self.out_links[from.0];
        let link_id = adj
            .binary_search_by_key(&next.0, |&(t, _)| t.0)
            .map(|pos| adj[pos].1)
            .unwrap_or_else(|_| panic!("route {from} -> {next} without a link"));
        let wire = packet.wire_len();
        if self.telemetry.is_enabled() {
            self.telemetry.count("sim.transmits", 1);
        }
        self.trace_event(TraceEvent::Transmit {
            at,
            from,
            to: next,
            packet: &packet,
        });
        let verdict = self.links[link_id.0].transmit(at, wire, &mut self.rng);
        match verdict {
            TxVerdict::Lost => {
                self.telemetry_event(EventKind::PacketLost, &packet, from, wire);
                self.trace_event(TraceEvent::Lost {
                    at,
                    from,
                    to: next,
                    packet: &packet,
                });
            }
            TxVerdict::Corrupted => {
                // A corrupted packet is delivered on the wire but fails
                // the IP/TCP (or byte caching shim) checksum at the
                // receiver, which discards it. Both outcomes are a drop;
                // we account it separately and do not dispatch it.
                self.telemetry_event(EventKind::PacketCorrupted, &packet, from, wire);
                self.trace_event(TraceEvent::Corrupted {
                    at,
                    from,
                    to: next,
                    packet: &packet,
                });
            }
            TxVerdict::Deliver { arrive } | TxVerdict::Reorder { arrive } => {
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .record("sim.hop_latency_us", (arrive - at).as_micros());
                }
                self.push(arrive, Event::Deliver { to: next, packet });
            }
            TxVerdict::Duplicate { arrive, copy } => {
                // The original arrives on time; a copy follows later.
                // Only the original counts as delivered payload — the
                // copy is channel noise the receiver must tolerate. The
                // copy is scheduled first (historical insertion order).
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .record("sim.hop_latency_us", (arrive - at).as_micros());
                }
                let dup = Event::Deliver {
                    to: next,
                    packet: packet.clone(),
                };
                self.push(copy, dup);
                self.push(arrive, Event::Deliver { to: next, packet });
            }
        }
    }

    /// Run one node callback and apply the actions it emitted.
    fn with_node(&mut self, node: NodeId, call: impl FnOnce(&mut dyn SimNode, &mut Context<'_>)) {
        let mut actions = std::mem::take(&mut self.action_scratch);
        let mut ctx = Context {
            now: self.now,
            node,
            actions: &mut actions,
        };
        call(&mut *self.nodes[node.0], &mut ctx);
        self.apply_actions(node, &mut actions);
        self.action_scratch = actions;
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { to, packet } => {
                if self.telemetry.is_enabled() {
                    self.telemetry.count("sim.delivers", 1);
                }
                self.trace_event(TraceEvent::Deliver {
                    at: self.now,
                    to,
                    packet: &packet,
                });
                self.with_node(to, |n, ctx| n.on_packet(packet, ctx));
            }
            Event::Timer { node, token } => self.with_node(node, |n, ctx| n.on_timer(token, ctx)),
            Event::RouteChange { node, dst, next } => match next {
                Some(n) => self.add_route(node, dst, n),
                None => self.remove_route(node, dst),
            },
        }
    }

    fn step(&mut self) -> bool {
        let Some(q) = self.queue.pop() else {
            return false;
        };
        if let Some(log) = &mut self.schedule_log {
            log.push(ScheduleOp::Pop);
        }
        debug_assert!(q.key.at >= self.now, "time went backwards");
        if let Event::Timer { node, token } = q.event {
            if let Entry::Occupied(pending) = self.timers.entry((node, token)) {
                if pending.get().key == q.key {
                    pending.remove();
                }
            }
        }
        self.now = q.key.at;
        self.events_processed += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .record("sim.queue_depth", self.queue.len() as u64);
        }
        assert!(
            self.events_processed <= self.event_budget,
            "event budget exhausted ({} events): likely a protocol loop",
            self.event_budget
        );
        self.dispatch(q.event);
        true
    }

    /// Run until no events remain; returns the final simulated time:
    /// the last event's, or the latest deadline of a cancelled timer if
    /// that is later.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted (see
    /// [`set_event_budget`](Self::set_event_budget)).
    pub fn run_until_idle(&mut self) -> SimTime {
        self.start_if_needed();
        while self.step() {}
        self.now = self.now.max(self.cancelled_until);
        self.now
    }

    /// Run until the given absolute time (events at exactly `t` are
    /// processed); later events stay queued.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        self.start_if_needed();
        while self.queue.peek_key().is_some_and(|head| head.at <= t) {
            self.step();
        }
        self.now = self.now.max(t);
        self.now
    }

    /// Run for a span of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime {
        let target = self.now + d;
        self.run_until(target)
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;
    use crate::FnTrace;
    use bytecache_packet::TcpFlags;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pkt(src: Ipv4Addr, dst: Ipv4Addr, len: usize) -> Packet {
        Packet::builder()
            .src(src, 1)
            .dst(dst, 2)
            .flags(TcpFlags::ACK)
            .payload(vec![0xAB; len])
            .build()
    }

    /// Sends `count` packets at start; records arrival times of replies.
    struct Sender {
        dst: Ipv4Addr,
        src: Ipv4Addr,
        count: usize,
        len: usize,
    }
    impl Node for Sender {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.forward(pkt(self.src, self.dst, self.len));
            }
        }
    }

    /// Records arrival times and payload sizes.
    #[derive(Default)]
    struct Receiver {
        arrivals: Vec<(SimTime, usize)>,
    }
    impl Node for Receiver {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.arrivals.push((ctx.now(), p.payload.len()));
        }
    }

    /// Echoes every packet back to its source.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            let reply = Packet::builder()
                .src(p.ip.dst, p.tcp.dst_port)
                .dst(p.ip.src, p.tcp.src_port)
                .flags(TcpFlags::ACK)
                .payload(p.payload.clone())
                .build();
            ctx.forward(reply);
        }
    }

    #[test]
    fn packets_flow_and_arrive_after_prop_delay() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 1,
            len: 100,
        });
        let b = sim.add_node(Receiver::default());
        sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: None,
                propagation: SimDuration::from_millis(5),
                channel: ChannelConfig::clean(),
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until_idle();
        let rx = sim.node::<Receiver>(b).unwrap();
        assert_eq!(rx.arrivals.len(), 1);
        assert_eq!(rx.arrivals[0].0.as_micros(), 5_000);
        assert_eq!(rx.arrivals[0].1, 100);
    }

    #[test]
    fn rate_limit_spaces_arrivals_by_serialization_time() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 3,
            len: 960, // wire = 1000 bytes
        });
        let b = sim.add_node(Receiver::default());
        sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: Some(1_000_000), // 1000 bytes = 1 ms
                propagation: SimDuration::from_millis(2),
                channel: ChannelConfig::clean(),
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until_idle();
        let rx = sim.node::<Receiver>(b).unwrap();
        let times: Vec<u64> = rx.arrivals.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![3_000, 4_000, 5_000]);
    }

    #[test]
    fn echo_round_trip() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 1,
            len: 10,
        });
        let b = sim.add_node(Echo);
        let c = sim.add_node(Receiver::default());
        // a -> b, b -> c (replies to A_IP are routed to the receiver node
        // to observe them).
        sim.add_duplex_link(a, b, LinkConfig::default());
        sim.add_link(b, c, LinkConfig::default());
        sim.add_route(a, B_IP, b);
        sim.add_route(b, A_IP, c);
        sim.run_until_idle();
        assert_eq!(sim.node::<Receiver>(c).unwrap().arrivals.len(), 1);
    }

    #[test]
    fn loss_counted_and_not_delivered() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 2000,
            len: 10,
        });
        let b = sim.add_node(Receiver::default());
        let l = sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: None,
                propagation: SimDuration::from_millis(1),
                channel: ChannelConfig::lossy(0.25),
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until_idle();
        let stats = sim.link_stats(l).clone();
        assert_eq!(stats.packets_offered, 2000);
        assert!(stats.packets_lost > 400 && stats.packets_lost < 600);
        let rx = sim.node::<Receiver>(b).unwrap();
        assert_eq!(rx.arrivals.len() as u64, stats.packets_delivered);
    }

    #[test]
    fn no_route_is_counted() {
        let mut sim = Simulator::new(1);
        let _a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 4,
            len: 10,
        });
        sim.run_until_idle();
        assert_eq!(sim.no_route_drops(), 4);
    }

    /// A sender driven by repeated timers (packets stay in flight when
    /// the route flips).
    struct SlowSender;
    impl Node for SlowSender {
        fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            ctx.forward(pkt(A_IP, B_IP, 10));
            if token < 9 {
                ctx.set_timer(SimDuration::from_millis(10), token + 1);
            }
        }
    }

    #[test]
    fn scheduled_route_change_redirects_traffic() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(SlowSender);
        let b1 = sim.add_node(Receiver::default());
        let b2 = sim.add_node(Receiver::default());
        sim.add_link(a, b1, LinkConfig::default());
        sim.add_link(a, b2, LinkConfig::default());
        sim.add_route(a, B_IP, b1);
        // After 45 ms (between packet 5 and 6), hand off to b2.
        sim.schedule_route_change(SimTime::from_micros(45_000), a, B_IP, Some(b2));
        sim.run_until_idle();
        assert_eq!(sim.node::<Receiver>(b1).unwrap().arrivals.len(), 5);
        assert_eq!(sim.node::<Receiver>(b2).unwrap().arrivals.len(), 5);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        #[derive(Default)]
        struct TimerNode {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
                self.fired.push((token, ctx.now()));
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node(TimerNode::default());
        sim.run_until_idle();
        let node = sim.node::<TimerNode>(n).unwrap();
        assert_eq!(node.fired.len(), 2);
        assert_eq!(node.fired[0].0, 1);
        assert_eq!(node.fired[1].0, 2);
        assert_eq!(node.fired[1].1.as_micros(), 5_000);
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 1,
            len: 10,
        });
        let b = sim.add_node(Receiver::default());
        sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: None,
                propagation: SimDuration::from_millis(10),
                channel: ChannelConfig::clean(),
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until(SimTime::from_micros(5_000));
        assert_eq!(sim.node::<Receiver>(b).unwrap().arrivals.len(), 0);
        sim.run_until_idle();
        assert_eq!(sim.node::<Receiver>(b).unwrap().arrivals.len(), 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Sender {
                src: A_IP,
                dst: B_IP,
                count: 500,
                len: 100,
            });
            let b = sim.add_node(Receiver::default());
            let l = sim.add_link(
                a,
                b,
                LinkConfig {
                    rate_bytes_per_sec: Some(1_000_000),
                    propagation: SimDuration::from_millis(3),
                    channel: ChannelConfig::lossy(0.1),
                },
            );
            sim.add_route(a, B_IP, b);
            sim.run_until_idle();
            (
                sim.link_stats(l).clone(),
                sim.node::<Receiver>(b).unwrap().arrivals.len(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0.packets_lost, run(8).0.packets_lost);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn event_budget_catches_loops() {
        struct Looper;
        impl Node for Looper {
            fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Looper);
        sim.set_event_budget(1000);
        sim.run_until_idle();
    }

    /// A node that answers every packet with another packet — two of
    /// them bounce forever.
    struct PingPong {
        peer: Ipv4Addr,
        me: Ipv4Addr,
        serve: bool,
    }
    impl Node for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.serve {
                ctx.forward(pkt(self.me, self.peer, 10));
            }
        }
        fn on_packet(&mut self, _p: Packet, ctx: &mut Context<'_>) {
            ctx.forward(pkt(self.me, self.peer, 10));
        }
    }

    /// A runaway two-node ping-pong halts under the event budget.
    #[test]
    #[should_panic(expected = "event budget")]
    fn event_budget_halts_ping_pong_serial() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(PingPong {
            peer: B_IP,
            me: A_IP,
            serve: true,
        });
        let b = sim.add_node(PingPong {
            peer: A_IP,
            me: B_IP,
            serve: false,
        });
        sim.add_duplex_link(a, b, LinkConfig::default());
        sim.add_route(a, B_IP, b);
        sim.add_route(b, A_IP, a);
        sim.set_event_budget(1000);
        sim.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Echo);
        let b = sim.add_node(Echo);
        sim.add_link(a, b, LinkConfig::default());
        sim.add_link(a, b, LinkConfig::default());
    }

    #[test]
    fn reordering_delivers_late() {
        let mut sim = Simulator::new(5);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 2000,
            len: 10,
        });
        let b = sim.add_node(Receiver::default());
        let l = sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: Some(10_000_000),
                propagation: SimDuration::from_millis(1),
                channel: ChannelConfig {
                    reorder_rate: 0.2,
                    reorder_window: SimDuration::from_millis(5),
                    ..ChannelConfig::clean()
                },
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until_idle();
        let stats = sim.link_stats(l);
        assert!(stats.packets_reordered > 200);
        // All packets still arrive.
        assert_eq!(stats.packets_delivered, 2000);
        // Arrival times are NOT monotone in send order: find an inversion.
        let rx = sim.node::<Receiver>(b).unwrap();
        assert_eq!(rx.arrivals.len(), 2000);
    }

    #[test]
    fn duplicates_deliver_the_packet_twice() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node(Sender {
            src: A_IP,
            dst: B_IP,
            count: 2000,
            len: 10,
        });
        let b = sim.add_node(Receiver::default());
        let l = sim.add_link(
            a,
            b,
            LinkConfig {
                rate_bytes_per_sec: Some(10_000_000),
                propagation: SimDuration::from_millis(1),
                channel: ChannelConfig {
                    duplicate_rate: 0.2,
                    ..ChannelConfig::clean()
                },
            },
        );
        sim.add_route(a, B_IP, b);
        sim.run_until_idle();
        let stats = sim.link_stats(l);
        assert!(stats.packets_duplicated > 200, "{stats:?}");
        // Only originals count as delivered; each duplicate arrives as
        // one extra packet at the receiver.
        assert_eq!(stats.packets_delivered, 2000);
        let rx = sim.node::<Receiver>(b).unwrap();
        assert_eq!(rx.arrivals.len() as u64, 2000 + stats.packets_duplicated);
    }

    /// Forwards one packet per timer; used to construct same-timestamp
    /// events whose creation order differs from node-id order.
    struct StagedSender {
        hops: u64,
        hop: SimDuration,
    }
    impl Node for StagedSender {
        fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.hop, 1);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            if token < self.hops {
                ctx.set_timer(self.hop, token + 1);
            } else {
                ctx.forward(pkt(A_IP, B_IP, 10));
            }
        }
    }

    fn transmit_order(kind: QueueKind) -> Vec<usize> {
        let order = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&order);
        let mut sim = Simulator::new(1);
        sim.set_queue_kind(kind);
        // Node 0 reaches its forward at 10 ms via two 5 ms timer hops
        // (its t=10ms timer is *created* at t=5ms); node 1 via a single
        // 10 ms timer created at t=0. Same firing timestamp, different
        // creation order.
        let a0 = sim.add_node(StagedSender {
            hops: 2,
            hop: SimDuration::from_millis(5),
        });
        let a1 = sim.add_node(StagedSender {
            hops: 1,
            hop: SimDuration::from_millis(10),
        });
        let c = sim.add_node(Receiver::default());
        sim.add_link(a0, c, LinkConfig::default());
        sim.add_link(a1, c, LinkConfig::default());
        sim.add_route(a0, B_IP, c);
        sim.add_route(a1, B_IP, c);
        sim.set_trace(Box::new(FnTrace(move |ev: &TraceEvent<'_>| {
            if let TraceEvent::Transmit { from, .. } = ev {
                seen.borrow_mut().push(from.index());
            }
        })));
        sim.run_until_idle();
        let got = order.borrow().clone();
        got
    }

    /// Same-timestamp ties pop in insertion order — node 1's timer was
    /// scheduled first, so its forward pops first even though node 0 has
    /// the smaller id — on both queue kinds.
    #[test]
    fn same_time_events_pop_in_seq_order() {
        assert_eq!(transmit_order(QueueKind::Wheel), vec![1, 0]);
        assert_eq!(transmit_order(QueueKind::Heap), vec![1, 0]);
    }

    /// Arms a 1 s timer (token 1), re-arms it from a 10 ms kick (token
    /// 2, due at 1.01 s) and cancels that from a 20 ms kick, as TCP
    /// does with its retransmission timer.
    #[derive(Default)]
    struct Rearm {
        fired: Vec<u64>,
    }
    impl Node for Rearm {
        fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 1);
            ctx.set_timer(SimDuration::from_millis(10), 100);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.fired.push(token);
            match token {
                100 => {
                    ctx.cancel_timer(1);
                    ctx.set_timer(SimDuration::from_secs(1), 2);
                    ctx.set_timer(SimDuration::from_millis(10), 101);
                }
                101 => {
                    ctx.cancel_timer(2);
                    ctx.cancel_timer(2); // already gone: a no-op
                    ctx.cancel_timer(7); // never set: a no-op
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cancelled_timers_never_fire_but_still_set_the_end_time() {
        for kind in [QueueKind::Wheel, QueueKind::Heap] {
            let mut sim = Simulator::new(1);
            sim.set_queue_kind(kind);
            let n = sim.add_node(Rearm::default());
            let end = sim.run_until_idle();
            assert_eq!(sim.node::<Rearm>(n).unwrap().fired, [100, 101], "{kind:?}");
            assert_eq!(sim.events_processed(), 2, "{kind:?}");
            assert_eq!(end.as_micros(), 1_010_000, "{kind:?}");
            assert_eq!(sim.now(), end);
            assert!(sim.queue.is_empty() && sim.timers.is_empty(), "{kind:?}");
        }
    }

    /// Two timers pending under one token: a cancel takes the one set
    /// last, the other still fires.
    #[test]
    fn cancel_takes_the_timer_set_last_under_a_token() {
        #[derive(Default)]
        struct Twice {
            fired: Vec<SimTime>,
        }
        impl Node for Twice {
            fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.set_timer(SimDuration::from_millis(2), 7);
                ctx.cancel_timer(7);
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
                self.fired.push(ctx.now());
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Twice::default());
        assert_eq!(sim.run_until_idle().as_micros(), 2_000);
        assert_eq!(
            sim.node::<Twice>(n).unwrap().fired,
            [SimTime::from_micros(1_000)]
        );
    }

    #[test]
    #[should_panic(expected = "before any event is scheduled")]
    fn queue_kind_locked_after_scheduling() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Echo);
        sim.schedule_route_change(SimTime::from_micros(10), a, B_IP, None);
        sim.set_queue_kind(QueueKind::Heap);
    }
}
