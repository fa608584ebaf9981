//! The [`Node`] trait and the [`Context`] through which nodes act.

use bytecache_packet::Packet;

use crate::time::{SimDuration, SimTime};

/// Identifier of a node within one [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable for the lifetime of the simulator).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol endpoint or middlebox living inside the simulator.
///
/// Nodes are purely reactive: the simulator calls [`Node::on_packet`]
/// when a packet arrives and [`Node::on_timer`] when a timer the node set
/// fires. All effects go through the [`Context`].
///
/// A node never learns the topology; it emits packets via
/// [`Context::forward`] and the simulator routes them by destination IP
/// using the per-node routing table — like a real IP stack handing a
/// datagram to its FIB.
pub trait Node {
    /// A packet addressed through (or to) this node has arrived.
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>);

    /// A timer previously set with [`Context::set_timer`] fired.
    ///
    /// `token` is the caller-chosen value passed to `set_timer`. A timer
    /// taken back with [`Context::cancel_timer`] never fires, so a node
    /// that cancels every timer it abandons sees only live ones; one
    /// that does not should validate the token against its current
    /// state and ignore stale timers.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }

    /// Called once when the simulation starts (before any event).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }
}

/// Deferred effect requested by a node during a callback.
#[derive(Debug)]
pub enum Action {
    /// Route this packet by destination IP and transmit it.
    Forward(Packet),
    /// Schedule [`Node::on_timer`] with the token after the delay.
    Timer(SimDuration, u64),
    /// Cancel the node's pending timer with this token, if any.
    CancelTimer(u64),
}

/// Handle through which a node reads the clock and requests effects.
///
/// Actions are buffered and applied by the simulator after the callback
/// returns, in order.
#[derive(Debug)]
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
}

impl Context<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Emit a packet; the simulator routes it by destination IP from this
    /// node's routing table. Packets without a matching route are counted
    /// and dropped (see [`Simulator::no_route_drops`](crate::Simulator::no_route_drops)).
    pub fn forward(&mut self, packet: Packet) {
        self.actions.push(Action::Forward(packet));
    }

    /// Request an [`Node::on_timer`] callback after `delay` with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer(delay, token));
    }

    /// Cancel this node's pending timer with `token`, if any: it leaves
    /// the event queue at once and its [`Node::on_timer`] never runs.
    /// A timer that already fired, or a token never set, is a no-op.
    /// If several timers are pending under one token, the one set last
    /// is cancelled. Applied in order with the callback's other actions.
    pub fn cancel_timer(&mut self, token: u64) {
        self.actions.push(Action::CancelTimer(token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_actions_in_order() {
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::from_micros(5),
            node: NodeId(3),
            actions: &mut actions,
        };
        assert_eq!(ctx.now().as_micros(), 5);
        assert_eq!(ctx.node_id().index(), 3);
        ctx.set_timer(SimDuration::from_millis(1), 42);
        ctx.forward(Packet::builder().build());
        ctx.cancel_timer(42);
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Timer(d, 42) if d.as_micros() == 1000));
        assert!(matches!(actions[1], Action::Forward(_)));
        assert!(matches!(actions[2], Action::CancelTimer(42)));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
