//! Optional event tracing for debugging and demonstration binaries.

use bytecache_packet::Packet;

use crate::node::NodeId;
use crate::time::SimTime;

/// A notable simulator event, passed to the installed [`TraceSink`].
#[derive(Debug)]
pub enum TraceEvent<'a> {
    /// A node offered a packet to a link.
    Transmit {
        /// Time of transmission start.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The packet.
        packet: &'a Packet,
    },
    /// The channel dropped a packet.
    Lost {
        /// Time of the drop decision.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// The packet.
        packet: &'a Packet,
    },
    /// The channel corrupted a packet (it will fail checksums downstream).
    Corrupted {
        /// Time of the corruption decision.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The packet (pre-corruption form).
        packet: &'a Packet,
    },
    /// A packet arrived intact at a node.
    Deliver {
        /// Arrival time.
        at: SimTime,
        /// Receiving node.
        to: NodeId,
        /// The packet.
        packet: &'a Packet,
    },
    /// A packet had no route at a node and was discarded.
    NoRoute {
        /// Time of the routing failure.
        at: SimTime,
        /// Node lacking the route.
        from: NodeId,
        /// The packet.
        packet: &'a Packet,
    },
}

/// Receiver for [`TraceEvent`]s (install with
/// [`Simulator::set_trace`](crate::Simulator::set_trace)).
pub trait TraceSink {
    /// Handle one event. Called synchronously from the event loop.
    fn event(&mut self, event: &TraceEvent<'_>);
}

/// A `TraceSink` that forwards each event to a closure.
pub struct FnTrace<F: FnMut(&TraceEvent<'_>)>(pub F);

impl<F: FnMut(&TraceEvent<'_>)> TraceSink for FnTrace<F> {
    fn event(&mut self, event: &TraceEvent<'_>) {
        (self.0)(event);
    }
}
