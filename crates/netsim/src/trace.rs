//! Optional event tracing for debugging and demonstration binaries.

use bytecache_packet::Packet;

use crate::node::NodeId;
use crate::time::SimTime;

#[cfg(doc)]
use bytecache_telemetry::{EventKind, Recorder};

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

/// Bridge from the legacy [`TraceSink`] interface onto the telemetry
/// event ring, so harnesses that read simulator traces (stall traces,
/// Figures 4–5 demonstrations) and metrics snapshots consume one event
/// source.
///
/// The sink owns a shared handle to a [`Recorder`]; install it with
/// [`Simulator::set_trace`](crate::Simulator::set_trace) and keep a
/// clone of the handle to inspect or merge after the run:
///
/// ```
/// use bytecache_netsim::{Simulator, TelemetrySink};
///
/// let mut sim = Simulator::new(1);
/// let sink = TelemetrySink::new();
/// let recorder = sink.recorder();
/// sim.set_trace(Box::new(sink));
/// // ... run ...
/// let snapshot = recorder.borrow().clone();
/// ```
///
/// Mapping: `Lost` → [`EventKind::PacketLost`], `Corrupted` →
/// [`EventKind::PacketCorrupted`], `NoRoute` → [`EventKind::NoRoute`]
/// (each with the flow tag and event time); `Transmit` / `Deliver` are
/// counted (`trace.transmits` / `trace.delivers`) but not ringed — they
/// are too frequent to keep individually.
pub struct TelemetrySink {
    recorder: std::rc::Rc<std::cell::RefCell<bytecache_telemetry::Recorder>>,
}

impl TelemetrySink {
    /// New bridge with a fresh enabled recorder.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink {
            recorder: std::rc::Rc::new(std::cell::RefCell::new(
                bytecache_telemetry::Recorder::enabled(),
            )),
        }
    }

    /// A shared handle to the recorder the sink writes into.
    #[must_use]
    pub fn recorder(&self) -> std::rc::Rc<std::cell::RefCell<bytecache_telemetry::Recorder>> {
        std::rc::Rc::clone(&self.recorder)
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for TelemetrySink {
    fn event(&mut self, event: &TraceEvent<'_>) {
        use bytecache_telemetry::{Event, EventKind};
        let mut rec = self.recorder.borrow_mut();
        match event {
            TraceEvent::Transmit { .. } => rec.count("trace.transmits", 1),
            TraceEvent::Deliver { .. } => rec.count("trace.delivers", 1),
            TraceEvent::Lost {
                at, from, packet, ..
            } => rec.event(
                Event::new(EventKind::PacketLost)
                    .at_us(at.as_micros())
                    .flow(packet.flow().stable_hash())
                    .details(from.0 as u64, packet.wire_len() as u64),
            ),
            TraceEvent::Corrupted {
                at, from, packet, ..
            } => rec.event(
                Event::new(EventKind::PacketCorrupted)
                    .at_us(at.as_micros())
                    .flow(packet.flow().stable_hash())
                    .details(from.0 as u64, packet.wire_len() as u64),
            ),
            TraceEvent::NoRoute { at, from, packet } => rec.event(
                Event::new(EventKind::NoRoute)
                    .at_us(at.as_micros())
                    .flow(packet.flow().stable_hash())
                    .details(from.0 as u64, 0),
            ),
        }
    }
}
