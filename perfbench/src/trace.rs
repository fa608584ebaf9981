//! Tracing taken entirely from outside the layers: spans the benchmark
//! records around its own calls, and a [`Timed`] wrapper that clocks a
//! simulator node's callbacks. Nothing here touches product code, so the
//! numbers survive any refactor behind the public functions.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use bytecache_netsim::{Context, Node};
use bytecache_packet::Packet;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`"gateway.encode"`, `"packet.parse"`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Batch or flow the span belongs to (shared by one request's spans).
    pub id: u64,
}

/// In-memory span store; written out once, after the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span; returns the handle children pass as `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() as u32
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, and their summed *self* time — duration
    /// minus the part of it the span's children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.id
            )?;
        }
        out.flush()
    }
}

/// A simulator node with a clock around every callback.
///
/// Wrapping each endpoint and gateway of a topology gives every layer's
/// busy time inside a simulation; what is left of the run's wall time is
/// the simulator's own (scheduler, links, channel, routing), so the
/// rows sum to the whole wall by construction. Optionally keeps the
/// first `tap_cap` payload-carrying packets it is handed — the recorded
/// ingress stream the layer replays re-drive.
#[derive(Debug)]
pub struct Timed<N> {
    inner: N,
    busy_ns: u64,
    calls: u64,
    tap: Vec<Packet>,
    tap_cap: usize,
}

impl<N> Timed<N> {
    /// Wrap `inner`; no packets are recorded.
    pub fn new(inner: N) -> Self {
        Self::with_tap(inner, 0)
    }

    /// Wrap `inner`, keeping up to `tap_cap` payload-carrying packets.
    pub fn with_tap(inner: N, tap_cap: usize) -> Self {
        Timed {
            inner,
            busy_ns: 0,
            calls: 0,
            tap: Vec::new(),
            tap_cap,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Nanoseconds spent inside the wrapped node's callbacks.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Callbacks delivered.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The recorded ingress packets.
    pub fn tap(&self) -> &[Packet] {
        &self.tap
    }

    fn clocked(&mut self, call: impl FnOnce(&mut N)) {
        let start = Instant::now();
        call(&mut self.inner);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if self.tap.len() < self.tap_cap && packet.has_payload() {
            self.tap.push(packet.clone());
        }
        self.clocked(|n| n.on_packet(packet, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.clocked(|n| n.on_timer(token, ctx));
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clocked(|n| n.on_start(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecache_netsim::time::SimDuration;
    use bytecache_netsim::{LinkConfig, Simulator};
    use std::net::Ipv4Addr;
    use std::time::Duration;

    const A: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);

    /// Scripted node: burns a fixed slice of host time per callback and
    /// bounces the packet back until its hop budget runs out.
    struct Bouncer {
        me: Ipv4Addr,
        peer: Ipv4Addr,
        spin: Duration,
        hops_left: u32,
        kick: bool,
    }

    impl Bouncer {
        fn spin(&self) {
            let t = Instant::now();
            while t.elapsed() < self.spin {
                std::hint::spin_loop();
            }
        }
        fn packet(&self) -> Packet {
            Packet::builder()
                .src(self.me, 1)
                .dst(self.peer, 1)
                .payload(vec![7u8; 32])
                .build()
        }
    }

    impl Node for Bouncer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.spin();
            if self.kick {
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            self.spin();
            ctx.forward(self.packet());
        }
        fn on_packet(&mut self, _packet: Packet, ctx: &mut Context<'_>) {
            self.spin();
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.forward(self.packet());
            }
        }
    }

    #[test]
    fn timed_busy_plus_simulator_self_is_the_wall() {
        let spin = Duration::from_micros(300);
        let mut sim = Simulator::new(1);
        let bouncer = |me, peer, kick| Bouncer {
            me,
            peer,
            spin,
            hops_left: 20,
            kick,
        };
        let a = sim.add_node(Timed::with_tap(bouncer(A, B, true), 5));
        let b = sim.add_node(Timed::new(bouncer(B, A, false)));
        sim.add_duplex_link(a, b, LinkConfig::default());
        sim.add_route(a, B, b);
        sim.add_route(b, A, a);

        let started = Instant::now();
        sim.run_until_idle();
        let wall_ns = started.elapsed().as_nanos() as u64;

        let ta = sim.node::<Timed<Bouncer>>(a).unwrap();
        let tb = sim.node::<Timed<Bouncer>>(b).unwrap();
        // A: start + timer + 20 bounced packets (the 21st arrival finds
        // the budget spent); B: start + 21 packets, 20 of them bounced.
        assert_eq!(ta.calls() + tb.calls(), 2 + 1 + 41);
        assert_eq!(
            ta.tap().len(),
            5,
            "tap keeps the first tap_cap payload packets"
        );
        assert!(tb.tap().is_empty());
        assert_eq!(ta.inner().hops_left, 0);

        let busy_ns = ta.busy_ns() + tb.busy_ns();
        let scripted_ns = spin.as_nanos() as u64 * (ta.calls() + tb.calls());
        assert!(busy_ns >= scripted_ns, "clock missed scripted work");
        assert!(busy_ns <= wall_ns, "busy {busy_ns} exceeds wall {wall_ns}");
        // Self time is what is left, so the budget sums to the wall; here
        // the scripted work dominates and the simulator's share is small.
        let self_ns = wall_ns - busy_ns;
        let (busy_frac, self_frac) = (
            busy_ns as f64 / wall_ns as f64,
            self_ns as f64 / wall_ns as f64,
        );
        assert!((busy_frac + self_frac - 1.0).abs() < 1e-9);
        assert!(busy_frac > 0.5, "busy share {busy_frac}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let batch = t.push("batch", 0, 100, 0, 1);
        t.push("gateway.encode", 10, 50, batch, 1);
        t.push("gateway.decode", 50, 90, batch, 1);
        let times = t.self_times();
        assert_eq!(times["batch"], (1, 20));
        assert_eq!(times["gateway.encode"], (1, 40));
        assert_eq!(times["gateway.decode"], (1, 40));
    }
}
