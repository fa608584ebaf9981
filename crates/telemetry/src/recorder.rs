//! The [`Recorder`]: one component's counters, gauges, histograms and
//! event ring, with an exact merge.
//!
//! Ownership model: every instrumented component (encoder shard,
//! decoder shard, cache, simulator, TCP node) owns its *own* recorder —
//! there is no shared global and no locking on the hot path. Snapshots
//! are merged upward (component → gateway → harness), and the fixed
//! histogram layout makes the merge exact: merging shard-local
//! recorders produces the same state as one global recorder fed the
//! union of the samples.
//!
//! A disabled recorder (the default) reduces every recording call to a
//! single branch on a bool, so instrumentation can stay compiled in.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::event::{Event, EventRing};
use crate::hist::Histogram;

/// Metric name: `&'static str` on the recording path (no allocation),
/// owned only when reconstructed by the JSONL parser.
pub type MetricName = Cow<'static, str>;

/// Map key: metric name plus an optional numeric label (shard index,
/// flow tag). `BTreeMap` keeps export order deterministic.
pub type Key = (MetricName, Option<u64>);

/// An opaque span-start token; see [`Recorder::span_start`].
///
/// `None` when the recorder was disabled at span start, making the
/// whole span a no-op.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken(Option<Instant>);

/// Counters, gauges, log-bucketed histograms and a bounded event ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    enabled: bool,
    shard: u32,
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Histogram>,
    events: EventRing,
}

impl Recorder {
    /// A disabled recorder: every recording call is a no-op costing one
    /// branch. This is the default state of all instrumented components.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// An enabled recorder.
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder {
            enabled: true,
            ..Recorder::default()
        }
    }

    /// Whether recording calls currently take effect.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable recording. Already-recorded data is retained.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag this recorder (and every event it records) with a shard
    /// index, for per-shard breakdowns after merging.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// The shard tag.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    // ---- counters ------------------------------------------------------

    /// Add `n` to the counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.count_l(name, None, n);
    }

    /// Add `n` to the counter `name` under a numeric label.
    #[inline]
    pub fn count_l(&mut self, name: &'static str, label: Option<u64>, n: u64) {
        if !self.enabled {
            return;
        }
        *self
            .counters
            .entry((Cow::Borrowed(name), label))
            .or_insert(0) += n;
    }

    /// Current value of a counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counter_l(name, None)
    }

    /// Current value of a labelled counter (0 when absent).
    #[must_use]
    pub fn counter_l(&self, name: &'static str, label: Option<u64>) -> u64 {
        self.counters
            .get(&(Cow::Borrowed(name), label))
            .copied()
            .unwrap_or(0)
    }

    // ---- gauges --------------------------------------------------------

    /// Set the gauge `name` to `value` (last-write-wins within one
    /// recorder; merging *sums* gauges, so shard occupancies add up).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.gauge_l(name, None, value);
    }

    /// Set a labelled gauge.
    #[inline]
    pub fn gauge_l(&mut self, name: &'static str, label: Option<u64>, value: u64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert((Cow::Borrowed(name), label), value);
    }

    /// Current value of a gauge (`None` when never set).
    #[must_use]
    pub fn gauge_value(&self, name: &'static str) -> Option<u64> {
        self.gauges.get(&(Cow::Borrowed(name), None)).copied()
    }

    // ---- histograms ----------------------------------------------------

    /// Record one sample into the histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.record_l(name, None, value);
    }

    /// Record one sample into a labelled histogram.
    #[inline]
    pub fn record_l(&mut self, name: &'static str, label: Option<u64>, value: u64) {
        if !self.enabled {
            return;
        }
        self.hists
            .entry((Cow::Borrowed(name), label))
            .or_default()
            .record(value);
    }

    /// The histogram `name`, if any samples were recorded.
    #[must_use]
    pub fn hist(&self, name: &'static str) -> Option<&Histogram> {
        self.hist_l(name, None)
    }

    /// A labelled histogram, if any samples were recorded.
    #[must_use]
    pub fn hist_l(&self, name: &'static str, label: Option<u64>) -> Option<&Histogram> {
        self.hists.get(&(Cow::Borrowed(name), label))
    }

    // ---- spans ---------------------------------------------------------

    /// Start a span. Returns a token to pass to [`Recorder::span_end`];
    /// when the recorder is disabled the token is inert and the span
    /// costs one branch at each end.
    #[inline]
    #[must_use]
    pub fn span_start(&self) -> SpanToken {
        SpanToken(self.enabled.then(Instant::now))
    }

    /// End a span, recording its wall-clock duration in nanoseconds
    /// into the histogram `name`.
    #[inline]
    pub fn span_end(&mut self, name: &'static str, token: SpanToken) {
        if let Some(start) = token.0 {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.record(name, ns);
        }
    }

    // ---- events --------------------------------------------------------

    /// Push a structured event onto the ring, stamping it with this
    /// recorder's shard tag.
    #[inline]
    pub fn event(&mut self, mut event: Event) {
        if !self.enabled {
            return;
        }
        event.shard = self.shard;
        self.events.push(event);
    }

    /// Retained events in arrival order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Count of retained events of one kind.
    #[must_use]
    pub fn events_of(&self, kind: crate::event::EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    // ---- merge / export hooks -----------------------------------------

    /// Merge another recorder's data into this one: counters, gauges
    /// and histogram buckets add element-wise; events append in order
    /// (respecting this ring's bound). The merge is a pure data
    /// operation — the enabled flags of both sides are ignored and
    /// unchanged.
    pub fn merge(&mut self, other: &Recorder) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        self.events.merge(&other.events);
    }

    /// Drop every wall-clock-derived series (the `span.*` histograms,
    /// which time host execution rather than simulated behaviour). Use
    /// before comparing two recorders for simulation-level equality —
    /// e.g. the determinism checks, where two runs of one scenario must
    /// match on every simulated metric but naturally differ in host
    /// timing.
    pub fn strip_wall_clock(&mut self) {
        self.hists.retain(|(name, _), _| !name.starts_with("span."));
    }

    /// Whether nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.events.is_empty()
    }

    /// All counters in deterministic (name, label) order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges in deterministic (name, label) order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms in deterministic (name, label) order.
    pub fn hists(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.hists.iter()
    }

    /// Insert a counter with an owned name (JSONL parser only).
    pub(crate) fn insert_counter(&mut self, key: Key, value: u64) {
        *self.counters.entry(key).or_insert(0) += value;
    }

    /// Insert a gauge with an owned name (JSONL parser only).
    pub(crate) fn insert_gauge(&mut self, key: Key, value: u64) {
        self.gauges.insert(key, value);
    }

    /// Insert a histogram with an owned name (JSONL parser only).
    pub(crate) fn insert_hist(&mut self, key: Key, hist: Histogram) {
        self.hists.entry(key).or_default().merge(&hist);
    }

    /// Push a parsed event verbatim, keeping its original shard tag
    /// (JSONL parser only).
    pub(crate) fn insert_event(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.count("a", 5);
        r.gauge("g", 7);
        r.record("h", 3);
        let t = r.span_start();
        r.span_end("span", t);
        r.event(Event::new(EventKind::Nack));
        assert!(r.is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates() {
        let mut r = Recorder::enabled();
        r.count("pkts", 2);
        r.count("pkts", 3);
        r.count_l("shard.pkts", Some(1), 4);
        r.gauge("bytes", 10);
        r.gauge("bytes", 20);
        r.record("sz", 100);
        r.record("sz", 200);
        assert_eq!(r.counter("pkts"), 5);
        assert_eq!(r.counter_l("shard.pkts", Some(1)), 4);
        assert_eq!(r.gauge_value("bytes"), Some(20));
        assert_eq!(r.hist("sz").unwrap().count(), 2);
    }

    #[test]
    fn span_records_nanoseconds() {
        let mut r = Recorder::enabled();
        let t = r.span_start();
        r.span_end("span.test_ns", t);
        let h = r.hist("span.test_ns").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn strip_wall_clock_drops_only_span_histograms() {
        let mut r = Recorder::enabled();
        r.record("hop_latency_us", 42);
        let t = r.span_start();
        r.span_end("span.sim_run_ns", t);
        r.count("pkts", 1);
        r.strip_wall_clock();
        assert!(r.hist("span.sim_run_ns").is_none());
        assert_eq!(r.hist("hop_latency_us").unwrap().count(), 1);
        assert_eq!(r.counter("pkts"), 1);
    }

    #[test]
    fn merge_sums_everything_and_stamps_shards() {
        let mut a = Recorder::enabled();
        a.set_shard(0);
        let mut b = Recorder::enabled();
        b.set_shard(3);
        a.count("n", 1);
        b.count("n", 2);
        a.gauge("occ", 10);
        b.gauge("occ", 5);
        a.record("h", 1);
        b.record("h", 1 << 20);
        b.event(Event::new(EventKind::Eviction));
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.gauge_value("occ"), Some(15));
        assert_eq!(a.hist("h").unwrap().count(), 2);
        let ev: Vec<_> = a.events().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].shard, 3, "merged events keep their shard tag");
    }
}
