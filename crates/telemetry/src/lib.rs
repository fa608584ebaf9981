//! `bytecache-telemetry` — observability for the byte-caching pipeline.
//!
//! The paper's central result is *diagnostic*: aggressive encoding
//! inflates the perceived loss rate, which interacts badly with TCP
//! backoff. Seeing that requires more than end-of-run aggregates — it
//! needs distributions (how long do encodes take? how is perceived
//! loss spread across flows?) and structured events (which packet
//! failed to decode, when, and why). This crate provides both, with
//! three hard constraints inherited from the engine's design:
//!
//! 1. **Exact merges.** Histograms use a fixed log-bucket layout
//!    ([`hist::BUCKETS`] power-of-two buckets), so shard-local or
//!    thread-local recorders merge by element-wise addition. Merging is
//!    associative, commutative, and equal to recording the union of
//!    samples into one recorder.
//! 2. **Cheap when off.** Every component owns a [`Recorder`] that
//!    defaults to disabled; a disabled recording call is one branch, a
//!    disabled span is one branch at each end. Instrumentation stays
//!    compiled in, and a telemetry-off run is byte-identical to an
//!    uninstrumented build's output.
//! 3. **Bounded.** Structured events go into a drop-oldest ring
//!    ([`EventRing`]) with a drop counter, so a pathological run can
//!    never make telemetry unbounded.
//!
//! Snapshots export as JSONL ([`export::to_jsonl`]) or a human summary
//! ([`export::summary`]); [`export::parse_jsonl`] reads a snapshot
//! back for verification (the workspace carries no JSON dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod recorder;

pub use event::{Event, EventKind, EventRing};
pub use hist::Histogram;
pub use recorder::{Recorder, SpanToken};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_snapshot() {
        let mut shard0 = Recorder::enabled();
        let mut shard1 = Recorder::enabled();
        shard1.set_shard(1);
        shard0.count("encoder.packets", 3);
        shard1.count("encoder.packets", 4);
        shard0.record("encode.wire_bytes", 120);
        shard1.record("encode.wire_bytes", 1400);
        shard1.event(Event::new(EventKind::PolicyFlush).details(2, 0));

        let mut merged = Recorder::enabled();
        merged.merge(&shard0);
        merged.merge(&shard1);
        assert_eq!(merged.counter("encoder.packets"), 7);
        assert_eq!(merged.hist("encode.wire_bytes").unwrap().count(), 2);
        assert_eq!(merged.events_of(EventKind::PolicyFlush), 1);

        let text = export::to_jsonl(&merged, &[("experiment", "doc")]);
        let (back, meta) = export::parse_jsonl(&text).unwrap();
        assert_eq!(meta, vec![("experiment".to_string(), "doc".to_string())]);
        assert_eq!(export::to_jsonl(&back, &[("experiment", "doc")]), text);
    }
}
