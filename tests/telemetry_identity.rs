//! Telemetry must be an observer, not a participant: every experiment
//! must produce byte-identical results with telemetry on and off, and
//! the snapshot a run emits must carry the per-flow and per-engine
//! series the paper's analysis needs.

use bytecache::PolicyKind;
use bytecache_experiments::{fig6, run_scenario, sweep, Campaign, ScenarioConfig};
use bytecache_telemetry::EventKind;
use bytecache_workload::FileSpec;

fn quick_params() -> sweep::SweepParams {
    sweep::SweepParams {
        object_size: 120_000,
        losses: vec![0.0, 0.03],
        seeds: 2,
        files: vec![FileSpec::File1],
        policies: vec![PolicyKind::CacheFlush],
    }
}

#[test]
fn sweep_results_are_identical_with_telemetry_on() {
    let campaign = Campaign::default();
    let params = quick_params();
    let plain = sweep::run_with(&campaign, &params);
    let (instrumented, metrics) = sweep::run_with_metrics(&campaign, &params);
    // The serialized points — every float bit — must match.
    assert_eq!(sweep::to_json(&plain), sweep::to_json(&instrumented));
    // And the snapshot must actually contain the acceptance series.
    assert!(metrics.counter("encoder.packets") > 0);
    assert!(metrics.hist("flow.perceived_loss_bp").is_some());
    assert!(metrics.counter("encoder.encoded_packets") > 0);
    // The fingerprint table's size survives the engine → gateway →
    // campaign merge (gauges add, so this is slots over all caches).
    let slots = metrics.gauge_value("cache.fp_slots").expect("table gauge");
    let entries = metrics
        .gauge_value("cache.fp_entries")
        .expect("table gauge");
    assert!(
        entries * 4 <= slots * 3,
        "{entries} entries in {slots} slots"
    );
    assert!(
        metrics.counter("cache.fp_rehashes") > 0,
        "120 KB outgrows 1024 slots"
    );
    // Some inserts find their home group full, but most do not. The
    // decoders mirror the encoders' insertions, so both sides' spills
    // together stay under one side's count.
    let spills = metrics.counter("cache.fp_spills");
    let inserted = metrics.counter("encoder.index_insertions");
    assert!(
        0 < spills && spills < inserted,
        "{spills} spills for {inserted} insertions a side"
    );
    assert!(
        metrics.events_of(EventKind::PolicyFlush) > 0
            || metrics.events_of(EventKind::EpochFlush) > 0,
        "lossy cache-flush runs must log flush events"
    );
}

#[test]
fn fig6_results_are_identical_with_telemetry_on() {
    let campaign = Campaign::default();
    let plain = fig6::run_with(&campaign, 3, 100_000, 0.02);
    let (instrumented, metrics) = fig6::run_with_metrics(&campaign, 3, 100_000, 0.02);
    assert_eq!(fig6::to_json(&plain), fig6::to_json(&instrumented));
    assert!(metrics.counter("tcp.segments_sent") > 0);
}

#[test]
fn scenario_with_telemetry_reports_the_same_transfer() {
    let object = FileSpec::File1.build(120_000, 42);
    let plain = run_scenario(
        &ScenarioConfig::new(object.clone())
            .policy(PolicyKind::CacheFlush)
            .loss(0.02)
            .seed(7),
    );
    let instrumented = run_scenario(
        &ScenarioConfig::new(object)
            .policy(PolicyKind::CacheFlush)
            .loss(0.02)
            .seed(7)
            .telemetry(true),
    );
    assert_eq!(plain.wire_bytes(), instrumented.wire_bytes());
    assert_eq!(plain.duration_secs(), instrumented.duration_secs());
    assert_eq!(plain.completed(), instrumented.completed());
    assert_eq!(plain.perceived_loss(), instrumented.perceived_loss());
    assert!(plain.telemetry.is_none());
    let rec = instrumented.telemetry.expect("telemetry snapshot");
    // Per-flow perceived loss is recorded both labelled (by flow hash)
    // and unlabelled (aggregate).
    assert!(rec.hist("flow.perceived_loss_bp").is_some());
    assert!(rec.hist("sim.hop_latency_us").is_some());
    assert!(rec.hist("tcp.rtt_us").is_some());
}
