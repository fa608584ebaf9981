//! PDES determinism across the real experiment scenarios.
//!
//! The netsim crate proves engine equivalence on synthetic topologies
//! (`crates/netsim/tests/pdes_equivalence.rs`); this suite proves it
//! on the *actual* paper scenarios — the four-node chain with TCP
//! endpoints, DRE gateways, lossy/bursty/reordering channels, NACKs,
//! cache wipes, and the full recovery protocol. For every scenario
//! shape, `sim_workers` ∈ {1, 2, 4, 8} must produce byte-identical
//! [`RunResult`]s: client/server reports, encoder/decoder counters,
//! wireless link stats, end time, and the telemetry snapshot (with
//! wall-clock `span.*` histograms stripped — those time the host, not
//! the simulation).

use bytecache::PolicyKind;
use bytecache_experiments::{run_scenario, ScenarioConfig};
use bytecache_netsim::time::SimDuration;
use bytecache_workload::FileSpec;

/// Render everything observable about a run into one comparable string.
fn digest(config: &ScenarioConfig) -> String {
    let r = run_scenario(config);
    let mut out = format!(
        "complete={} intact={} bytes={} dur_us={:?} frac={:.6} end_us={} \
         wire_bytes={} wireless={:?} undecodable={} recover={} resyncs={} \
         server={:?} encoder={:?} decoder={:?}",
        r.client.complete,
        r.data_intact,
        r.client.bytes_delivered,
        r.client.duration().map(|d| d.as_micros()),
        r.fraction_retrieved(),
        r.end_time.as_micros(),
        r.wire_bytes(),
        r.wireless,
        r.undecodable_drops,
        r.recovery_requests,
        r.resyncs_sent,
        r.server,
        r.encoder,
        r.decoder,
    );
    if let Some(snapshot) = &r.telemetry {
        let mut t = snapshot.clone();
        t.strip_wall_clock();
        for (k, v) in t.counters() {
            out.push_str(&format!("\nC {k:?}={v}"));
        }
        for (k, v) in t.gauges() {
            out.push_str(&format!("\nG {k:?}={v}"));
        }
        for (k, h) in t.hists() {
            out.push_str(&format!("\nH {k:?}={h:?}"));
        }
    }
    out
}

fn assert_worker_invariant(label: &str, base: ScenarioConfig) {
    let oracle = digest(&base.clone().sim_workers(1));
    for workers in [2usize, 4, 8] {
        let got = digest(&base.clone().sim_workers(workers));
        assert_eq!(
            got, oracle,
            "{label}: run diverged between sim_workers=1 and sim_workers={workers}"
        );
    }
}

fn object() -> Vec<u8> {
    FileSpec::File1.build(120_000, 3)
}

#[test]
fn baseline_clean_channel() {
    assert_worker_invariant("baseline", ScenarioConfig::new(object()));
}

#[test]
fn dre_lossy_channel() {
    for kind in [
        PolicyKind::Naive,
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(8),
    ] {
        assert_worker_invariant(
            "dre-lossy",
            ScenarioConfig::new(object())
                .policy(kind)
                .loss(0.05)
                .seed(9),
        );
    }
}

#[test]
fn bursty_reordering_channel_with_telemetry() {
    let mut cfg = ScenarioConfig::new(object())
        .policy(PolicyKind::TcpSeq)
        .loss(0.08)
        .seed(4)
        .reorder_burst(3)
        .telemetry(true);
    cfg.burst_len = Some(4.0);
    cfg.reorder_rate = 0.05;
    assert_worker_invariant("bursty-reorder", cfg);
}

#[test]
fn nacks_and_shared_payloads() {
    let mut cfg = ScenarioConfig::new(object())
        .policy(PolicyKind::KDistance(8))
        .loss(0.05)
        .seed(2);
    cfg.nacks = true;
    assert_worker_invariant("nacks", cfg);
}

#[test]
fn cache_wipe_recovery_mid_transfer() {
    let cfg = ScenarioConfig::new(object())
        .policy(PolicyKind::CacheFlush)
        .loss(0.03)
        .seed(6)
        .recovery()
        .wipe_at(SimDuration::from_millis(150))
        .nack_faults(0.05, 0.05)
        .telemetry(true);
    assert_worker_invariant("wipe-recovery", cfg);
}

#[test]
fn corruption_heavy_channel() {
    let mut cfg = ScenarioConfig::new(object())
        .policy(PolicyKind::TcpSeq)
        .loss(0.02)
        .seed(8);
    cfg.corruption_rate = 0.03;
    assert_worker_invariant("corruption", cfg);
}
