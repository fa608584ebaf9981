//! Full-stack integration tests: TCP endpoints, byte caching gateways,
//! and the impaired wireless link, asserting end-to-end transparency.
//!
//! The invariant under test everywhere: whatever the channel does and
//! whatever the policy, the client either receives the exact object or
//! a clean prefix of it — byte caching must never corrupt data.

use bytecache::PolicyKind;
use bytecache_experiments::{run_scenario, ScenarioConfig};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::QueueKind;
use bytecache_workload::{generate, FileSpec, ObjectKind};

fn robust_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(8),
        PolicyKind::AckGated,
        PolicyKind::Adaptive,
    ]
}

#[test]
fn clean_channel_every_policy_is_transparent_and_saves_bytes() {
    let object = FileSpec::File1.build(200_000, 1);
    let baseline = run_scenario(&ScenarioConfig::new(object.clone()));
    assert!(baseline.completed());
    for kind in robust_policies().into_iter().chain([PolicyKind::Naive]) {
        let r = run_scenario(&ScenarioConfig::new(object.clone()).policy(kind));
        assert!(r.completed(), "{kind:?} failed on a clean channel");
        assert!(r.data_intact, "{kind:?} corrupted data");
        if kind == PolicyKind::AckGated {
            // File 1's matches point at most 5 packets back — data that
            // is still unACKed in flight — so the ACK-gated policy can
            // legitimately eliminate almost nothing on this workload.
            // The invariant is bounded overhead, not savings.
            assert!(
                r.wire_bytes() < baseline.wire_bytes() + baseline.wire_bytes() / 25,
                "ack-gated overhead exceeded 4%: {} vs {}",
                r.wire_bytes(),
                baseline.wire_bytes()
            );
        } else {
            assert!(
                r.wire_bytes() < baseline.wire_bytes(),
                "{kind:?} saved nothing: {} vs {}",
                r.wire_bytes(),
                baseline.wire_bytes()
            );
        }
    }
}

#[test]
fn lossy_channel_robust_policies_deliver_intact_data() {
    let object = FileSpec::File1.build(200_000, 2);
    for kind in robust_policies() {
        for seed in [1u64, 2, 3] {
            let r = run_scenario(
                &ScenarioConfig::new(object.clone())
                    .policy(kind)
                    .loss(0.05)
                    .seed(seed),
            );
            assert!(
                r.completed(),
                "{kind:?} seed {seed} did not survive 5% loss: {:?}",
                r.server
            );
            assert!(r.data_intact, "{kind:?} seed {seed} corrupted data");
        }
    }
}

#[test]
fn corruption_and_reordering_are_survivable() {
    let object = FileSpec::File1.build(150_000, 3);
    for kind in [PolicyKind::CacheFlush, PolicyKind::TcpSeq] {
        let mut cfg = ScenarioConfig::new(object.clone()).policy(kind).seed(9);
        cfg.corruption_rate = 0.02;
        cfg.reorder_rate = 0.05;
        let r = run_scenario(&cfg);
        assert!(r.completed(), "{kind:?} failed under corruption+reordering");
        assert!(r.data_intact);
        assert!(r.wireless.packets_corrupted > 0, "corruption never fired");
        assert!(r.wireless.packets_reordered > 0, "reordering never fired");
    }
}

#[test]
fn bursty_loss_is_survivable() {
    let object = FileSpec::File1.build(150_000, 4);
    let mut cfg = ScenarioConfig::new(object.clone())
        .policy(PolicyKind::CacheFlush)
        .loss(0.05)
        .seed(5);
    cfg.burst_len = Some(4.0);
    let r = run_scenario(&cfg);
    assert!(r.completed(), "cache-flush failed under bursty loss");
    assert!(r.data_intact);
}

#[test]
fn naive_policy_stalls_but_never_corrupts() {
    let object = FileSpec::File1.build(300_000, 5);
    for seed in 1..5u64 {
        let r = run_scenario(
            &ScenarioConfig::new(object.clone())
                .policy(PolicyKind::Naive)
                .loss(0.02)
                .seed(seed),
        );
        // One loss is certain at this size; the naive policy stalls.
        assert!(!r.completed(), "seed {seed}: naive should have stalled");
        assert!(
            r.data_intact,
            "seed {seed}: the delivered prefix must still be clean"
        );
        assert!(r.fraction_retrieved() < 1.0);
    }
}

#[test]
fn informed_marking_rescues_the_naive_policy() {
    let object = FileSpec::File1.build(300_000, 6);
    for seed in 1..4u64 {
        let mut cfg = ScenarioConfig::new(object.clone())
            .policy(PolicyKind::Naive)
            .loss(0.02)
            .seed(seed);
        cfg.nacks = true;
        let r = run_scenario(&cfg);
        assert!(
            r.completed(),
            "seed {seed}: informed marking should prevent the stall: {:?}",
            r.server
        );
        assert!(r.data_intact);
    }
}

#[test]
fn real_object_classes_transfer_intact() {
    for kind in ObjectKind::ALL {
        let object = generate(kind, 150_000, 8);
        let r = run_scenario(
            &ScenarioConfig::new(object)
                .policy(PolicyKind::CacheFlush)
                .loss(0.02)
                .seed(2),
        );
        assert!(r.completed(), "{kind} transfer failed");
        assert!(r.data_intact, "{kind} corrupted");
    }
}

/// Everything observable about a run, rendered into one comparable
/// string (telemetry minus the wall-clock `span.*` histograms, which
/// time the host and not the simulation).
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

/// The same configuration digests identically on a second run and on
/// the heap event queue, on every channel and protocol shape the
/// scenario can take: plain loss, bursty loss with reordering (and
/// telemetry on), corruption, NACKs, and a cache wipe recovered over a
/// faulty control channel.
#[test]
fn runs_are_deterministic_across_invocations() {
    let object = || FileSpec::File1.build(120_000, 3);
    let lossy = ScenarioConfig::new(FileSpec::File2.build(150_000, 7))
        .policy(PolicyKind::TcpSeq)
        .loss(0.07)
        .seed(77);
    let mut bursty = ScenarioConfig::new(object())
        .policy(PolicyKind::TcpSeq)
        .loss(0.08)
        .seed(4)
        .reorder_burst(3)
        .telemetry(true);
    bursty.burst_len = Some(4.0);
    bursty.reorder_rate = 0.05;
    let mut corrupting = ScenarioConfig::new(object())
        .policy(PolicyKind::TcpSeq)
        .loss(0.02)
        .seed(8);
    corrupting.corruption_rate = 0.03;
    let mut nacks = ScenarioConfig::new(object())
        .policy(PolicyKind::KDistance(8))
        .loss(0.05)
        .seed(2);
    nacks.nacks = true;
    let wiped = ScenarioConfig::new(object())
        .policy(PolicyKind::CacheFlush)
        .loss(0.03)
        .seed(6)
        .recovery()
        .wipe_at(SimDuration::from_millis(150))
        .nack_faults(0.05, 0.05)
        .telemetry(true);
    for (label, cfg) in [
        ("lossy", lossy),
        ("bursty-reorder", bursty),
        ("corruption", corrupting),
        ("nacks", nacks),
        ("wipe-recovery", wiped),
    ] {
        let first = digest(&cfg);
        assert_eq!(digest(&cfg), first, "{label}: second run differs");
        assert_eq!(
            digest(&cfg.queue(Some(QueueKind::Heap))),
            first,
            "{label}: heap queue differs"
        );
    }
}

#[test]
fn shim_overhead_is_the_only_cost_on_incompressible_data() {
    // Video-like (incompressible) traffic: byte caching must cost at
    // most the shim header per packet, never more.
    let object = generate(ObjectKind::Video, 150_000, 9);
    let baseline = run_scenario(&ScenarioConfig::new(object.clone()));
    let r = run_scenario(&ScenarioConfig::new(object).policy(PolicyKind::Naive));
    assert!(r.completed());
    let overhead = r.wire_bytes() as f64 / baseline.wire_bytes() as f64;
    assert!(
        (1.0..1.05).contains(&overhead),
        "expected ~1% shim overhead, got ratio {overhead}"
    );
}
