//! Campaign determinism: parallel experiment output must be
//! byte-identical to the serial reference.
//!
//! The campaign executor's contract (see `campaign` module docs) is that
//! thread count is invisible in the results — seeds are run indices and
//! results (and telemetry snapshots) return in input order. These tests
//! pin that contract end-to-end through real simulations at reduced
//! scale, and property-test the executor with cheap functions.

use bytecache::PolicyKind;
use bytecache_experiments::campaign::Campaign;
use bytecache_experiments::{fig6, sweep};
use bytecache_telemetry::export::to_jsonl;
use bytecache_telemetry::Recorder;
use bytecache_workload::FileSpec;
use proptest::prelude::*;

fn micro_sweep() -> sweep::SweepParams {
    sweep::SweepParams {
        object_size: 60_000,
        losses: vec![0.0, 0.02],
        seeds: 1,
        files: vec![FileSpec::File1],
        policies: vec![PolicyKind::CacheFlush],
    }
}

/// A snapshot as `--metrics-out` writes it, minus the wall-clock spans.
fn snapshot(mut rec: Recorder) -> String {
    rec.strip_wall_clock();
    to_jsonl(&rec, &[])
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let params = micro_sweep();
    let serial = Campaign::serial().with_telemetry(true);
    let (points, rec) = sweep::run(&serial, &params);
    let (reference, reference_rec) = (sweep::to_json(&points), snapshot(rec));
    for threads in [2, 8] {
        let campaign = serial.clone().with_threads(threads);
        let (points, rec) = sweep::run(&campaign, &params);
        assert_eq!(
            sweep::to_json(&points),
            reference,
            "sweep diverged at threads={threads}"
        );
        assert_eq!(
            snapshot(rec),
            reference_rec,
            "sweep telemetry diverged at threads={threads}"
        );
    }
}

#[test]
fn fig6_is_byte_identical_across_thread_counts() {
    let reference = fig6::to_json(&fig6::run(&Campaign::serial(), 4, 60_000, 0.03).0);
    for threads in [2, 8] {
        let campaign = Campaign::default().with_threads(threads);
        let json = fig6::to_json(&fig6::run(&campaign, 4, 60_000, 0.03).0);
        assert_eq!(json, reference, "fig6 diverged at threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_cells_matches_serial_map(cells in prop::collection::vec(any::<u32>(), 0..80), threads in 1usize..9) {
        let campaign = Campaign::default().with_threads(threads);
        let expected: Vec<u64> = cells
            .iter()
            .map(|&c| u64::from(c).wrapping_mul(0x9E37_79B9))
            .collect();
        let got = campaign.run_cells("prop", cells, |c| {
            u64::from(c).wrapping_mul(0x9E37_79B9)
        });
        prop_assert_eq!(got, expected);
    }
}
