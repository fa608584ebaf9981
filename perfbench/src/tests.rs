//! Tests that hold the benchmark to its own contract: runs repeat
//! exactly, the catalogue, `BENCHMARK.json` and what the runs emit agree,
//! and the sources stay neutral about the product's modes.

use std::collections::BTreeSet;

use crate::catalogue::{self, Kind, METRICS, WORKLOADS};
use crate::orchestrate::{
    compare_sets, flat_lines, result_line, ResultSet, SetOptions, WorkloadResult,
};
use crate::run::{run_workload, RunOutput, Scale};

fn tiny(workload: &str, seed: u64, traced: bool) -> RunOutput {
    run_workload(workload, seed, Scale::Tiny, traced).expect("known workload")
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .1
}

/// Names of the metrics a run of `workload` owes: the catalogue's, of
/// the given kind (and, with `exact_only`, count type), that exist on it.
fn owed(workload: &str, kind: Kind, exact_only: bool) -> BTreeSet<&'static str> {
    METRICS
        .iter()
        .filter(|m| m.kind == kind && m.on.covers(workload) && (m.exact || !exact_only))
        .map(|m| m.name)
        .collect()
}

fn names(metrics: &[(&'static str, f64)]) -> BTreeSet<&'static str> {
    let set: BTreeSet<&str> = metrics.iter().map(|m| m.0).collect();
    assert_eq!(set.len(), metrics.len(), "a metric was emitted twice");
    set
}

/// Two untraced runs and one traced run of `workload` on one seed: every
/// count-type number must repeat exactly, the traced run (same work) must
/// count what the untraced ones counted, and each mode must emit exactly
/// the catalogue's metrics for it: none missing, none the catalogue does
/// not name, none that does not exist on the workload.
fn check_workload(workload: &str) {
    let a = tiny(workload, 7, false);
    let b = tiny(workload, 7, false);
    assert!(a.attempted > 0);
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    assert_eq!(a.failed, 0, "{workload}: {:?}", a.notes);
    assert!(a.correct(), "{workload}: {:?}", a.violations);
    assert_eq!(
        a.counts, b.counts,
        "{workload}: counts differ between identical runs"
    );
    for m in METRICS
        .iter()
        .filter(|m| m.kind == Kind::EndToEnd && m.exact && m.on.covers(workload))
    {
        assert_eq!(
            value(&a, m.name),
            value(&b, m.name),
            "{workload}: {}",
            m.name
        );
        if m.driver_gated() {
            assert!(value(&a, m.name) > 0.0, "{}: must never be 0", m.name);
        }
    }
    assert_eq!(names(&a.metrics), owed(workload, Kind::EndToEnd, false));
    assert_eq!(names(&a.counts), {
        let mut counts = owed(workload, Kind::PerLayer, true);
        // Only a traced run records the event-queue schedule.
        counts.remove("wheel.schedule_ops");
        counts.remove("gateway.batch_samples");
        counts
    });

    let traced = tiny(workload, 7, true);
    assert!(traced.correct(), "{workload}: {:?}", traced.violations);
    assert_eq!((traced.attempted, traced.failed), (a.attempted, 0));
    let owed_traced: BTreeSet<&str> = METRICS
        .iter()
        .filter(|m| m.on.covers(workload) && !m.driver_gated())
        .map(|m| m.name)
        .collect();
    assert_eq!(names(&traced.metrics), owed_traced);
    for &(name, counted) in a.counts.iter().chain(&a.metrics) {
        if catalogue::metric(name).is_some_and(|m| m.exact && !m.driver_gated()) {
            assert_eq!(
                value(&traced, name),
                counted,
                "{workload}: traced {name} differs from untraced"
            );
        }
    }
    assert!(traced.metrics.iter().all(|m| m.1.is_finite()));
    let spans = traced.spans.expect("traced run keeps its spans");
    assert!(!spans.spans().is_empty());
    if workload.starts_with("sim_") {
        let budget: f64 = [
            "tcp.server_busy_frac",
            "tcp.client_busy_frac",
            "gateway.encode_busy_frac",
            "gateway.decode_busy_frac",
            "sim.self_frac",
        ]
        .iter()
        .map(|n| value_of(&traced.metrics, n))
        .sum();
        assert!(
            (budget - 1.0).abs() < 0.01,
            "{workload}: budget sums to {budget}"
        );
    } else {
        let coverage = value_of(&traced.metrics, "trace.coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{workload}: coverage {coverage}"
        );
    }
}

fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).expect("metric").1
}

#[test]
fn gw_web_1400_repeats_exactly_and_matches_the_catalogue() {
    check_workload("gw_web_1400");
}

#[test]
fn gw_fresh_256_repeats_exactly_and_matches_the_catalogue() {
    check_workload("gw_fresh_256");
}

#[test]
fn sim_paper_sweep_repeats_exactly_and_matches_the_catalogue() {
    check_workload("sim_paper_sweep");
}

#[test]
fn sim_mice_crowd_repeats_exactly_and_matches_the_catalogue() {
    check_workload("sim_mice_crowd");
}

#[test]
fn the_seed_reaches_the_channel_and_the_content() {
    let loss = |seed| {
        value_of(
            &tiny("sim_paper_sweep", seed, false).counts,
            "link.packets_lost",
        )
    };
    let (a, b) = (loss(7), loss(8));
    assert!(a > 0.0 && b > 0.0, "the lossy cells must lose packets");
    assert_ne!(a, b, "a different seed must give a different channel");
    let air = |seed| value(&tiny("gw_web_1400", seed, false), "air_byte_ratio");
    assert_ne!(
        air(7),
        air(8),
        "a different seed must give different content"
    );
}

#[test]
fn the_workloads_stress_the_layers_they_claim() {
    let web = tiny("gw_web_1400", 3, false);
    let fresh = tiny("gw_fresh_256", 3, false);
    let count = |out: &RunOutput, name| value_of(&out.counts, name);
    assert!(
        value(&web, "air_byte_ratio") < 0.9,
        "web content must compress"
    );
    assert!(
        value(&fresh, "air_byte_ratio") > 1.0,
        "fresh content pays the shim"
    );
    assert!(count(&fresh, "encoder.matched_bytes") < 0.01 * count(&fresh, "encoder.bytes_in"));
    for out in [&web, &fresh] {
        assert!(
            count(out, "store.evictions") > 0.0,
            "the cache must turn over"
        );
    }
    let mice = tiny("sim_mice_crowd", 3, false);
    assert_eq!(count(&mice, "tcp.timeouts"), 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("gw_nope", 1, Scale::Tiny, false).is_err());
}

fn allowed_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn catalogue_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for name in METRICS
        .iter()
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
    {
        assert!(allowed_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for m in METRICS {
        let unit_ok = !m.unit.is_empty()
            && m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "{}: bad unit {:?}", m.name, m.unit);
        assert!(!m.meaning.is_empty() && !m.layer.is_empty() && !m.moves.is_empty());
        match m.kind {
            // ISSUE 11: host-time bounds never above 10 %. What
            // BENCHMARK.json declares covers ten different seeds, so it
            // is no tighter, and the driver caps it at 0.25.
            Kind::EndToEnd => {
                assert!((0.0..=0.10).contains(&m.bound), "{}: bound", m.name);
                assert!(
                    !m.driver_gated() || (m.bound..=0.25).contains(&m.driver_bound),
                    "{}: driver bound",
                    m.name
                );
                assert!(
                    !m.driver_gated() || m.on == catalogue::On::All,
                    "{}: the driver wants a gated metric on every workload",
                    m.name
                );
            }
            Kind::PerLayer => assert_eq!((m.bound, m.driver_bound), (0.0, 0.0)),
        }
    }
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    // The driver wants set-up time gated, with the largest bound.
    let setup = catalogue::metric("setup_s").expect("setup_s");
    assert!(setup.unit == "s" && setup.better == catalogue::Better::Lower);
    assert!(METRICS.iter().all(|m| m.driver_bound <= setup.driver_bound));
    let listing = catalogue::render();
    assert!(METRICS.iter().all(|m| listing.contains(m.name)));
}

/// `BENCHMARK.json` (what the driver reads) is generated from the
/// catalogue (what the program emits); regenerate it with
/// `perf --benchmark-json > BENCHMARK.json` when the catalogue changes.
#[test]
fn benchmark_json_is_the_catalogue() {
    let generated = catalogue::benchmark_json();
    assert_eq!(include_str!("../../BENCHMARK.json"), generated);
    assert!(generated.len() < 64 << 10);
    let listed = |m: &catalogue::MetricDef| generated.matches(&format!("\"{}\"", m.name)).count();
    assert!(METRICS.iter().all(|m| listed(m) == 1));
    assert!((1..=16).contains(&catalogue::driver_metrics(false).count()));
    assert!((1..=128).contains(&catalogue::driver_metrics(true).count()));
}

/// The benchmark judges refactors that delete losing modes (ROADMAP item
/// 3), so it must not name one: every mode comes from the product's
/// defaults, and the experiments crate — itself due to be restructured —
/// is not imported. This is the mechanical form of that rule.
#[test]
fn sources_name_no_mode_and_no_experiments_crate() {
    let sources = [
        ("lib.rs", include_str!("lib.rs")),
        ("catalogue.rs", include_str!("catalogue.rs")),
        ("counts.rs", include_str!("counts.rs")),
        ("gw.rs", include_str!("gw.rs")),
        ("host.rs", include_str!("host.rs")),
        ("orchestrate.rs", include_str!("orchestrate.rs")),
        ("replay.rs", include_str!("replay.rs")),
        ("run.rs", include_str!("run.rs")),
        ("simw.rs", include_str!("simw.rs")),
        ("stats.rs", include_str!("stats.rs")),
        ("trace.rs", include_str!("trace.rs")),
        ("tests.rs", include_str!("tests.rs")),
        ("bin/perf.rs", include_str!("bin/perf.rs")),
        ("Cargo.toml", include_str!("../Cargo.toml")),
    ];
    // Spelled in two halves so this file passes its own check.
    let forbidden: Vec<String> = [
        ("bytecache_", "experiments"),
        ("bytecache-", "experiments"),
        ("Scan", "Mode::"),
        ("Queue", "Kind::"),
        ("Exec", "Mode::"),
        ("Payload", "Mode::"),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect();
    for (file, text) in sources {
        for needle in &forbidden {
            assert!(!text.contains(needle.as_str()), "{file} mentions {needle}");
        }
    }
}

fn set_with(air: f64, events: f64, mib_s: [f64; 3]) -> ResultSet {
    let mut w = WorkloadResult {
        name: "sim_mice_crowd",
        ..WorkloadResult::default()
    };
    for m in METRICS.iter().filter(|m| m.on.covers(w.name)) {
        let v = match m.name {
            "air_byte_ratio" => air,
            "sim.events" => events,
            _ => 1.0,
        };
        match m.kind {
            Kind::EndToEnd if m.name == "payload_mib_s" => {
                drop(w.end_to_end.insert(m.name.to_owned(), mib_s.to_vec()));
            }
            Kind::EndToEnd => drop(w.end_to_end.insert(m.name.to_owned(), vec![v; 3])),
            Kind::PerLayer => drop(w.per_layer.insert(m.name.to_owned(), v)),
        }
    }
    w.counts = vec![[("sim.events".to_owned(), events)].into_iter().collect(); 3];
    ResultSet {
        host: crate::host::HostInfo::read(),
        options: SetOptions {
            seed: 1,
            seconds: 1,
            reps: 3,
            tiny: true,
        },
        workloads: vec![w],
    }
}

#[test]
fn aa_comparison_is_exact_on_counts_and_bounded_on_host_time() {
    let base = set_with(0.5, 1000.0, [100.0; 3]);
    let agree = compare_sets(&base, &set_with(0.5, 1000.0, [104.0; 3]));
    assert_eq!((agree.disagree.len(), agree.unresolved.len()), (0, 0));
    // Steady repetitions, medians 40 % apart: the sets disagree.
    let slower = compare_sets(&base, &set_with(0.5, 1000.0, [60.0; 3]));
    assert!(
        slower.disagree.iter().any(|p| p.contains("payload_mib_s")) && slower.unresolved.is_empty(),
        "{slower:?}"
    );
    // The same medians from repetitions that spread wider than the bound:
    // the host could not resolve the metric.
    let noisy = compare_sets(&base, &set_with(0.5, 1000.0, [40.0, 60.0, 90.0]));
    assert!(
        noisy.unresolved.iter().any(|p| p.contains("payload_mib_s")) && noisy.disagree.is_empty(),
        "{noisy:?}"
    );
    let recount = compare_sets(&base, &set_with(0.5, 1001.0, [100.0; 3]));
    assert!(
        recount.disagree.iter().any(|p| p.contains("sim.events")),
        "{recount:?}"
    );
    let reair = compare_sets(&base, &set_with(0.5001, 1000.0, [100.0; 3]));
    assert!(
        reair.disagree.iter().any(|p| p.contains("air_byte_ratio")),
        "{reair:?}"
    );
}

/// The driver's result line carries every metric of the mode by name,
/// 0 where one does not exist on the workload; the flat lines carry only
/// those that do.
#[test]
fn result_line_names_every_metric_and_flat_lines_only_the_workloads_own() {
    let out = tiny("gw_fresh_256", 5, true);
    let line = result_line(&out, true);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for m in catalogue::driver_metrics(true) {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{}",
            m.name
        );
    }
    assert!(line.contains("\"sim_download_mean_s\": {\"value\": 0, \"unit\": \"s\"}"));
    let flat = flat_lines(&out);
    assert!(flat.starts_with(&format!("= attempted {}\n= failed 0\n", out.attempted)));
    assert!(flat.contains("\n= trace.coverage 0.") && !flat.contains("sim_download_mean_s"));
    let plain = result_line(&tiny("gw_fresh_256", 5, false), false);
    assert!(plain.contains("\"setup_s\": {\"value\": 0.") && !plain.contains("trace.coverage"));
}
