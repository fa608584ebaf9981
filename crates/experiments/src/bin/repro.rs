//! `repro` — regenerate every table and figure of the paper.
//!
//! `repro --help` prints the experiments and flags ([`USAGE`], also
//! shown after an unknown flag or experiment name).

use bytecache::PolicyKind;
use bytecache_experiments::{
    ablation, capacity, fig6, handoff, insights, interflow, kdistance, mobility, perceived,
    recovery, stalltrace, sweep, table1, table2, tournament, tuning, Campaign,
};
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::QueueKind;

/// What `--help` prints: every experiment arm and every flag.
const USAGE: &str = "\
repro <experiment> [--quick] [--threads N] [--queue KIND] [--metrics-out PATH]
repro verify-metrics PATH [--require key1,key2,...]
repro --help

experiments:
  table1      Table I   - redundancy of web objects vs cache window
  fig6        Figure 6  - naive policy stalls at 1% loss
  fig10       Figure 10 - bytes-sent ratio vs loss rate
  fig11       Figure 11 - download-time ratio vs loss rate
  fig12       Figure 12 - k-distance parameter sweep
  fig13       Figure 13 - perceived vs actual loss rate
  table2      Table II  - the three schemes at 5%/10% loss
  insights    Sec. VII  - packet size vs count at 9% loss
  stalltrace  Figures 4/5 - annotated circular-dependency trace
  mobility    Sec. II   - mid-download handoff survival
  interflow   Sec. I/IV-C - inter-flow savings through shared gateways
  ablation    extension - Bernoulli vs bursty loss at equal mean rate
  tuning      Sec. III-B - DRE parameter (w, k) trade-offs
  recovery    extension - decoder cache wipe mid-transfer: stall time and
              bytes sacrificed to safety (exit 1 on any corrupted delivery)
  capacity    extension - flash-crowd capacity: 25k concurrent flows through
              a bank of gateway pairs; byte savings, stall and first-byte
              distributions, cache pressure
  handoff     extension - multi-hop topologies and gateway handoff: resync vs
              cache migration on a 2-hop cache chain and a 4-gateway mesh;
              per-hop savings, stalls, bytes sacrificed (writes
              BENCH_handoff.json; exits 1 on a corrupted delivery or a
              digest that differs between queue kinds or with telemetry on)
  tournament  extension - every retransmission-mitigation arm (plain TCP, the
              DRE policies, XOR network coding) on the same channel
              realizations across loss model, loss rate, propagation, rate
              limit and workload redundancy; frontier winner map (writes
              BENCH_tournament.json; exits as handoff does)
  sweep       alias for fig10 + fig11
  all         everything above (the default)

flags:
  --quick             shrink object sizes and seed counts (~10x faster)
  --threads N         run experiment grids on N campaign workers (default:
                      one per available CPU); output is byte-identical for
                      every N
  --queue heap|wheel  pin the event-queue kind for capacity, handoff and
                      tournament (default: the wheel); an error (exit 2) on
                      an experiment that ignores it
  --metrics-out PATH  write a telemetry snapshot (JSONL) merged across the
                      instrumented harnesses that ran (fig6, fig10/fig11,
                      stalltrace, recovery, capacity, handoff, tournament);
                      stdout is byte-identical with or without it
  --help, -h          print this text

verify-metrics parses a snapshot back: exit 1 on malformed input or on a
missing --require'd counter or histogram key.
";

struct Scale {
    object_size: usize,
    table1_size: usize,
    fig6_runs: usize,
    seeds: u64,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                object_size: 150_000,
                table1_size: 200_000,
                fig6_runs: 10,
                seeds: 2,
            }
        } else {
            Scale {
                object_size: fig6::EBOOK_SIZE,
                table1_size: fig6::EBOOK_SIZE,
                fig6_runs: 50,
                seeds: 5,
            }
        }
    }
}

/// Parse and check a metrics snapshot; exits non-zero on malformed
/// input or a missing required key (counter or histogram name).
fn verify_metrics(path: &str, require: &[String]) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("verify-metrics: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let (rec, meta) = bytecache_telemetry::export::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("verify-metrics: {path}: {e}");
        std::process::exit(1);
    });
    let counters = rec.counters().count();
    let hists = rec.hists().count();
    if counters == 0 || hists == 0 {
        eprintln!(
            "verify-metrics: {path}: expected at least one counter and one histogram \
             (got {counters} counters, {hists} histograms)"
        );
        std::process::exit(1);
    }
    for key in require {
        let found = rec.counters().any(|((name, _), _)| name == key)
            || rec.hists().any(|((name, _), _)| name == key);
        if !found {
            eprintln!("verify-metrics: {path}: required key '{key}' not present");
            std::process::exit(1);
        }
    }
    println!(
        "verify-metrics: {path} OK ({} meta, {counters} counters, {hists} histograms, \
         {} events)",
        meta.len(),
        rec.event_count()
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut threads = 0usize; // 0 = one worker per available CPU
    let mut queue: Option<QueueKind> = None; // None = harness default
    let mut metrics_out: Option<String> = None;
    let mut require: Vec<String> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            // Already consumed above.
        } else if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        } else if arg == "--queue" {
            queue = match it.next().map(String::as_str) {
                Some("heap") => Some(QueueKind::Heap),
                Some("wheel") => Some(QueueKind::Wheel),
                other => {
                    eprintln!(
                        "--queue needs 'heap' or 'wheel' (got {})",
                        other.unwrap_or("nothing")
                    );
                    std::process::exit(2);
                }
            };
        } else if arg == "--threads" {
            threads = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                });
        } else if arg == "--metrics-out" {
            metrics_out = Some(it.next().cloned().unwrap_or_else(|| {
                eprintln!("--metrics-out needs a path");
                std::process::exit(2);
            }));
        } else if arg == "--require" {
            require = it
                .next()
                .map(|v| v.split(',').map(str::to_string).collect())
                .unwrap_or_else(|| {
                    eprintln!("--require needs a comma-separated key list");
                    std::process::exit(2);
                });
        } else if arg.starts_with('-') {
            eprintln!("unknown flag '{arg}'\n\n{USAGE}");
            std::process::exit(2);
        } else {
            positional.push(arg);
        }
    }
    let what = positional.first().copied().unwrap_or("all").to_string();
    if what == "verify-metrics" {
        let Some(path) = positional.get(1) else {
            eprintln!("verify-metrics needs a snapshot path");
            std::process::exit(2);
        };
        verify_metrics(path, &require);
    }
    let scale = Scale::new(quick);
    let campaign = Campaign::default()
        .with_threads(threads)
        .with_progress(true);

    let known = [
        "table1",
        "fig6",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "table2",
        "insights",
        "stalltrace",
        "mobility",
        "interflow",
        "ablation",
        "tuning",
        "recovery",
        "capacity",
        "handoff",
        "tournament",
        "sweep",
        "all",
    ];
    if !known.contains(&what.as_str()) {
        eprintln!("unknown experiment '{what}'\n\n{USAGE}");
        std::process::exit(2);
    }
    // A knob the selected experiment ignores would otherwise be a
    // silent no-op.
    let queue_aware = ["capacity", "handoff", "tournament", "all"];
    if queue.is_some() && !queue_aware.contains(&what.as_str()) {
        eprintln!(
            "--queue is not wired into '{what}'; it applies to: {}",
            queue_aware.join(", ")
        );
        std::process::exit(2);
    }
    let run = |name: &str| {
        what == name || what == "all" || (what == "sweep" && (name == "fig10" || name == "fig11"))
    };
    // Snapshot merged across every instrumented harness that runs;
    // written at the end when --metrics-out was given.
    let mut metrics = bytecache_telemetry::Recorder::enabled();
    let want_metrics = metrics_out.is_some();

    if run("table1") {
        let rows = table1::run_with(&campaign, scale.table1_size, 42);
        println!("{}", table1::render(&rows));
    }
    if run("fig6") {
        let size = scale.object_size.min(fig6::EBOOK_SIZE);
        let r = if want_metrics {
            let (r, rec) = fig6::run_with_metrics(&campaign, scale.fig6_runs, size, 0.01);
            metrics.merge(&rec);
            r
        } else {
            fig6::run_with(&campaign, scale.fig6_runs, size, 0.01)
        };
        println!("{}", fig6::render(&r));
    }
    if run("fig10") || run("fig11") {
        let params = sweep::SweepParams {
            object_size: scale.object_size,
            seeds: scale.seeds,
            ..sweep::SweepParams::default()
        };
        let pts = if want_metrics {
            let (pts, rec) = sweep::run_with_metrics(&campaign, &params);
            metrics.merge(&rec);
            pts
        } else {
            sweep::run_with(&campaign, &params)
        };
        if run("fig10") {
            println!("{}", sweep::render_fig10(&pts));
        }
        if run("fig11") {
            println!("{}", sweep::render_fig11(&pts));
        }
    }
    if run("fig12") {
        let params = kdistance::KParams {
            object_size: scale.object_size,
            seeds: scale.seeds,
            ..kdistance::KParams::default()
        };
        println!("{}", kdistance::render(&kdistance::run(&params)));
    }
    if run("fig13") {
        let params = perceived::PerceivedParams {
            object_size: scale.object_size,
            seeds: scale.seeds,
            ..perceived::PerceivedParams::default()
        };
        println!(
            "{}",
            perceived::render(&perceived::run_with(&campaign, &params))
        );
    }
    if run("table2") {
        let r = table2::run_with(&campaign, scale.object_size, scale.seeds);
        println!("{}", table2::render(&r));
    }
    if run("insights") {
        println!(
            "{}",
            insights::render(&insights::run(scale.object_size, scale.seeds))
        );
    }
    if run("stalltrace") {
        for policy in [
            PolicyKind::Naive,
            PolicyKind::CacheFlush,
            PolicyKind::TcpSeq,
            PolicyKind::KDistance(4),
        ] {
            println!("## Figures 4/5 — stall trace");
            let (log, rec) = stalltrace::trace_with_metrics(policy, 6);
            if want_metrics {
                metrics.merge(&rec);
            }
            for line in log {
                println!("  {line}");
            }
            println!();
        }
    }
    if run("interflow") {
        let r = interflow::run(
            scale.object_size,
            bytecache::PolicyKind::CacheFlush,
            0.0,
            SimDuration::from_secs(3),
            1,
        );
        println!("## §I — inter-flow redundancy elimination (second download of the same object)");
        println!(
            "  flow 1 wire bytes: {} | flow 2 wire bytes: {} | flow2/flow1 = {:.3} | complete: {}/{}",
            r.first_flow_bytes,
            r.second_flow_bytes,
            r.second_over_first,
            r.first_complete,
            r.second_complete
        );
        println!();
    }
    if run("ablation") {
        let pts = ablation::run_with(&campaign, scale.object_size, 0.05, &[4.0, 8.0], scale.seeds);
        println!("{}", ablation::render(&pts, 0.05));
    }
    if run("tuning") {
        let pts = tuning::run(scale.object_size, &[16, 32, 64], &[3, 4, 6]);
        println!("{}", tuning::render(&pts));
    }
    if run("recovery") {
        let params = if quick {
            recovery::RecoveryParams::quick(scale.seeds)
        } else {
            recovery::RecoveryParams {
                object_size: scale.object_size,
                seeds: scale.seeds,
                ..recovery::RecoveryParams::default()
            }
        };
        let pts = if want_metrics {
            let (pts, rec) = recovery::run_with_metrics(&campaign, &params);
            metrics.merge(&rec);
            pts
        } else {
            recovery::run_with(&campaign, &params)
        };
        println!("{}", recovery::render(&pts));
        // The harness doubles as the divergence-safety smoke test: a
        // wiped decoder may cost bytes and time, never correctness.
        for p in &pts {
            if p.corrupted > 0 {
                eprintln!(
                    "recovery: corrupted delivery at policy={} loss={} wipe_ms={}",
                    p.policy.label(),
                    p.loss,
                    p.wipe_ms
                );
                std::process::exit(1);
            }
        }
    }
    if run("capacity") {
        let params = if quick {
            capacity::CapacityParams::quick()
        } else {
            capacity::CapacityParams::full()
        }
        .queue(queue);
        let r = if want_metrics {
            let (r, rec) = capacity::run_with_metrics(&params);
            metrics.merge(&rec);
            r
        } else {
            capacity::run(&params)
        };
        println!("{}", capacity::render(&r));
        println!();
    }
    if run("handoff") {
        let params = if quick {
            handoff::HandoffParams::quick(scale.seeds)
        } else {
            handoff::HandoffParams::full(scale.seeds)
        }
        .queue(queue);
        let pts = if want_metrics {
            let (pts, rec) = handoff::run_with_metrics(&campaign, &params);
            metrics.merge(&rec);
            pts
        } else {
            handoff::run_with(&campaign, &params)
        };
        println!("{}", handoff::render(&pts));
        // The harness doubles as the handoff-safety smoke test: a
        // handoff may cost bytes and time, never correctness.
        for p in &pts {
            if p.corrupted > 0 {
                eprintln!(
                    "handoff: corrupted delivery at shape={} strategy={} loss={} wipe={}",
                    p.shape.label(),
                    p.strategy.label(),
                    p.loss,
                    p.wipe
                );
                std::process::exit(1);
            }
        }
        // And as the subsystem's determinism contract: the same runs
        // must digest byte-identically on both queue kinds and with
        // telemetry on or off.
        let check = handoff::determinism_check(&params);
        if !check.identical {
            eprintln!("handoff: digests diverged between queue kinds or with telemetry on");
            std::process::exit(1);
        }
        println!(
            "  handoff determinism: {} combos, {} runs byte-identical across \
             heap/wheel and telemetry on/off",
            check.combos, check.runs
        );
        let json = handoff::to_json(&pts);
        std::fs::write("BENCH_handoff.json", &json)
            .expect("write BENCH_handoff.json in the current directory");
        println!("  wrote BENCH_handoff.json");
        println!();
    }
    if run("tournament") {
        let params = if quick {
            tournament::TournamentParams::quick(scale.seeds)
        } else {
            tournament::TournamentParams::full(scale.seeds.min(3))
        }
        .queue(queue);
        let pts = if want_metrics {
            let (pts, rec) = tournament::run_with_metrics(&campaign, &params);
            metrics.merge(&rec);
            pts
        } else {
            tournament::run_with(&campaign, &params)
        };
        println!("{}", tournament::render(&pts));
        println!(
            "{}",
            tournament::render_frontier(&tournament::frontier(&pts))
        );
        // The harness doubles as the coding-safety smoke test: a repair
        // packet may cost bytes, never correctness.
        for p in &pts {
            if p.corrupted > 0 {
                eprintln!(
                    "tournament: corrupted delivery at arm={} channel={} loss={}",
                    p.arm.label(),
                    p.channel.label(),
                    p.loss
                );
                std::process::exit(1);
            }
        }
        // And as the subsystem's determinism contract: the same runs
        // must digest byte-identically on both queue kinds and with
        // telemetry on or off.
        let check = tournament::determinism_check(&params);
        if !check.identical {
            eprintln!("tournament: digests diverged between queue kinds or with telemetry on");
            std::process::exit(1);
        }
        println!(
            "  tournament determinism: {} arms, {} runs byte-identical across \
             heap/wheel and telemetry on/off",
            check.combos, check.runs
        );
        match tournament::nc_vs_cacheflush(&pts) {
            Some(c) => println!(
                "  nc vs cache-flush: {} cells compared, nc wins {}, best ratio {:.3}x at {}",
                c.cells_compared, c.nc_wins, c.best_ratio, c.best_cell
            ),
            None => println!("  nc vs cache-flush: no comparable cells"),
        }
        let json = tournament::bench_json(&params, &pts);
        std::fs::write("BENCH_tournament.json", &json)
            .expect("write BENCH_tournament.json in the current directory");
        println!("  wrote BENCH_tournament.json");
        println!();
    }
    if run("mobility") {
        let r = mobility::run(scale.object_size, SimDuration::from_millis(200), 3);
        println!("## §II — mobility handoff");
        println!(
            "  completed: {} | bytes before handoff: {} | total: {} | \
             in-flight drops at handoff: {} | duration: {:.2}s",
            r.completed,
            r.bytes_before_handoff,
            r.bytes_total,
            r.in_flight_drops,
            r.duration_secs.unwrap_or(f64::NAN)
        );
        println!();
    }
    if let Some(path) = metrics_out {
        let quick_str = if quick { "true" } else { "false" };
        let meta: &[(&str, &str)] = &[("experiment", &what), ("quick", quick_str)];
        std::fs::write(&path, bytecache_telemetry::export::to_jsonl(&metrics, meta))
            .unwrap_or_else(|e| {
                eprintln!("failed to write metrics snapshot {path}: {e}");
                std::process::exit(1);
            });
        println!("  wrote metrics snapshot {path}");
    }
}
