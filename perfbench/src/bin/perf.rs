//! `perf`: the benchmark's one command.
//!
//! ```text
//! perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]   one run (what the driver calls)
//! perf --seed <n> [--reps 5] [--seconds <s>] [--out <file>]          every workload, interleaved, plus traced runs
//! perf --aa --seed <n> [...]                                         two complete sets, held to the bounds
//! perf --list                                                        the workload and metric catalogue
//! perf --benchmark-json                                              BENCHMARK.json, generated from the catalogue
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use bytecache_perfbench::catalogue;
use bytecache_perfbench::orchestrate::{
    compare_sets, flat_lines, json_strings, render, result_line, run_set, to_json, SetOptions,
};
use bytecache_perfbench::run::{run_workload, Scale, DEFAULT_SECONDS};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    reps: usize,
    tiny: bool,
    aa: bool,
    list: bool,
    benchmark_json: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reps: 5,
        tiny: false,
        aa: false,
        list: false,
        benchmark_json: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--reps" => args.reps = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--scale" => {
                args.tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    v => return Err(bad(v)),
                }
            }
            // A label the orchestrator gives its children; nothing reads it.
            "--rep" => drop(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 || args.reps == 0 {
        return Err("--seconds must be 1..=60 and --reps at least 1".to_owned());
    }
    Ok(args)
}

/// Traces go beside the build outputs: `<target dir>/perf-trace-<workload>.jsonl`.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join(format!("perf-trace-{workload}.jsonl"))
}

fn one_run(workload: &str, args: &Args) -> Result<bool, String> {
    let scale = if args.tiny {
        Scale::Tiny
    } else {
        Scale::Full {
            seconds: args.seconds,
        }
    };
    let out = run_workload(workload, args.seed, scale, args.trace)?;
    if let Some(spans) = &out.spans {
        let path = trace_path(workload);
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perf: could not write {}: {e}", path.display());
        }
    }
    for line in out.notes.iter().chain(&out.violations) {
        println!("{line}");
    }
    println!("{}", flat_lines(&out));
    println!("{}", result_line(&out, args.trace));
    Ok(out.correct())
}

fn all_runs(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let opts = SetOptions {
        seed: args.seed,
        seconds: args.seconds,
        reps: args.reps,
        tiny: args.tiny,
    };
    let first = run_set(&exe, &opts)?;
    println!("{}", render(&first));
    let mut ok = true;
    let mut json = to_json(&first);
    if args.aa {
        let second = run_set(&exe, &opts)?;
        println!("---- second set ----\n{}", render(&second));
        let cmp = compare_sets(&first, &second);
        for p in &cmp.disagree {
            println!("A/A: {p}");
        }
        for p in &cmp.unresolved {
            println!("A/A unresolved: {p}");
        }
        ok = cmp.disagree.is_empty();
        println!(
            "A/A: {}, {} unresolved",
            if ok { "sets agree" } else { "sets DISAGREE" },
            cmp.unresolved.len()
        );
        json = format!(
            "{{\"aa_agree\": {ok}, \"aa_unresolved\": {}, \"first\": {json}, \"second\": {}}}",
            json_strings(&cmp.unresolved),
            to_json(&second)
        );
    }
    if let Some(path) = &args.out {
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// Re-execute this program with glibc's allocator told to keep what it
/// has been given. Left alone, it hands freed heap back to the kernel and
/// faults it in again, or not, depending on where address-space
/// randomisation put the heap: the same binary on the same seed spent
/// 0.4, 0.9 and 1.8 s of a 4 s sweep in the kernel on three consecutive
/// runs, and 3 of 11 seeds lost 3.7-6.3 s of 13 s. That is a cost users
/// of the default allocator do pay, by lottery, and `README.md` records it
/// as a finding; a regression gate needs the one mode that repeats.
/// A caller who sets `MALLOC_TRIM_THRESHOLD_` itself keeps its setting.
fn with_pinned_allocator() -> Option<ExitCode> {
    const MARKER: &str = "MALLOC_TRIM_THRESHOLD_";
    if std::env::var_os(MARKER).is_some() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MARKER, (16u64 << 30).to_string())
        .env("MALLOC_MMAP_THRESHOLD_", (1u64 << 30).to_string())
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

fn main() -> ExitCode {
    if let Some(code) = with_pinned_allocator() {
        return code;
    }
    let outcome = parse_args().and_then(|args| {
        if args.list {
            print!("{}", catalogue::render());
            Ok(true)
        } else if args.benchmark_json {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        } else if let Some(workload) = &args.workload {
            one_run(workload, &args)
        } else {
            all_runs(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
