//! The whole benchmark in one command: every workload, several times,
//! each repetition a fresh child process, interleaved across workloads
//! so slow host drift lands on all of them alike; then one traced child
//! per workload for the per-layer budget. Also the A/A mode that runs
//! two complete sets and holds them to the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::catalogue::{self, Kind, METRICS, WORKLOADS};
use crate::host::HostInfo;
use crate::quote;
use crate::run::RunOutput;
use crate::stats::{median, min, quartiles, spread};

/// The result line the driver reads: last line of a run's standard
/// output. Its format wants every metric of the mode on every workload,
/// so one that does not exist on this workload reads 0 here.
#[must_use]
pub fn result_line(out: &RunOutput, traced: bool) -> String {
    let metrics: Vec<String> = catalogue::driver_metrics(traced)
        .map(|m| {
            let value = out
                .metrics
                .iter()
                .find(|v| v.0 == m.name)
                .map_or(0.0, |v| v.1);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// What a run tells the orchestrator, one `= name value` line each: the
/// operation counts and every metric that exists on the workload.
#[must_use]
pub fn flat_lines(out: &RunOutput) -> String {
    let mut text = format!("= attempted {}\n= failed {}", out.attempted, out.failed);
    for (name, value) in out.metrics.iter().chain(&out.counts) {
        let _ = write!(text, "\n= {name} {value}");
    }
    text
}

/// What a complete set measures.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// Workload seed handed to every child.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: u32,
    /// Untraced repetitions per workload.
    pub reps: usize,
    /// Pass `--scale tiny` to the children.
    pub tiny: bool,
}

/// One workload's share of a set.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// End-to-end metric → one value per repetition.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Count-type per-layer metrics of each repetition.
    pub counts: Vec<BTreeMap<String, f64>>,
    /// Per-layer metrics of the traced run.
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted by the last repetition.
    pub attempted: u64,
    /// Operations failed, summed over the repetitions.
    pub failed: u64,
    /// Lines the children printed before their results (failed cells).
    pub notes: Vec<String>,
}

/// A complete set: every workload, `reps` times, plus the traced runs.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// The host block.
    pub host: HostInfo,
    /// What was run.
    pub options: SetOptions,
    /// Results in workload order.
    pub workloads: Vec<WorkloadResult>,
}

struct ChildResult {
    /// `attempted`, `failed` and every metric, by name.
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

fn run_child(
    exe: &Path,
    workload: &str,
    opts: &SetOptions,
    rep: usize,
    trace: bool,
) -> Result<ChildResult, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rep", &rep.to_string()]);
    if opts.tiny {
        cmd.args(["--scale", "tiny"]);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    for line in stdout.lines() {
        match line.strip_prefix("= ").and_then(|l| l.split_once(' ')) {
            Some((name, value)) => {
                let value = value
                    .parse()
                    .map_err(|_| format!("{workload}: unreadable line {line:?}"))?;
                values.insert(name.to_owned(), value);
            }
            // The result line is the driver's; everything else is a note.
            None if line.starts_with('{') => {}
            None => notes.push(line.to_owned()),
        }
    }
    if !output.status.success() || !values.contains_key("attempted") {
        return Err(format!(
            "{workload} rep {rep} trace {}: run failed or incorrect (exit {:?})\n{}",
            u8::from(trace),
            output.status.code(),
            notes.join("\n")
        ));
    }
    Ok(ChildResult { values, notes })
}

/// Run one complete set by re-executing `exe` (this program) per run.
///
/// # Errors
///
/// The first child that cannot be started, prints no result, exits
/// non-zero or reports incorrect output.
pub fn run_set(exe: &Path, opts: &SetOptions) -> Result<ResultSet, String> {
    let host = HostInfo::read();
    let mut workloads: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .map(|w| WorkloadResult {
            name: w.name,
            ..WorkloadResult::default()
        })
        .collect();
    let kind_of = |name: &str| catalogue::metric(name).map(|m| m.kind);
    for rep in 0..opts.reps {
        for w in &mut workloads {
            eprintln!("perf: {} rep {}/{}", w.name, rep + 1, opts.reps);
            let mut child = run_child(exe, w.name, opts, rep, false)?;
            w.attempted = child.values.remove("attempted").unwrap_or(0.0) as u64;
            w.failed += child.values.remove("failed").unwrap_or(0.0) as u64;
            let mut counts = BTreeMap::new();
            for (name, value) in child.values {
                match kind_of(&name) {
                    Some(Kind::EndToEnd) => w.end_to_end.entry(name).or_default().push(value),
                    _ => drop(counts.insert(name, value)),
                }
            }
            w.counts.push(counts);
            if rep == 0 {
                w.notes = child.notes;
            }
        }
    }
    for w in &mut workloads {
        eprintln!("perf: {} traced run", w.name);
        let child = run_child(exe, w.name, opts, opts.reps, true)?;
        w.per_layer = child
            .values
            .into_iter()
            .filter(|(name, _)| kind_of(name) == Some(Kind::PerLayer))
            .collect();
        w.notes.extend(child.notes);
    }
    Ok(ResultSet {
        host,
        options: opts.clone(),
        workloads,
    })
}

fn unit(name: &str) -> &'static str {
    catalogue::metric(name).map_or("", |m| m.unit)
}

/// Rows of the per-layer budget: `(row, share of the traced wall)`.
/// `gw_*`: the boundary spans, sequential, so their sum is the budget;
/// `sim_*`: every `Timed<N>` layer plus the simulator's self time.
#[must_use]
pub fn budget(w: &WorkloadResult) -> Vec<(&'static str, f64)> {
    let get = |name: &str| w.per_layer.get(name).copied().unwrap_or(0.0);
    if w.name.starts_with("gw_") {
        let rows = [
            "packet.build_ns_per_pkt",
            "gateway.encode_ns_per_pkt",
            "packet.serialize_ns_per_pkt",
            "packet.parse_ns_per_pkt",
            "gateway.decode_ns_per_pkt",
            "trace.verify_ns_per_pkt",
        ];
        let total: f64 = rows.iter().map(|r| get(r)).sum();
        let coverage = get("trace.coverage");
        let mut out: Vec<(&'static str, f64)> = rows
            .iter()
            .map(|&r| {
                (
                    r,
                    if total > 0.0 {
                        get(r) / total * coverage
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        out.push(("(loop, span bookkeeping)", 1.0 - coverage));
        out
    } else {
        [
            "tcp.server_busy_frac",
            "tcp.client_busy_frac",
            "gateway.encode_busy_frac",
            "gateway.decode_busy_frac",
            "sim.self_frac",
        ]
        .iter()
        .map(|&r| (r, get(r)))
        .collect()
    }
}

/// The set as text: host block, then per workload the end-to-end table
/// (median, min, quartiles, spread), every per-layer metric with its
/// unit, and the budget table.
#[must_use]
pub fn render(set: &ResultSet) -> String {
    let mut out = String::new();
    let h = &set.host;
    let _ = writeln!(
        out,
        "host: {} | nproc {} | {} | commit {} | load {}\nseed {} | --seconds {} | {} reps per workload, interleaved, one process each",
        h.cpu_model, h.nproc, h.rustc, h.commit, h.loadavg, set.options.seed, set.options.seconds, set.options.reps
    );
    for w in &set.workloads {
        let _ = writeln!(
            out,
            "\n== {} ==  attempted {} per run, failed {} in {} runs",
            w.name, w.attempted, w.failed, set.options.reps,
        );
        for note in &w.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>14} {:>14} {:>14} {:>14} {:>8}  unit",
            "end-to-end", "median", "min", "q1", "q3", "spread"
        );
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            let Some(values) = w.end_to_end.get(m.name) else {
                continue;
            };
            let (q1, q3) = quartiles(values);
            let _ = writeln!(
                out,
                "  {:<22} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  {}",
                m.name,
                median(values),
                min(values),
                q1,
                q3,
                spread(values) * 100.0,
                m.unit
            );
        }
        let _ = writeln!(out, "  per-layer (traced run)");
        for m in METRICS.iter().filter(|m| m.kind == Kind::PerLayer) {
            if let Some(v) = w.per_layer.get(m.name) {
                let _ = writeln!(out, "    {:<32} {:>18.6} {}", m.name, v, m.unit);
            }
        }
        let _ = writeln!(out, "  budget (share of the traced wall)");
        for (row, share) in budget(w) {
            let _ = writeln!(out, "    {:<32} {:>7.2}%", row, share * 100.0);
        }
    }
    out
}

fn json_numbers<'a>(items: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = items.map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// `items` as a JSON array of strings.
#[must_use]
pub fn json_strings(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", body.join(", "))
}

/// The set as JSON (one recording).
#[must_use]
pub fn to_json(set: &ResultSet) -> String {
    let h = &set.host;
    let mut out = format!(
        "{{\n  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"loadavg_at_start\": {}}},\n  \"seed\": {}, \"seconds\": {}, \"reps\": {},\n  \"workloads\": [\n",
        quote(&h.cpu_model), h.nproc, quote(&h.rustc), quote(&h.commit), quote(&h.loadavg),
        set.options.seed, set.options.seconds, set.options.reps
    );
    for (i, w) in set.workloads.iter().enumerate() {
        let e2e: Vec<String> = w
            .end_to_end
            .iter()
            .map(|(name, values)| {
                let (q1, q3) = quartiles(values);
                format!(
                    "      {}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {}, \"values\": {:?}}}",
                    quote(name), quote(unit(name)), median(values), min(values), spread(values), values
                )
            })
            .collect();
        let _ = write!(
            out,
            "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": {},\n     \"end_to_end\": {{\n{}\n     }},\n     \"counts\": {},\n     \"per_layer\": {},\n     \"budget\": {}}}{}\n",
            quote(w.name),
            w.attempted,
            w.failed,
            json_strings(&w.notes),
            e2e.join(",\n"),
            json_numbers(w.counts.first().into_iter().flatten().map(|(k, &v)| (k.as_str(), v))),
            json_numbers(w.per_layer.iter().map(|(k, &v)| (k.as_str(), v))),
            json_numbers(budget(w).into_iter()),
            if i + 1 < set.workloads.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}");
    out
}

/// How two sets of the same code and seed compare.
#[derive(Debug, Default, PartialEq)]
pub struct Comparison {
    /// What noise cannot explain: a count that differs at all (between
    /// repetitions of one set, or between the sets), or host-time medians
    /// further apart than the metric's bound although both sets' own
    /// repetitions stayed within it.
    pub disagree: Vec<String>,
    /// Host-time medians further apart than the bound while one set's own
    /// repetitions spread (IQR / median) wider than the bound: the host
    /// could not resolve the metric to its bound, which says nothing
    /// about the code.
    pub unresolved: Vec<String>,
}

/// Compare two sets of the same code and seed.
#[must_use]
pub fn compare_sets(a: &ResultSet, b: &ResultSet) -> Comparison {
    let mut out = Comparison::default();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        let first = wa.counts.first();
        for (which, counts) in wa.counts.iter().chain(&wb.counts).enumerate() {
            if Some(counts) != first {
                out.disagree.push(format!(
                    "{}: counts of run {which} differ from run 0",
                    wa.name
                ));
            }
        }
        for m in METRICS.iter().filter(|m| m.on.covers(wa.name)) {
            match m.kind {
                Kind::EndToEnd => {
                    let (Some(va), Some(vb)) =
                        (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
                    else {
                        out.disagree
                            .push(format!("{}: {} missing", wa.name, m.name));
                        continue;
                    };
                    let (ma, mb) = (median(va), median(vb));
                    let bound = if m.exact { 0.0 } else { m.bound };
                    if (ma - mb).abs() <= bound * ma.abs() {
                        continue;
                    }
                    let noise = spread(va).max(spread(vb));
                    if !m.exact && noise > bound {
                        out.unresolved.push(format!(
                            "{}: {} medians {ma} vs {mb}; repetitions spread {:.1} % against a bound of {} %",
                            wa.name, m.name, noise * 100.0, bound * 100.0
                        ));
                    } else {
                        out.disagree.push(format!(
                            "{}: {} medians {ma} vs {mb} differ by more than {bound}",
                            wa.name, m.name
                        ));
                    }
                }
                Kind::PerLayer if m.exact => {
                    let (va, vb) = (wa.per_layer.get(m.name), wb.per_layer.get(m.name));
                    if va != vb || va.is_none() {
                        out.disagree
                            .push(format!("{}: {} {va:?} vs {vb:?}", wa.name, m.name));
                    }
                }
                Kind::PerLayer => {}
            }
        }
    }
    out
}
