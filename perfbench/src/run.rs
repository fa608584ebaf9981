//! One run of one workload: size it, set it up, time it, verify it, and
//! turn what was measured into named metrics.

use std::time::Instant;

use bytecache::{DreConfig, PolicyKind};

use crate::catalogue::{self, Kind};
use crate::counts::{count_metrics, ratio, LayerCounts};
use crate::gw::{Content, GwParams, LoopStats, Pipeline};
use crate::host::{cpu_seconds, peak_rss_mib};
use crate::replay::{replay_layers, ReplayTimes, Session};
use crate::simw::{
    mice_jobs, run_jobs, sweep_jobs, MiceParams, Mode, SimJob, SimOutcome, SweepParams, LAYERS,
};
use crate::stats::{median, min, percentile};
use crate::trace::Tracer;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: laps of work proportional to `seconds`,
    /// calibrated so the timed section takes about that long on the
    /// recording host. The amount is a function of `seconds` alone, never
    /// of a clock, so every count repeats exactly for a fixed seed.
    Full {
        /// Target length of the timed section.
        seconds: u32,
    },
    /// A few hundred packets and a handful of flows: the determinism
    /// tests' size, quick in a debug build. No sanity limits apply.
    Tiny,
}

/// Timed section length the lap counts below were calibrated at.
pub const DEFAULT_SECONDS: u32 = 16;

/// ISSUE 11's limit on the share of the traced `sim_mice_crowd` wall the
/// two gateways hold, for the workload to count as the DRE-bypass one.
/// HEAD does not meet it (about 0.25: both gateways handle every packet of
/// every flow, handshake and teardown included, and with 64-byte objects
/// they still hold 0.20), so a traced run above it says so in a note and
/// stays correct; the limit is kept as the issue states it.
const MICE_DRE_SHARE_LIMIT: f64 = 0.20;

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted: packets on `gw_*`, flows on `sim_*`.
    pub attempted: u64,
    /// Operations that did not deliver byte-identical payload.
    pub failed: u64,
    /// The metrics of the run's mode that exist on the workload:
    /// end-to-end for an untraced run; for a traced one the per-layer
    /// metrics and the end-to-end ones the driver does not gate.
    pub metrics: Vec<(&'static str, f64)>,
    /// Count-type per-layer metrics of an untraced run, from the layers'
    /// public stats (a traced run carries them in `metrics`).
    pub counts: Vec<(&'static str, f64)>,
    /// Workload-sanity violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Things worth printing that are not violations: failed sweep cells,
    /// an acceptance criterion of the issue the code at hand does not meet.
    pub notes: Vec<String>,
    /// The spans of a traced run, for the caller to write out.
    pub spans: Option<Tracer>,
}

impl RunOutput {
    /// Every payload byte checked out and no sanity limit was crossed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Laps of a full-scale timed section: `at_default` at the default
/// length, in proportion otherwise.
fn laps(seconds: u32, at_default: usize) -> usize {
    (seconds as usize * at_default).div_ceil(DEFAULT_SECONDS as usize)
}

fn gw_params(content: Content, scale: Scale) -> GwParams {
    // One lap is one pass over a corpus of at least twice the cache:
    // about 1.9 s of web content, 2.5 s of fresh, on the recording host.
    let (segment, default_laps) = match content {
        Content::Web => (1400, 9),
        Content::Fresh => (256, 7),
    };
    match scale {
        Scale::Full { seconds } => GwParams {
            content,
            segment,
            flows: 64,
            batch: 16,
            cache_bytes: DreConfig::default().cache_bytes,
            laps: laps(seconds, default_laps),
        },
        Scale::Tiny => GwParams {
            content,
            segment,
            flows: 8,
            batch: 4,
            cache_bytes: 96 << 10,
            laps: 2,
        },
    }
}

fn sweep_params(scale: Scale) -> SweepParams {
    match scale {
        // One lap is the whole grid on one seed index: 54 downloads, 2 s.
        Scale::Full { seconds } => SweepParams {
            object_size: 587_567,
            losses: vec![0.0, 0.01, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
            seeds_per_cell: laps(seconds, 9),
        },
        Scale::Tiny => SweepParams {
            object_size: 24_000,
            losses: vec![0.0, 0.08],
            seeds_per_cell: 2,
        },
    }
}

fn mice_params(scale: Scale) -> MiceParams {
    // One round is 25 000 flows, 0.45 s. A lap is three of them: over a
    // second, so that the 10 ms ticks of the process CPU counters are
    // under a per cent of it.
    let (laps, rounds_per_lap, flows, pairs) = match scale {
        Scale::Full { seconds } => (laps(seconds, 13), 3, 25_000, 4),
        Scale::Tiny => (2, 1, 40, 2),
    };
    MiceParams {
        rounds: laps * rounds_per_lap,
        rounds_per_lap,
        flows,
        pairs,
        catalog: 64,
        object_size: 256,
        zipf: 0.9,
        mean_interarrival_us: 160.0,
    }
}

/// Run `setup` `reps` times, keeping the last result; returns it with
/// the seconds each set-up took. Each earlier result is dropped before the
/// next is built, so repeating does not raise the memory high-water mark.
fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Host cost of a timed section, lap by lap.
///
/// The section is cut into laps of equal work (`gw_*`: one pass over the
/// corpus; sweep: the whole grid on one seed index, equal in payload and
/// differing only in the loss drawn; crowd: three rounds). Their sums are
/// `payload_mib_s` and `cpu_s`, as ISSUE 11 defines them. The recording
/// host shares its last-level cache with other tenants, and for seconds
/// to minutes at a time the same lap runs up to half again as slow, never
/// faster: ten runs' totals spread by 9-16 %. So the run also reports
/// the section as its least disturbed lap ran it: `quiet_mib_s` is the
/// fastest lap's rate and `quiet_cpu_s` the cheapest lap's CPU times the
/// lap count. How the sweep's laps differ is fixed by the seed, so two
/// commits measured on one seed choose among the same laps.
#[derive(Debug, Default)]
struct Laps {
    payload: Vec<u64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Laps {
    /// Time one lap; `work` returns its result and the payload bytes it
    /// delivered byte-identical.
    fn time<T>(&mut self, work: impl FnOnce() -> (T, u64)) -> T {
        let (cpu0, started) = (cpu_seconds(), Instant::now());
        let (out, payload) = work();
        self.wall_s.push(started.elapsed().as_secs_f64());
        self.cpu_s.push(cpu_seconds() - cpu0);
        self.payload.push(payload);
        out
    }

    /// Wall seconds of the whole section.
    fn wall_total_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// The host-time end-to-end metrics of the section.
    fn metrics(&self) -> [(&'static str, f64); 4] {
        let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
        let quiet_rate = self
            .payload
            .iter()
            .zip(&self.wall_s)
            .map(|(&p, &w)| mib(p) / w)
            .fold(0.0, f64::max);
        [
            (
                "payload_mib_s",
                mib(self.payload.iter().sum()) / self.wall_total_s(),
            ),
            ("cpu_s", self.cpu_s.iter().sum()),
            ("quiet_mib_s", quiet_rate),
            ("quiet_cpu_s", min(&self.cpu_s) * self.cpu_s.len() as f64),
        ]
    }
}

// ------------------------------------------------------------- gw_*

/// Run `laps` passes of a gateway workload, each a lap on `host`'s
/// clock; returns what the loop saw and what the layers counted meanwhile.
fn gw_section(
    pipeline: &mut Pipeline,
    laps: usize,
    host: &mut Laps,
    mut tracer: Option<&mut Tracer>,
) -> (LoopStats, LayerCounts) {
    let before = pipeline.counts();
    let mut stats = LoopStats::default();
    for _ in 0..laps {
        let lap = host.time(|| {
            let lap = pipeline.run(pipeline.lap_batches(), tracer.as_deref_mut());
            let payload = lap.payload_ok;
            (lap, payload)
        });
        stats.add(&lap);
    }
    let mut counts = pipeline.counts().since(&before);
    // No simulator here: the hop is the benchmark's own serialize step.
    counts.link_packets_offered = stats.air_packets;
    counts.link_bytes_offered = stats.air_bytes;
    (stats, counts)
}

fn gw_sanity(
    content: Content,
    scale: Scale,
    stats: &LoopStats,
    counts: &LayerCounts,
    out: &mut RunOutput,
) {
    if scale == Scale::Tiny {
        return;
    }
    let air_byte_ratio = stats.air_byte_ratio();
    match content {
        Content::Web if !(0.55..=0.75).contains(&air_byte_ratio) => out.violations.push(format!(
            "gw_web_1400 air_byte_ratio {air_byte_ratio:.4} outside 0.55-0.75"
        )),
        Content::Fresh if counts.enc_matched_bytes * 100 > counts.enc_bytes_in => {
            out.violations.push(format!(
                "gw_fresh_256 matched {} of {} bytes (> 1 %)",
                counts.enc_matched_bytes, counts.enc_bytes_in
            ))
        }
        _ => {}
    }
}

/// The end-to-end metrics that are pure counts of the gateway loop.
fn gw_count_metrics(stats: &LoopStats) -> [(&'static str, f64); 2] {
    [
        ("air_byte_ratio", stats.air_byte_ratio()),
        (
            "failed_share",
            ratio(stats.failed as f64, stats.attempted as f64),
        ),
    ]
}

fn gw_plain(content: Content, seed: u64, scale: Scale) -> RunOutput {
    let params = gw_params(content, scale);
    let (mut pipeline, setups) = repeat_setup(3, || Pipeline::setup(&params, seed));
    let mut host = Laps::default();
    let (stats, counts) = gw_section(&mut pipeline, params.laps, &mut host, None);
    let mut metrics = host.metrics().to_vec();
    metrics.extend([
        ("peak_rss_mib", peak_rss_mib()),
        ("setup_s", median(&setups)),
    ]);
    metrics.extend(gw_count_metrics(&stats));
    let mut out = RunOutput {
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        counts: count_metrics(&counts),
        ..RunOutput::default()
    };
    gw_sanity(content, scale, &stats, &counts, &mut out);
    out
}

/// Per-layer time metrics every workload derives from the layer replays.
fn replay_metrics(r: &ReplayTimes) -> Vec<(&'static str, f64)> {
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let encode = per(r.encode_ns, r.packets);
    vec![
        ("rabin.scan_ns_per_byte", per(r.rabin_ns, r.bytes)),
        ("encoder.encode_ns_per_pkt", encode),
        ("encoder.encode_ns_per_byte", per(r.encode_ns, r.bytes)),
        (
            "encoder.match_emit_ns_per_pkt",
            encode - per(r.rabin_ns, r.packets) - per(r.store_write_ns, r.packets),
        ),
        (
            "store.insert_index_ns_per_pkt",
            per(r.store_write_ns, r.packets),
        ),
        (
            "store.lookup_ns_per_probe",
            per(r.store_lookup_ns, r.probes),
        ),
        ("wire.parse_ns_per_pkt", per(r.wire_parse_ns, r.packets)),
        ("decoder.decode_ns_per_pkt", per(r.decode_ns, r.packets)),
        ("decoder.decode_ns_per_byte", per(r.decode_ns, r.bytes)),
    ]
}

fn gw_traced(content: Content, seed: u64, scale: Scale) -> RunOutput {
    let params = gw_params(content, scale);

    // The same work untraced, in this process, is the overhead baseline
    // and the source of the traced run's host-time end-to-end metrics.
    let mut pipeline = Pipeline::setup(&params, seed);
    let mut plain_host = Laps::default();
    gw_section(&mut pipeline, params.laps, &mut plain_host, None);
    drop(pipeline);

    let mut pipeline = Pipeline::setup(&params, seed);
    let mut tracer = Tracer::default();
    let mut traced_host = Laps::default();
    let (stats, counts) = gw_section(
        &mut pipeline,
        params.laps,
        &mut traced_host,
        Some(&mut tracer),
    );
    let sessions = [Session {
        policy: PolicyKind::CacheFlush,
        // A pass number far past anything the loop used: fresh ports.
        packets: pipeline.corpus().ingress_stream(10_000),
    }];
    drop(pipeline);

    // Telemetry on and off on alternate passes of one pipeline, so a slow
    // spell of the host lands on both sides.
    let telemetry_overhead = (content == Content::Web).then(|| {
        let mut pipeline = Pipeline::setup(&params, seed);
        let (mut on, mut off) = (Laps::default(), Laps::default());
        for _ in 0..params.laps.min(2) {
            pipeline.set_telemetry(true);
            gw_section(&mut pipeline, 1, &mut on, None);
            pipeline.set_telemetry(false);
            gw_section(&mut pipeline, 1, &mut off, None);
        }
        on.wall_total_s() / off.wall_total_s() - 1.0
    });

    let self_times = tracer.self_times();
    let span_ns = |name: &str| self_times.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let wall_ns = stats.wall_s * 1e9;
    let packets = stats.attempted as f64;
    let coverage = [
        "packet.build",
        "gateway.encode",
        "packet.serialize",
        "packet.parse",
        "gateway.decode",
        "verify",
    ]
    .iter()
    .map(|n| span_ns(n))
    .sum::<f64>()
        / wall_ns;
    let batch_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();

    let mut metrics = count_metrics(&counts);
    metrics.extend(plain_host.metrics());
    metrics.extend(gw_count_metrics(&stats));
    metrics.extend(replay_metrics(&replay_layers(&sessions, &params.dre())));
    metrics.extend([
        (
            "gateway.encode_ns_per_pkt",
            span_ns("gateway.encode") / packets,
        ),
        (
            "gateway.decode_ns_per_pkt",
            span_ns("gateway.decode") / packets,
        ),
        ("gateway.batch_p50_us", percentile(&batch_us, 50.0)),
        ("gateway.batch_p99_us", percentile(&batch_us, 99.0)),
        ("gateway.batch_samples", batch_us.len() as f64),
        (
            "gateway.encode_busy_frac",
            span_ns("gateway.encode") / wall_ns,
        ),
        (
            "gateway.decode_busy_frac",
            span_ns("gateway.decode") / wall_ns,
        ),
        ("packet.build_ns_per_pkt", span_ns("packet.build") / packets),
        (
            "packet.serialize_ns_per_pkt",
            span_ns("packet.serialize") / packets,
        ),
        ("packet.parse_ns_per_pkt", span_ns("packet.parse") / packets),
        ("trace.verify_ns_per_pkt", span_ns("verify") / packets),
        ("trace.coverage", coverage),
        (
            "trace.overhead_frac",
            traced_host.wall_total_s() / plain_host.wall_total_s() - 1.0,
        ),
    ]);
    metrics.extend(telemetry_overhead.map(|v| ("telemetry.on_overhead_frac", v)));

    let mut out = RunOutput {
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        spans: Some(tracer),
        ..RunOutput::default()
    };
    if coverage < 0.95 && scale != Scale::Tiny {
        out.violations
            .push(format!("trace.coverage {coverage:.4} < 0.95"));
    }
    gw_sanity(content, scale, &stats, &counts, &mut out);
    out
}

// ------------------------------------------------------------ sim_*

fn sim_laps(name: &str, scale: Scale, seed: u64) -> Vec<Vec<SimJob>> {
    if name == "sim_paper_sweep" {
        sweep_jobs(&sweep_params(scale), seed)
    } else {
        mice_jobs(&mice_params(scale), seed)
    }
}

/// Run every lap under `mode`; failed downloads become notes, and one on
/// a lossless hop (or a timeout in the crowd) a sanity violation.
fn sim_section(
    name: &str,
    scale: Scale,
    laps: &[Vec<SimJob>],
    mode: Mode,
    host: &mut Laps,
    out: &mut RunOutput,
) -> SimOutcome {
    let mut total = SimOutcome::default();
    for jobs in laps {
        let (outcome, failed) = host.time(|| {
            let (outcome, failed) = run_jobs(jobs, mode);
            let payload = intact_payload(&outcome);
            ((outcome, failed), payload)
        });
        for job in failed {
            out.notes.push(format!("failed download: {}", job.label));
            if scale != Scale::Tiny && job.spec.loss == 0.0 {
                out.violations.push(format!(
                    "{name}: {} on a lossless hop did not complete",
                    job.label
                ));
            }
        }
        total.merge(outcome);
    }
    if scale != Scale::Tiny && name == "sim_mice_crowd" && total.counts.tcp_timeouts != 0 {
        out.violations.push(format!(
            "sim_mice_crowd: tcp.timeouts = {} (must be 0)",
            total.counts.tcp_timeouts
        ));
    }
    out.attempted = total.flows.len() as u64;
    out.failed = total.flows.iter().filter(|f| !f.ok).count() as u64;
    total
}

/// Payload bytes the run's flows delivered intact.
fn intact_payload(outcome: &SimOutcome) -> u64 {
    outcome.flows.iter().map(|f| f.intact_bytes).sum()
}

/// The metrics, end-to-end and per-layer, that are pure counts of a
/// simulation's flows and links.
fn sim_count_metrics(outcome: &SimOutcome) -> [(&'static str, f64); 7] {
    let flows = outcome.flows.len() as f64;
    let durations: Vec<f64> = outcome.flows.iter().map(|f| f.duration_s).collect();
    let stalls: Vec<f64> = outcome.flows.iter().map(|f| f.stall_ms).collect();
    [
        (
            "air_byte_ratio",
            ratio(
                outcome.counts.link_bytes_offered as f64,
                intact_payload(outcome) as f64,
            ),
        ),
        ("sim_download_mean_s", ratio(durations.iter().sum(), flows)),
        ("sim_stall_p90_ms", percentile(&stalls, 90.0)),
        (
            "failed_share",
            ratio(outcome.flows.iter().filter(|f| !f.ok).count() as f64, flows),
        ),
        ("tcp.download_p50_s", percentile(&durations, 50.0)),
        ("tcp.download_p99_s", percentile(&durations, 99.0)),
        ("tcp.stall_p50_ms", percentile(&stalls, 50.0)),
    ]
}

fn sim_plain(name: &str, seed: u64, scale: Scale) -> RunOutput {
    // A set-up of milliseconds, timed in the first instants of a process,
    // reads up to 60 % slow, and one slow spell of the host covers all of
    // a 0.3 s burst of them. So it is repeated for about 0.2 s before the
    // timed section and as often again after it, where the results are
    // only timed and dropped: a fixed number of times, because the
    // allocations of every repetition shape the heap and with it the
    // run's memory high-water mark.
    let reps = match (scale, name) {
        (Scale::Tiny, _) => 2,
        (_, "sim_paper_sweep") => 25,
        _ => 4,
    };
    let (laps, mut setups) = repeat_setup(reps, || sim_laps(name, scale, seed));
    let mut out = RunOutput::default();
    let mut host = Laps::default();
    let outcome = sim_section(name, scale, &laps, Mode::Plain, &mut host, &mut out);
    setups.extend(repeat_setup(reps, || sim_laps(name, scale, seed)).1);
    out.metrics = host.metrics().to_vec();
    out.metrics.extend([
        ("peak_rss_mib", peak_rss_mib()),
        ("setup_s", median(&setups)),
    ]);
    out.counts = count_metrics(&outcome.counts);
    for m in sim_count_metrics(&outcome) {
        let end_to_end = catalogue::metric(m.0).is_some_and(|d| d.kind == Kind::EndToEnd);
        if end_to_end {
            out.metrics.push(m);
        } else {
            out.counts.push(m);
        }
    }
    out
}

fn sim_traced(name: &str, seed: u64, scale: Scale) -> RunOutput {
    let laps = sim_laps(name, scale, seed);
    let mut scratch = RunOutput::default();
    // The same work untraced, in this process, is the overhead baseline
    // and the source of the traced run's host-time end-to-end metrics;
    // the first lap with pass-through boxes for gateways is the twin.
    let mut plain_host = Laps::default();
    let plain = sim_section(
        name,
        scale,
        &laps,
        Mode::Plain,
        &mut plain_host,
        &mut scratch,
    );
    let no_dre = sim_section(
        name,
        scale,
        &laps[..1],
        Mode::NoDre,
        &mut Laps::default(),
        &mut scratch,
    );
    let mut out = RunOutput::default();
    let outcome = sim_section(
        name,
        scale,
        &laps,
        Mode::Traced,
        &mut Laps::default(),
        &mut out,
    );

    // A simulation's trace holds one span per layer, summed over its
    // callbacks, under the run's span: millions of per-event spans would
    // cost more to keep than the events cost to run.
    let mut tracer = Tracer::default();
    let wall_ns = outcome.run_wall_s * 1e9;
    let root = tracer.push("sim.run_until_idle", 0, wall_ns as u64, 0, 0);
    let mut cursor = 0;
    for (layer, &busy) in LAYERS.iter().zip(&outcome.busy_ns) {
        tracer.push(layer, cursor, cursor + busy, root, 0);
        cursor += busy;
    }

    let busy_frac = |i: usize| outcome.busy_ns[i] as f64 / wall_ns;
    // What the Timed<N> rows leave of the wall is the simulator's own.
    let self_frac = 1.0 - (0..LAYERS.len()).map(busy_frac).sum::<f64>();
    let events = outcome.counts.sim_events as f64;
    let replay = replay_layers(&outcome.taps, &DreConfig::default());
    let queue_ns = outcome.queue_replay_ns as f64;
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);

    out.metrics = count_metrics(&outcome.counts);
    out.metrics.extend(plain_host.metrics());
    out.metrics.extend(sim_count_metrics(&outcome));
    out.metrics.extend(replay_metrics(&replay));
    out.metrics.extend([
        (
            "gateway.encode_ns_per_pkt",
            per(outcome.busy_ns[2], outcome.calls[2]),
        ),
        (
            "gateway.decode_ns_per_pkt",
            per(outcome.busy_ns[3], outcome.calls[3]),
        ),
        ("gateway.encode_busy_frac", busy_frac(2)),
        ("gateway.decode_busy_frac", busy_frac(3)),
        (
            "packet.build_ns_per_pkt",
            per(replay.packet_build_ns, replay.packets),
        ),
        (
            "packet.serialize_ns_per_pkt",
            per(replay.packet_serialize_ns, replay.packets),
        ),
        (
            "packet.parse_ns_per_pkt",
            per(replay.packet_parse_ns, replay.packets),
        ),
        ("tcp.server_busy_frac", busy_frac(0)),
        ("tcp.client_busy_frac", busy_frac(1)),
        ("sim.events_per_s", events / outcome.run_wall_s),
        ("sim.ns_per_event", wall_ns / events),
        ("sim.self_frac", self_frac),
        ("sim.self_ns_per_event", self_frac * wall_ns / events),
        (
            "sim.no_dre_ns_per_event",
            ratio(no_dre.run_wall_s * 1e9, no_dre.counts.sim_events as f64),
        ),
        (
            "wheel.schedule_ops",
            outcome.counts.wheel_schedule_ops as f64,
        ),
        (
            "wheel.replay_ns_per_op",
            ratio(queue_ns, outcome.counts.wheel_schedule_ops as f64),
        ),
        ("wheel.replay_frac", queue_ns / wall_ns),
        (
            "trace.overhead_frac",
            outcome.run_wall_s / plain.run_wall_s - 1.0,
        ),
    ]);
    out.spans = Some(tracer);

    let dre_share = busy_frac(2) + busy_frac(3);
    if scale != Scale::Tiny && name == "sim_mice_crowd" && dre_share > MICE_DRE_SHARE_LIMIT {
        out.notes.push(format!(
            "sim_mice_crowd: the gateways hold {dre_share:.3} of the traced wall; the issue's bypass criterion (<= {MICE_DRE_SHARE_LIMIT}) is not met"
        ));
    }
    out
}

/// Run `workload` once: the traced run with the per-layer metrics and
/// the spans, or the untraced one with the end-to-end metrics. Only the
/// metrics that exist on the workload are kept; one that is owed and
/// missing, or not a finite number, is a violation.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<RunOutput, String> {
    let content = match workload {
        "gw_web_1400" => Some(Content::Web),
        "gw_fresh_256" => Some(Content::Fresh),
        "sim_paper_sweep" | "sim_mice_crowd" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut out = match (content, traced) {
        (Some(content), false) => gw_plain(content, seed, scale),
        (Some(content), true) => gw_traced(content, seed, scale),
        (None, false) => sim_plain(workload, seed, scale),
        (None, true) => sim_traced(workload, seed, scale),
    };
    // What the driver gates comes from untraced runs only.
    let kept = |name: &str| {
        catalogue::metric(name)
            .is_some_and(|m| m.on.covers(workload) && !(traced && m.driver_gated()))
    };
    out.metrics.retain(|m| kept(m.0));
    out.counts.retain(|m| kept(m.0));
    for m in catalogue::METRICS.iter().filter(|m| m.on.covers(workload)) {
        // An untraced run owes the end-to-end metrics (and adds the
        // per-layer counts the layers' public stats give without a
        // trace); a traced one everything the driver does not gate, the
        // host-time end-to-end metrics coming from its untraced pass.
        let owed = if traced {
            !m.driver_gated()
        } else {
            m.kind == Kind::EndToEnd
        };
        let found = out.metrics.iter().find(|v| v.0 == m.name);
        if owed && !found.is_some_and(|v| v.1.is_finite()) {
            out.violations
                .push(format!("metric {} missing or not finite", m.name));
        }
    }
    Ok(out)
}
