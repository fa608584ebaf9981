//! The catalogue: every workload and every metric the benchmark emits,
//! by name, with its unit, direction, layer, meaning, and the end-to-end
//! metric and workload it is expected to move. `perf --list` prints it;
//! tests hold it, `BENCHMARK.json` and what the runs emit to each other.

use std::fmt::Write as _;

use crate::quote;
use crate::run::DEFAULT_SECONDS;
use Better::{Higher, Lower};
use On::{All, Gw, Mice, Sim, Sweep, Web};

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (the sentence in `BENCHMARK.json`).
    pub why: &'static str,
    /// Parameters at full scale, and how they follow `--seconds`.
    pub params: &'static str,
    /// How the inputs derive from `--seed`.
    pub seeds: &'static str,
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced runs; carries a regression bound.
    EndToEnd,
    /// The traced run; no bound.
    PerLayer,
}

/// The workloads a metric exists on. A run emits a metric only where it
/// applies; the result line the benchmark driver reads must carry every
/// name on every workload, so there (and only there) the rest read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// Every workload.
    All,
    /// `gw_web_1400` and `gw_fresh_256`.
    Gw,
    /// `sim_paper_sweep` and `sim_mice_crowd`.
    Sim,
    /// `gw_web_1400`.
    Web,
    /// `sim_paper_sweep`.
    Sweep,
    /// `sim_mice_crowd`.
    Mice,
}

impl On {
    /// Whether a metric with this scope exists on `workload`.
    #[must_use]
    pub fn covers(self, workload: &str) -> bool {
        match self {
            All => true,
            Gw => workload.starts_with("gw_"),
            Sim => workload.starts_with("sim_"),
            Web => workload == "gw_web_1400",
            Sweep => workload == "sim_paper_sweep",
            Mice => workload == "sim_mice_crowd",
        }
    }

    /// The scope as `perf --list` prints it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            All => "all",
            Gw => "gw_*",
            Sim => "sim_*",
            Web => "gw_web_1400",
            Sweep => "sim_paper_sweep",
            Mice => "sim_mice_crowd",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end or per-layer.
    pub kind: Kind,
    /// The workloads it exists on.
    pub on: On,
    /// Regression bound as a share of the parent's median, for two
    /// measurements of one seed (ISSUE 11's table; `perf --aa` applies
    /// it). End-to-end metrics only; 0 otherwise, and 0 on `failed_share`,
    /// which may not rise at all.
    pub bound: f64,
    /// The `bound` that `BENCHMARK.json` declares. The driver accepts a
    /// benchmark only if ten runs on ten *different* seeds spread (IQR /
    /// median) by no more than this, so it is `bound` raised to what the
    /// recording host's noise and the seed-to-seed variation of the inputs
    /// leave room for. 0 on a metric the driver's schema cannot gate: one
    /// that does not exist on every workload, or that reads 0.
    pub driver_bound: f64,
    /// True if the value is computed from counts alone and so must repeat
    /// exactly for a fixed seed; A/A mode fails on any difference.
    pub exact: bool,
    /// Module the number belongs to.
    pub layer: &'static str,
    /// One-line meaning.
    pub meaning: &'static str,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "gw_web_1400",
        why: "DRE read path does most of the work: Rabin scan, fingerprint hits, match extension, token emit, decode copy, at the packet size where per-packet costs are smallest",
        params: "closed loop, one thread, no simulator; 64 interleaved flows of 1400-byte segments cut from FileSpec::File1 streams (~45 % copied bytes), policy CacheFlush, no loss, batches of 16 through build -> EncoderGateway::process_batch -> write_bytes -> from_bytes -> DecoderGateway::process_batch -> byte compare; corpus >= 2x DreConfig::default().cache_bytes re-walked under fresh ports with rising sequence numbers; one untimed warm-up pass; the timed section is 9 passes at the default 16 s, in proportion to --seconds",
        seeds: "stream f is FileSpec::File1.build(len_f, mix(seed, 1 + f)); len_f = 2 x cache / flows + up to a sixteenth, a fixed function of f (the seed changes content, never sizes)",
    },
    WorkloadDef {
        name: "gw_fresh_256",
        why: "same pipeline the other way: every packet is a cache write (insert, index, evict), no lookup hits; 5.5x more packets per byte, so packet build/serialize/parse and gateway dispatch dominate",
        params: "as gw_web_1400 with 256-byte segments of ObjectKind::Video (incompressible); 7 passes at the default 16 s",
        seeds: "stream f is generate(Video, len_f, mix(seed, 1 + f)); lengths as gw_web_1400",
    },
    WorkloadDef {
        name: "sim_paper_sweep",
        why: "the paper's Fig. 10/11 grid as full simulations: only here do retransmission, cache flushes, undecodable drops, SACK/RTO recovery and the lossy channel run; a pure speed-up leaves its statistics as is",
        params: "server -> encoder gw -> 1 MB/s 10 ms hop -> decoder gw -> client, TCP defaults with max_retries 15; {File 1, File 2} at 587567 B x {CacheFlush, TcpSeq, KDistance(8)} x Bernoulli loss {0,1,2,5,8,11,14,17,20 %} = 54 downloads per seed index, back to back, caches empty per download; 9 seed indices at the default 16 s (486 downloads)",
        seeds: "seed index i generates its own files, FileSpec::File{1,2}.build(size, mix(mix(seed, 0xF11E000{1,2}), i)); the simulator seed of (file, loss, seed index) is mix(mix(seed, cell), index), shared by the three policies",
    },
    WorkloadDef {
        name: "sim_mice_crowd",
        why: "about 30 events and one handshake/teardown per 256 bytes of payload: event scheduler, node dispatch, TCP state and packet handling do most of the work; bypass workload for every DRE optimisation",
        params: "open loop in simulated time: rounds of 25000 TCP downloads of 256-byte WebPage objects from a 64-object Zipf(0.9) catalog, Poisson arrivals every 160 us on average, 4 gateway pairs each owning one lossless 1 MB/s 10 ms hop (about 70 % utilised by the traffic before DRE), policy CacheFlush; one round is one simulation, 39 rounds (13 laps of 3) at the default 16 s",
        seeds: "object i is generate(WebPage, 256, mix(seed, 0x0B0000 + i)); round r draws arrivals and object choice from flash_crowd(.., mix(seed, 0xA221 + r)), which is also its simulator seed",
    },
];

#[allow(clippy::too_many_arguments)]
const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    bound: f64,
    driver_bound: f64,
    exact: bool,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        on,
        bound,
        driver_bound,
        exact,
        layer: "end-to-end",
        meaning,
        moves: "-",
    }
}

const fn time(
    name: &'static str,
    unit: &'static str,
    on: On,
    layer: &'static str,
    meaning: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::PerLayer,
        on,
        bound: 0.0,
        driver_bound: 0.0,
        exact: false,
        layer,
        meaning,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    layer: &'static str,
    meaning: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        on,
        bound: 0.0,
        driver_bound: 0.0,
        exact: true,
        layer,
        meaning,
        moves,
    }
}

const GW_BOTH: &str = "payload_mib_s, cpu_s on gw_web_1400 and gw_fresh_256; partly sim_paper_sweep; not sim_mice_crowd";
const AIR_ALL: &str = "air_byte_ratio on all workloads, most on sim_paper_sweep";
const SWEEP_TIME: &str = "sim_download_mean_s, sim_stall_p90_ms on sim_paper_sweep";
const MICE_HOST: &str = "payload_mib_s, cpu_s on sim_mice_crowd";

/// Every metric, end-to-end first. Eight end-to-end metrics and their
/// `bound`s are ISSUE 11's table; the two `quiet_*` ones are the form of
/// its host-time metrics that the driver can gate on a shared host. See
/// [`MetricDef::driver_bound`] for the second number.
pub const METRICS: &[MetricDef] = &[
    e2e("payload_mib_s", "MiB/s", Higher, All, 0.10, 0.0, false, "application payload delivered byte-identical / host wall seconds of the timed section (not gated by the driver: ten runs spread 9-16 % on the recording host, too near its 0.25 cap)"),
    e2e("cpu_s", "s", Lower, All, 0.10, 0.0, false, "user+system CPU of the whole process (/proc/self/stat) over the timed section: separates faster from used-a-second-core (not gated by the driver, as payload_mib_s)"),
    e2e("quiet_mib_s", "MiB/s", Higher, All, 0.10, 0.25, false, "payload_mib_s of the fastest of the timed section's equal-work laps: the rate when the host's other tenants leave the run alone"),
    e2e("quiet_cpu_s", "s", Lower, All, 0.10, 0.25, false, "cpu_s of the cheapest of the same laps, times their number"),
    e2e("peak_rss_mib", "MiB", Lower, All, 0.05, 0.10, false, "VmHWM when the run ends"),
    e2e("setup_s", "s", Lower, All, 0.10, 0.25, false, "everything before the timed section (input generation, gateway construction, warm-up pass); median of several set-ups in one run (sim_*: half of them made after the timed section, to be timed only)"),
    e2e("air_byte_ratio", "ratio", Lower, All, 0.005, 0.025, true, "bytes offered to the encoder->decoder hop (IP+TCP headers, shim, every retransmission) / payload bytes delivered intact: the paper's bytes sent"),
    e2e("sim_download_mean_s", "s", Lower, Sim, 0.01, 0.0, true, "mean simulated DownloadReport::duration over the run's flows; an aborted or incomplete flow contributes the simulation end time and counts as failed"),
    e2e("sim_stall_p90_ms", "ms", Lower, Sweep, 0.01, 0.0, true, "90th percentile of per-flow DownloadReport::max_stall, simulated: the user-visible stall"),
    e2e("failed_share", "ratio", Lower, All, 0.0, 0.0, true, "failed / attempted operations (gw_*: packets not delivered byte-identical; sim_*: flows aborted, incomplete or differing); may not rise"),
    // rabin
    time("rabin.scan_ns_per_byte", "ns/B", All, "rabin", "replay: Fingerprinter::windows + Sampler::selects alone over the recorded ingress", GW_BOTH),
    count("rabin.sampled_frac", "ratio", Lower, All, "rabin", "sampled_windows / scan_windows of the encoder", GW_BOTH),
    // core encoder
    time("encoder.encode_ns_per_pkt", "ns/pkt", All, "core encoder", "replay: Encoder::encode alone, per packet", "payload_mib_s on gw_*"),
    time("encoder.encode_ns_per_byte", "ns/B", All, "core encoder", "replay: Encoder::encode alone, per payload byte", "payload_mib_s on gw_*"),
    time("encoder.match_emit_ns_per_pkt", "ns/pkt", All, "core encoder", "derived, not measured: encode - rabin scan - store write replays, per packet (match extension, policy, token emit); negative when the product's scan beats the reference iterator the rabin replay uses", "payload_mib_s on gw_web_1400"),
    count("encoder.packets", "count", Higher, All, "core encoder", "EncoderStats::packets", "-"),
    count("encoder.bytes_in", "B", Higher, All, "core encoder", "EncoderStats::bytes_in", "-"),
    count("encoder.bytes_out", "B", Lower, All, "core encoder", "EncoderStats::bytes_out (shim payload bytes)", AIR_ALL),
    count("encoder.encoded_packets", "count", Higher, All, "core encoder", "packets that carried at least one match token", AIR_ALL),
    count("encoder.matches", "count", Higher, All, "core encoder", "match tokens emitted", AIR_ALL),
    count("encoder.matched_bytes", "B", Higher, All, "core encoder", "original bytes covered by match tokens", AIR_ALL),
    count("encoder.flushes", "count", Lower, All, "core encoder", "policy-initiated cache flushes", AIR_ALL),
    count("encoder.windows_per_byte", "ratio", Lower, All, "core encoder", "scan_windows / bytes_in; 1.0 = nothing fingerprinted twice", GW_BOTH),
    count("encoder.match_yield", "ratio", Higher, All, "core encoder", "matches / sampled_windows: useful probes per attempt", "payload_mib_s on gw_web_1400"),
    count("encoder.index_insertions", "count", Lower, All, "core encoder", "fingerprint-table insertions by the cache update procedure", "payload_mib_s on gw_fresh_256"),
    // core store
    time("store.insert_index_ns_per_pkt", "ns/pkt", All, "core store", "replay: Cache::insert + Cache::index_sampled alone, fed the rabin replay's fingerprints (write path, evicting once full)", "payload_mib_s on gw_fresh_256; peak_rss_mib on all"),
    time("store.lookup_ns_per_probe", "ns/probe", All, "core store", "replay: Cache::lookup over the sampled fingerprints (read path)", "payload_mib_s on gw_web_1400"),
    count("store.inserts", "count", Higher, All, "core store", "encoder-side CacheStats::inserts", "-"),
    count("store.evictions", "count", Lower, All, "core store", "encoder-side CacheStats::evictions", "peak_rss_mib on gw_*"),
    count("store.replacements", "count", Lower, All, "core store", "index insertions that replaced an entry", "-"),
    // core wire
    time("wire.parse_ns_per_pkt", "ns/pkt", All, "core wire", "replay: wire::parse alone over the encoder's output", "payload_mib_s on gw_fresh_256"),
    count("wire.shim_bytes_per_pkt", "B/pkt", Lower, All, "core wire", "shim bytes that are not literal payload (headers, tokens), per packet", "air_byte_ratio on gw_fresh_256"),
    // core decoder
    time("decoder.decode_ns_per_pkt", "ns/pkt", All, "core decoder", "replay: Decoder::decode alone, per packet", "payload_mib_s on gw_web_1400"),
    time("decoder.decode_ns_per_byte", "ns/B", All, "core decoder", "replay: Decoder::decode alone, per reconstructed byte", "payload_mib_s on gw_web_1400"),
    count("decoder.packets", "count", Higher, All, "core decoder", "DecoderStats::packets", "-"),
    count("decoder.decoded", "count", Higher, All, "core decoder", "encoded payloads reconstructed", "-"),
    count("decoder.raw", "count", Lower, All, "core decoder", "raw payloads passed through", "-"),
    count("decoder.undecodable", "count", Lower, All, "core decoder", "DecoderStats::undecodable(): the second term of perceived loss", SWEEP_TIME),
    count("decoder.checksum_mismatch", "count", Lower, All, "core decoder", "reconstructions that failed their checksum", SWEEP_TIME),
    // core gateway
    time("gateway.encode_ns_per_pkt", "ns/pkt", All, "core gateway", "gw_*: boundary span around EncoderGateway::process_batch per packet; sim_*: Timed<EncoderGateway> busy time per callback", "payload_mib_s on gw_*"),
    time("gateway.decode_ns_per_pkt", "ns/pkt", All, "core gateway", "gw_*: boundary span around DecoderGateway::process_batch per packet; sim_*: Timed<DecoderGateway> busy time per callback", "payload_mib_s on gw_*"),
    time("gateway.batch_p50_us", "us", Gw, "core gateway", "median host time of one batch through both gateways, build to verify", "payload_mib_s on gw_*"),
    time("gateway.batch_p99_us", "us", Gw, "core gateway", "99th percentile of the same", "payload_mib_s on gw_*"),
    count("gateway.batch_samples", "count", Higher, Gw, "core gateway", "batches behind the two percentiles", "-"),
    time("gateway.encode_busy_frac", "ratio", All, "core gateway", "share of the traced wall inside the encoder gateway", "bounds what a DRE change can save on sim_*"),
    time("gateway.decode_busy_frac", "ratio", All, "core gateway", "share of the traced wall inside the decoder gateway", "bounds what a DRE change can save on sim_*"),
    count("gateway.decoder_dropped", "count", Lower, All, "core gateway", "DecoderGateway::dropped", SWEEP_TIME),
    count("gateway.nacks_sent", "count", Lower, All, "core gateway", "DecoderGateway::nacks_sent (0 while the default builders leave informed marking off)", "-"),
    // packet
    time("packet.build_ns_per_pkt", "ns/pkt", All, "packet", "Packet::builder()...build(): boundary span on gw_*, replay on sim_*", "payload_mib_s on gw_fresh_256 and sim_mice_crowd"),
    time("packet.serialize_ns_per_pkt", "ns/pkt", All, "packet", "Packet::write_bytes, checksums included: boundary span on gw_*, replay on sim_*", "payload_mib_s on gw_fresh_256"),
    time("packet.parse_ns_per_pkt", "ns/pkt", All, "packet", "Packet::from_bytes, checksums verified: boundary span on gw_*, replay on sim_*", "payload_mib_s on gw_fresh_256"),
    // tcp
    time("tcp.server_busy_frac", "ratio", Sim, "tcp", "share of the run_until_idle wall inside Timed<TcpServerNode>", MICE_HOST),
    time("tcp.client_busy_frac", "ratio", Sim, "tcp", "share of the run_until_idle wall inside Timed<TcpClientNode>", MICE_HOST),
    count("tcp.segments_sent", "count", Lower, Sim, "tcp", "ServerReport::segments_sent, summed", "air_byte_ratio on sim_paper_sweep"),
    count("tcp.retransmissions", "count", Lower, Sim, "tcp", "ServerReport::retransmissions, summed", "sim_download_mean_s, air_byte_ratio on sim_paper_sweep"),
    count("tcp.timeouts", "count", Lower, Sim, "tcp", "ServerReport::timeouts, summed", "sim_download_mean_s on sim_paper_sweep"),
    count("tcp.fast_retransmits", "count", Higher, Sim, "tcp", "ServerReport::fast_retransmits, summed", "sim_download_mean_s on sim_paper_sweep"),
    count("tcp.dup_acks", "count", Lower, Sim, "tcp", "DownloadReport::dup_acks_sent, summed", "-"),
    count("tcp.download_p50_s", "s", Lower, Sim, "tcp", "median simulated download time", "sim_download_mean_s"),
    count("tcp.download_p99_s", "s", Lower, Mice, "tcp", "99th percentile simulated download time (the sweep's few hundred flows leave too few samples beyond it)", "sim_download_mean_s on sim_mice_crowd"),
    count("tcp.stall_p50_ms", "ms", Lower, Sim, "tcp", "median per-flow DownloadReport::max_stall, simulated", "-"),
    // netsim sim
    count("sim.events", "count", Lower, Sim, "netsim sim", "Simulator::events_processed", MICE_HOST),
    time("sim.events_per_s", "1/s", Sim, "netsim sim", "events / run_until_idle wall; not end-to-end on purpose: fewer events for the same downloads is a win that lowers it", "-"),
    time("sim.ns_per_event", "ns", Sim, "netsim sim", "run_until_idle wall / events", MICE_HOST),
    time("sim.self_frac", "ratio", Sim, "netsim sim", "1 - sum of Timed<N> busy shares: scheduler + links + channel + routing", MICE_HOST),
    time("sim.self_ns_per_event", "ns", Sim, "netsim sim", "simulator self time / events", MICE_HOST),
    time("sim.no_dre_ns_per_event", "ns", Sim, "netsim sim", "ns per event of the same topology with pass-through boxes for gateways (sweep: the first seed index; crowd: the first round)", "-"),
    // netsim wheel
    count("wheel.schedule_ops", "count", Lower, Sim, "netsim wheel", "pushes + pops of the recorded event-queue schedule", "payload_mib_s on sim_mice_crowd"),
    time("wheel.replay_ns_per_op", "ns", Sim, "netsim wheel", "replay_schedule of the recorded schedule through the default queue kind, per op", "payload_mib_s on sim_mice_crowd only"),
    time("wheel.replay_frac", "ratio", Sim, "netsim wheel", "replay seconds / run_until_idle wall: the event queue's share", "payload_mib_s on sim_mice_crowd only"),
    // netsim link/channel
    count("link.packets_offered", "count", Lower, All, "netsim link", "packets offered to the encoder->decoder hop (gw_*: the benchmark's own serialize step stands for the hop)", AIR_ALL),
    count("link.bytes_offered", "B", Lower, All, "netsim link", "bytes offered to the hop, headers included", AIR_ALL),
    count("link.packets_lost", "count", Lower, Sim, "netsim channel", "packets the loss process dropped", SWEEP_TIME),
    count("link.perceived_loss", "ratio", Lower, Sim, "netsim channel", "(lost + corrupted + undecodable) / offered: the paper's perceived loss", SWEEP_TIME),
    // telemetry
    time("telemetry.on_overhead_frac", "ratio", Web, "telemetry", "loop wall with set_telemetry_enabled(true) on both gateways / off - 1, over the first two passes of the timed section", "guards telemetry-stays-cheap; nothing end-to-end while off"),
    // the benchmark itself
    time("trace.verify_ns_per_pkt", "ns/pkt", Gw, "benchmark", "the benchmark's own byte compare, per packet", "-"),
    MetricDef {
        better: Higher,
        ..time("trace.coverage", "ratio", Gw, "benchmark", "sum of boundary-span self time / traced loop wall (sim_*: the Timed<N> rows and sim.self_frac sum to the wall by construction, so there is nothing to check)", "-")
    },
    time("trace.overhead_frac", "ratio", All, "benchmark", "traced wall / untraced wall of the same work in the same process - 1", "-"),
    count("gen.lateness_frac", "ratio", Lower, All, "benchmark", "how late the load generator ran: 0 for the closed loops and for arrivals scheduled in simulated time", "-"),
];

/// Look a metric up by name.
#[must_use]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

impl MetricDef {
    /// Whether `BENCHMARK.json` lists the metric under `end_to_end`, with
    /// a bound the driver enforces. Its schema wants every such metric on
    /// every workload and never 0; the rest go under `per_layer`.
    #[must_use]
    pub fn driver_gated(&self) -> bool {
        self.driver_bound > 0.0
    }
}

/// The metrics the driver's result line owes, in catalogue order: with
/// `--trace 0` the ones `BENCHMARK.json` lists under `end_to_end`, with
/// `--trace 1` all the others.
pub fn driver_metrics(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.driver_gated() != traced)
}

/// The catalogue as `perf --list` prints it.
#[must_use]
pub fn render() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "  {}\n    why: {}\n    parameters: {}\n    seeds: {}",
            w.name, w.why, w.params, w.seeds
        );
    }
    out.push_str("metrics (name | unit | better | workloads | layer | kind | meaning | moves)\n");
    for m in METRICS {
        let what = if m.exact { "exact count" } else { "host time" };
        let kind = match m.kind {
            Kind::EndToEnd if m.driver_gated() => format!(
                "end-to-end, {what}, bound {} (BENCHMARK.json, ten seeds: {})",
                m.bound, m.driver_bound
            ),
            Kind::EndToEnd => format!("end-to-end, {what}, bound {}", m.bound),
            Kind::PerLayer => format!("per-layer, {what}"),
        };
        let _ = writeln!(
            out,
            "  {} | {} | {} | {} | {} | {} | {} | {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.on.as_str(),
            m.layer,
            kind,
            m.meaning,
            m.moves
        );
    }
    out
}

/// The program and arguments the driver runs, from the root of a checkout.
const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
];

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// disagree (`perf --benchmark-json > BENCHMARK.json`; a test compares).
#[must_use]
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let metrics = |traced: bool| {
        driver_metrics(traced)
            .map(|m| {
                let bound = if traced {
                    String::new()
                } else {
                    format!(", \"bound\": {}", m.driver_bound)
                };
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                )
            })
            .collect()
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(metrics(false)),
        list(metrics(true)),
    )
}
