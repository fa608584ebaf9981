//! Policy tournament — every retransmission-mitigation arm on the same
//! channel realizations.
//!
//! The paper's DRE policies (§III) and the classic alternative — forward
//! error correction via network coding — attack the same problem from
//! opposite ends: DRE shrinks what a retransmission costs, coding avoids
//! the retransmission entirely. This harness runs the full matrix so the
//! two families are comparable cell by cell:
//!
//! * **arms** — the no-middlebox TCP baseline, each DRE policy
//!   ([`PolicyKind`]), and the XOR coder pair
//!   ([`bytecache_netsim::nc`]) bracketing the wireless hop;
//! * **channels** — Bernoulli vs Gilbert–Elliott bursty loss
//!   ([`ChannelKind`]), swept over loss rate, propagation delay (RTT),
//!   serialization rate, and workload redundancy.
//!
//! Every cell reports goodput, the stall profile (mean and worst
//! in-order gap), and bytes on air; [`frontier`] reduces the matrix to
//! a winner map (best uncorrupted goodput per channel cell), and
//! [`nc_vs_cacheflush`] answers the headline question — where does a
//! repair packet beat a smaller retransmission?
//!
//! [`determinism_check`] asserts the subsystem contract: every arm's
//! runs digest byte-identically on heap/wheel event queues and with
//! telemetry on/off.

use bytecache::PolicyKind;
use bytecache_netsim::nc::NcTuning;
use bytecache_netsim::time::SimDuration;
use bytecache_netsim::QueueKind;
use bytecache_telemetry::Recorder;
use bytecache_workload::{FileSpec, StreamSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::campaign::{self, Campaign, IdentityCheck};
use crate::report::Table;
use crate::scenario::{run_scenario, RunResult, ScenarioConfig};

/// One contender in the tournament.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Arm {
    /// Plain TCP through pass-through middleboxes.
    Baseline,
    /// Byte caching with this marking policy.
    Dre(PolicyKind),
    /// The XOR network-coding pair around the wireless hop (no DRE).
    Nc,
}

impl Arm {
    /// Stable display label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Arm::Baseline => "baseline".to_string(),
            Arm::Dre(kind) => kind.label(),
            Arm::Nc => "nc-xor".to_string(),
        }
    }
}

/// Loss process on the wireless data direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Independent per-packet loss.
    Bernoulli,
    /// Gilbert–Elliott bursty loss with this mean burst length, at the
    /// same long-run rate.
    Burst(f64),
}

impl ChannelKind {
    /// Stable display label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ChannelKind::Bernoulli => "bernoulli".to_string(),
            ChannelKind::Burst(len) => format!("burst({len:.0})"),
        }
    }

    fn burst_len(self) -> Option<f64> {
        match self {
            ChannelKind::Bernoulli => None,
            ChannelKind::Burst(len) => Some(len),
        }
    }
}

/// One cell of the tournament: an arm on a fully specified channel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TournamentPoint {
    /// Contender.
    pub arm: Arm,
    /// Loss process.
    pub channel: ChannelKind,
    /// Long-run loss rate.
    pub loss: f64,
    /// Wireless one-way propagation, microseconds (RTT axis).
    pub prop_us: u64,
    /// Wireless serialization rate, bytes/second.
    pub rate: u64,
    /// Workload redundant-packet fraction.
    pub redundancy: f64,
    /// Mean goodput over completed runs, kilobytes of object per
    /// second of download.
    pub goodput_kbyte_s: f64,
    /// Mean longest in-order-progress gap over completed runs, ms.
    pub stall_ms: f64,
    /// Worst such gap across all completed runs, ms.
    pub max_stall_ms: f64,
    /// Mean bytes offered on the wireless data direction.
    pub wire_bytes: f64,
    /// `wire_bytes` over the object length — bytes on air per object
    /// byte (repair and retransmission overhead both land here).
    pub bytes_ratio: f64,
    /// Packets the NC decoder reconstructed, summed over runs (zero
    /// for non-NC arms).
    pub nc_recovered: u64,
    /// Repair bytes the NC encoder emitted, summed over runs.
    pub nc_repair_bytes: u64,
    /// Runs that completed with intact data.
    pub runs: usize,
    /// Runs that failed to complete (excluded from the means).
    pub failures: usize,
    /// Runs that delivered corrupted bytes — must be zero.
    pub corrupted: usize,
}

/// Tournament sweep parameters.
#[derive(Debug, Clone)]
pub struct TournamentParams {
    /// Object size in bytes.
    pub object_size: usize,
    /// Contenders.
    pub arms: Vec<Arm>,
    /// Loss processes.
    pub channels: Vec<ChannelKind>,
    /// Long-run loss rates.
    pub losses: Vec<f64>,
    /// Wireless one-way propagation delays, microseconds.
    pub prop_us: Vec<u64>,
    /// Wireless serialization rates, bytes/second.
    pub rates: Vec<u64>,
    /// Workload redundant-packet fractions.
    pub redundancy: Vec<f64>,
    /// Seeds per cell.
    pub seeds: u64,
    /// Event-queue kind override (`None`: simulator default).
    pub queue: Option<QueueKind>,
}

impl TournamentParams {
    /// The full matrix: every arm, both loss processes, two values per
    /// numeric axis.
    #[must_use]
    pub fn full(seeds: u64) -> Self {
        TournamentParams {
            object_size: 200_000,
            arms: vec![
                Arm::Baseline,
                Arm::Nc,
                Arm::Dre(PolicyKind::Naive),
                Arm::Dre(PolicyKind::CacheFlush),
                Arm::Dre(PolicyKind::TcpSeq),
                Arm::Dre(PolicyKind::KDistance(8)),
                Arm::Dre(PolicyKind::Degrading),
                Arm::Dre(PolicyKind::AckGated),
                Arm::Dre(PolicyKind::Adaptive),
            ],
            channels: vec![ChannelKind::Bernoulli, ChannelKind::Burst(4.0)],
            losses: vec![0.02, 0.08],
            prop_us: vec![2_000, 10_000],
            rates: vec![500_000, 1_000_000],
            redundancy: vec![0.25, 0.50],
            seeds,
            queue: None,
        }
    }

    /// The `--quick` grid: three representative arms, both loss
    /// processes, one value per numeric axis.
    #[must_use]
    pub fn quick(seeds: u64) -> Self {
        TournamentParams {
            object_size: 120_000,
            arms: vec![Arm::Baseline, Arm::Dre(PolicyKind::CacheFlush), Arm::Nc],
            channels: vec![ChannelKind::Bernoulli, ChannelKind::Burst(4.0)],
            losses: vec![0.05],
            prop_us: vec![2_000],
            rates: vec![1_000_000],
            redundancy: vec![0.50],
            seeds,
            queue: None,
        }
    }

    /// Pin the event-queue kind (builder style).
    #[must_use]
    pub fn queue(mut self, queue: Option<QueueKind>) -> Self {
        self.queue = queue;
        self
    }
}

/// Workload at the requested redundancy: File 1's shape with the
/// redundant-packet fraction overridden, built from a fixed seed so
/// every arm downloads the identical object.
fn build_object(size: usize, redundancy: f64) -> Vec<u8> {
    StreamSpec {
        redundant_packet_fraction: redundancy,
        ..FileSpec::File1.spec()
    }
    .build(size, 42)
}

#[allow(clippy::too_many_arguments)]
fn scenario_for(
    params: &TournamentParams,
    object: Vec<u8>,
    arm: Arm,
    channel: ChannelKind,
    loss: f64,
    prop_us: u64,
    rate: u64,
    seed: u64,
    telemetry: bool,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(object)
        .loss(loss)
        .seed(seed)
        .telemetry(telemetry)
        .queue(params.queue);
    cfg.burst_len = channel.burst_len();
    cfg.wireless_propagation = SimDuration::from_micros(prop_us);
    cfg.wireless_rate = rate;
    match arm {
        Arm::Baseline => cfg,
        Arm::Dre(kind) => cfg.policy(kind),
        // Genie-aided warm start: the coder pair begins at the
        // provisioned loss rate instead of rediscovering it, the same
        // channel-state knowledge the DRE arms get implicitly through
        // their tuned policies.
        Arm::Nc => cfg.nc(NcTuning {
            initial_loss: loss,
            ..NcTuning::default()
        }),
    }
}

/// Run the sweep; one [`TournamentPoint`] per cell, plus every run's
/// telemetry merged in input order (empty unless the campaign collects
/// it). Results are identical for every thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &TournamentParams) -> (Vec<TournamentPoint>, Recorder) {
    let mut cells = Vec::new();
    for &channel in &params.channels {
        for &loss in &params.losses {
            for &prop_us in &params.prop_us {
                for &rate in &params.rates {
                    for &redundancy in &params.redundancy {
                        for &arm in &params.arms {
                            cells.push((arm, channel, loss, prop_us, rate, redundancy));
                        }
                    }
                }
            }
        }
    }
    campaign.run_recorded(
        "tournament",
        cells,
        |(arm, channel, loss, prop_us, rate, redundancy), rec| {
            point(params, arm, channel, loss, prop_us, rate, redundancy, rec)
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn point(
    params: &TournamentParams,
    arm: Arm,
    channel: ChannelKind,
    loss: f64,
    prop_us: u64,
    rate: u64,
    redundancy: f64,
    rec: &mut Recorder,
) -> TournamentPoint {
    let object = build_object(params.object_size, redundancy);
    let object_len = object.len();
    let mut goodput_sum = 0.0;
    let mut stall_sum = 0.0;
    let mut max_stall = 0.0f64;
    let mut wire_sum = 0.0;
    let mut nc_recovered = 0u64;
    let mut nc_repair_bytes = 0u64;
    let mut runs = 0usize;
    let mut failures = 0usize;
    let mut corrupted = 0usize;
    for seed in 0..params.seeds {
        let r = run_scenario(&scenario_for(
            params,
            object.clone(),
            arm,
            channel,
            loss,
            prop_us,
            rate,
            seed,
            rec.is_enabled(),
        ));
        if let Some(snapshot) = &r.telemetry {
            rec.merge(snapshot);
        }
        if !r.data_intact {
            corrupted += 1;
        }
        nc_recovered += r.nc_decoder.as_ref().map_or(0, |d| d.recovered);
        nc_repair_bytes += r.nc_encoder.as_ref().map_or(0, |e| e.repair_bytes);
        if r.completed() {
            let secs = r.duration_secs().unwrap_or(f64::INFINITY);
            goodput_sum += object_len as f64 / 1_000.0 / secs;
            let stall = stall_ms_of(&r);
            stall_sum += stall;
            max_stall = max_stall.max(stall);
            wire_sum += r.wire_bytes() as f64;
            runs += 1;
        } else {
            failures += 1;
        }
    }
    let n = runs.max(1) as f64;
    TournamentPoint {
        arm,
        channel,
        loss,
        prop_us,
        rate,
        redundancy,
        goodput_kbyte_s: goodput_sum / n,
        stall_ms: stall_sum / n,
        max_stall_ms: max_stall,
        wire_bytes: wire_sum / n,
        bytes_ratio: wire_sum / n / object_len as f64,
        nc_recovered,
        nc_repair_bytes,
        runs,
        failures,
        corrupted,
    }
}

fn stall_ms_of(result: &RunResult) -> f64 {
    result
        .client
        .max_stall
        .map_or(0.0, |d| d.as_secs_f64() * 1_000.0)
}

/// One row of the winner map: the best uncorrupted arm of a channel
/// cell, by goodput.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Loss process of the cell.
    pub channel: ChannelKind,
    /// Long-run loss rate.
    pub loss: f64,
    /// Wireless one-way propagation, microseconds.
    pub prop_us: u64,
    /// Wireless serialization rate, bytes/second.
    pub rate: u64,
    /// Workload redundant-packet fraction.
    pub redundancy: f64,
    /// Winning arm's label.
    pub winner: String,
    /// Winning arm's goodput, kilobytes/second.
    pub goodput_kbyte_s: f64,
    /// Runner-up arm's label (empty when only one arm qualified).
    pub runner_up: String,
    /// Winner's goodput over the runner-up's (1.0 when no runner-up).
    pub margin: f64,
}

/// Reduce the matrix to its winner map: for every channel cell, the
/// arm with the highest goodput among those that completed every run
/// without corruption. Cells where no arm qualified are skipped.
#[must_use]
pub fn frontier(points: &[TournamentPoint]) -> Vec<FrontierRow> {
    let mut keys: Vec<(ChannelKind, u64, u64, u64, u64)> = Vec::new();
    let mut rows = Vec::new();
    for p in points {
        let key = (
            p.channel,
            p.loss.to_bits(),
            p.prop_us,
            p.rate,
            p.redundancy.to_bits(),
        );
        if keys.contains(&key) {
            continue;
        }
        keys.push(key);
        let mut group: Vec<&TournamentPoint> = points
            .iter()
            .filter(|q| {
                q.channel == p.channel
                    && q.loss == p.loss
                    && q.prop_us == p.prop_us
                    && q.rate == p.rate
                    && q.redundancy == p.redundancy
                    && q.corrupted == 0
                    && q.failures == 0
                    && q.runs > 0
            })
            .collect();
        if group.is_empty() {
            continue;
        }
        group.sort_by(|a, b| {
            b.goodput_kbyte_s
                .partial_cmp(&a.goodput_kbyte_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let winner = group[0];
        let runner = group.get(1);
        rows.push(FrontierRow {
            channel: p.channel,
            loss: p.loss,
            prop_us: p.prop_us,
            rate: p.rate,
            redundancy: p.redundancy,
            winner: winner.arm.label(),
            goodput_kbyte_s: winner.goodput_kbyte_s,
            runner_up: runner.map_or(String::new(), |r| r.arm.label()),
            margin: runner.map_or(1.0, |r| {
                if r.goodput_kbyte_s > 0.0 {
                    winner.goodput_kbyte_s / r.goodput_kbyte_s
                } else {
                    1.0
                }
            }),
        });
    }
    rows
}

/// The headline comparison: cells where both the NC arm and the
/// CacheFlush DRE arm completed uncorrupted, and how often the repair
/// packet beat the smaller retransmission.
#[derive(Debug, Clone)]
pub struct NcComparison {
    /// Channel cells where both arms qualified.
    pub cells_compared: usize,
    /// Cells where the NC arm's goodput was strictly higher.
    pub nc_wins: usize,
    /// NC's best goodput ratio over CacheFlush across the compared
    /// cells (`< 1` everywhere is the honest negative result).
    pub best_ratio: f64,
    /// Label of the cell where that best ratio occurred.
    pub best_cell: String,
}

/// Compare the NC arm against CacheFlush cell by cell (see
/// [`NcComparison`]). Returns `None` when no cell has both arms.
#[must_use]
pub fn nc_vs_cacheflush(points: &[TournamentPoint]) -> Option<NcComparison> {
    let mut cells_compared = 0;
    let mut nc_wins = 0;
    let mut best_ratio = f64::NEG_INFINITY;
    let mut best_cell = String::new();
    for nc in points.iter().filter(|p| p.arm == Arm::Nc) {
        let Some(cf) = points.iter().find(|p| {
            p.arm == Arm::Dre(PolicyKind::CacheFlush)
                && p.channel == nc.channel
                && p.loss == nc.loss
                && p.prop_us == nc.prop_us
                && p.rate == nc.rate
                && p.redundancy == nc.redundancy
        }) else {
            continue;
        };
        if nc.corrupted > 0 || cf.corrupted > 0 || nc.failures > 0 || cf.failures > 0 {
            continue;
        }
        if nc.runs == 0 || cf.runs == 0 {
            continue;
        }
        cells_compared += 1;
        let ratio = if cf.goodput_kbyte_s > 0.0 {
            nc.goodput_kbyte_s / cf.goodput_kbyte_s
        } else {
            1.0
        };
        if ratio > 1.0 {
            nc_wins += 1;
        }
        if ratio > best_ratio {
            best_ratio = ratio;
            best_cell = format!(
                "{} loss={} prop_us={} rate={} red={}",
                nc.channel.label(),
                nc.loss,
                nc.prop_us,
                nc.rate,
                nc.redundancy
            );
        }
    }
    if cells_compared == 0 {
        return None;
    }
    Some(NcComparison {
        cells_compared,
        nc_wins,
        best_ratio,
        best_cell,
    })
}

/// Assert the tournament's determinism contract on every arm of
/// `params` at its harshest channel (burstiest process, highest loss)
/// through [`campaign::determinism_check`]: the run digest — delivery,
/// wire counters, middlebox counters, the final clock — must be
/// byte-identical on [`QueueKind::Heap`] and [`QueueKind::Wheel`] and
/// with telemetry collection on or off.
#[must_use]
pub fn determinism_check(params: &TournamentParams) -> IdentityCheck {
    let loss = params.losses.iter().copied().fold(0.0, f64::max);
    let channel = params
        .channels
        .iter()
        .copied()
        .find(|c| matches!(c, ChannelKind::Burst(_)))
        .or_else(|| params.channels.first().copied())
        .unwrap_or(ChannelKind::Bernoulli);
    let prop_us = params.prop_us.first().copied().unwrap_or(10_000);
    let rate = params.rates.first().copied().unwrap_or(1_000_000);
    let redundancy = params.redundancy.first().copied().unwrap_or(0.5);
    let object = build_object(params.object_size, redundancy);
    campaign::determinism_check(&params.arms, |&arm, queue, telemetry| {
        digest_one(
            params, &object, arm, channel, loss, prop_us, rate, 42, queue, telemetry,
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn digest_one(
    params: &TournamentParams,
    object: &[u8],
    arm: Arm,
    channel: ChannelKind,
    loss: f64,
    prop_us: u64,
    rate: u64,
    seed: u64,
    queue: QueueKind,
    telemetry: bool,
) -> String {
    let mut p = params.clone();
    p.queue = Some(queue);
    let r = run_scenario(&scenario_for(
        &p,
        object.to_vec(),
        arm,
        channel,
        loss,
        prop_us,
        rate,
        seed,
        telemetry,
    ));
    let mut digest = String::new();
    let _ = writeln!(
        digest,
        "complete={} intact={} dur={:?} end={:?}",
        r.client.complete,
        r.data_intact,
        r.duration_secs(),
        r.end_time
    );
    let _ = writeln!(digest, "wireless={:?}", r.wireless);
    let _ = writeln!(
        digest,
        "undecodable={} enc={:?} dec={:?}",
        r.undecodable_drops, r.encoder, r.decoder
    );
    let _ = writeln!(
        digest,
        "nc_enc={:?} nc_dec={:?}",
        r.nc_encoder, r.nc_decoder
    );
    digest
}

/// Serialize tournament points as a JSON array with Rust's shortest
/// round-trip float formatting, so determinism checks can compare
/// outputs as strings.
#[must_use]
pub fn to_json(points: &[TournamentPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"arm\": \"{}\", \"channel\": \"{}\", \"loss\": {}, \"prop_us\": {}, \
             \"rate\": {}, \"redundancy\": {}, \"goodput_kbyte_s\": {}, \"stall_ms\": {}, \
             \"max_stall_ms\": {}, \"wire_bytes\": {}, \"bytes_ratio\": {}, \
             \"nc_recovered\": {}, \"nc_repair_bytes\": {}, \"runs\": {}, \"failures\": {}, \
             \"corrupted\": {}}}{}\n",
            p.arm.label(),
            p.channel.label(),
            p.loss,
            p.prop_us,
            p.rate,
            p.redundancy,
            p.goodput_kbyte_s,
            p.stall_ms,
            p.max_stall_ms,
            p.wire_bytes,
            p.bytes_ratio,
            p.nc_recovered,
            p.nc_repair_bytes,
            p.runs,
            p.failures,
            p.corrupted,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// The benchmark document written by `repro tournament`: host
/// metadata, the parameter grid, every point, the winner map, and the
/// NC-vs-CacheFlush headline.
#[must_use]
pub fn bench_json(params: &TournamentParams, points: &[TournamentPoint]) -> String {
    let host = crate::host::HostInfo::detect();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"tournament\",");
    let _ = writeln!(s, "  \"host\": {},", host.to_json_object());
    let arms: Vec<String> = params
        .arms
        .iter()
        .map(|a| format!("\"{}\"", a.label()))
        .collect();
    let channels: Vec<String> = params
        .channels
        .iter()
        .map(|c| format!("\"{}\"", c.label()))
        .collect();
    let _ = writeln!(
        s,
        "  \"params\": {{\"object_size\": {}, \"seeds\": {}, \"arms\": [{}], \
         \"channels\": [{}], \"losses\": {:?}, \"prop_us\": {:?}, \"rates\": {:?}, \
         \"redundancy\": {:?}}},",
        params.object_size,
        params.seeds,
        arms.join(", "),
        channels.join(", "),
        params.losses,
        params.prop_us,
        params.rates,
        params.redundancy,
    );
    match nc_vs_cacheflush(points) {
        Some(c) => {
            let _ = writeln!(
                s,
                "  \"nc_vs_cacheflush\": {{\"cells_compared\": {}, \"nc_wins\": {}, \
                 \"best_ratio\": {}, \"best_cell\": \"{}\"}},",
                c.cells_compared, c.nc_wins, c.best_ratio, c.best_cell
            );
        }
        None => {
            let _ = writeln!(s, "  \"nc_vs_cacheflush\": null,");
        }
    }
    let rows = frontier(points);
    let _ = writeln!(s, "  \"frontier\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"channel\": \"{}\", \"loss\": {}, \"prop_us\": {}, \"rate\": {}, \
             \"redundancy\": {}, \"winner\": \"{}\", \"goodput_kbyte_s\": {}, \
             \"runner_up\": \"{}\", \"margin\": {}}}{}",
            row.channel.label(),
            row.loss,
            row.prop_us,
            row.rate,
            row.redundancy,
            row.winner,
            row.goodput_kbyte_s,
            row.runner_up,
            row.margin,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"points\": {}", to_json(points));
    s.push('}');
    s
}

/// Render the sweep as a table, one row per cell.
#[must_use]
pub fn render(points: &[TournamentPoint]) -> Table {
    let mut t = Table::new(
        "Tournament — retransmission-mitigation arms per channel cell",
        &[
            "arm",
            "channel",
            "loss %",
            "prop ms",
            "rate kB/s",
            "red",
            "goodput kB/s",
            "stall ms",
            "bytes ratio",
            "nc rec",
            "ok/fail",
        ],
    );
    for p in points {
        t.row(&[
            p.arm.label(),
            p.channel.label(),
            format!("{:.0}", p.loss * 100.0),
            format!("{:.0}", p.prop_us as f64 / 1_000.0),
            format!("{}", p.rate / 1_000),
            format!("{:.2}", p.redundancy),
            format!("{:.1}", p.goodput_kbyte_s),
            format!("{:.1}", p.stall_ms),
            format!("{:.3}", p.bytes_ratio),
            format!("{}", p.nc_recovered),
            format!("{}/{}", p.runs, p.failures),
        ]);
    }
    t
}

/// Render the winner map, one row per channel cell.
#[must_use]
pub fn render_frontier(rows: &[FrontierRow]) -> Table {
    let mut t = Table::new(
        "Tournament frontier — best uncorrupted goodput per channel cell",
        &[
            "channel",
            "loss %",
            "prop ms",
            "rate kB/s",
            "red",
            "winner",
            "goodput kB/s",
            "runner-up",
            "margin",
        ],
    );
    for r in rows {
        t.row(&[
            r.channel.label(),
            format!("{:.0}", r.loss * 100.0),
            format!("{:.0}", r.prop_us as f64 / 1_000.0),
            format!("{}", r.rate / 1_000),
            format!("{:.2}", r.redundancy),
            r.winner.clone(),
            format!("{:.1}", r.goodput_kbyte_s),
            r.runner_up.clone(),
            format!("{:.2}x", r.margin),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TournamentParams {
        TournamentParams {
            object_size: 90_000,
            arms: vec![Arm::Baseline, Arm::Dre(PolicyKind::CacheFlush), Arm::Nc],
            channels: vec![ChannelKind::Bernoulli, ChannelKind::Burst(4.0)],
            losses: vec![0.05],
            prop_us: vec![2_000],
            rates: vec![1_000_000],
            redundancy: vec![0.50],
            seeds: 2,
            queue: None,
        }
    }

    #[test]
    fn quick_grid_completes_uncorrupted_on_every_arm() {
        let pts = run(&Campaign::default(), &tiny()).0;
        assert_eq!(pts.len(), 6);
        for p in &pts {
            assert_eq!(p.corrupted, 0, "corrupted delivery at {p:?}");
            assert_eq!(p.failures, 0, "permanent stall at {p:?}");
            assert!(p.goodput_kbyte_s > 0.0, "no goodput at {p:?}");
        }
        // The NC arm must actually be coding, not just passing through.
        let nc = pts.iter().find(|p| p.arm == Arm::Nc).unwrap();
        assert!(nc.nc_repair_bytes > 0, "no repairs emitted: {nc:?}");
    }

    #[test]
    fn frontier_names_one_winner_per_cell() {
        let pts = run(&Campaign::default(), &tiny()).0;
        let rows = frontier(&pts);
        assert_eq!(rows.len(), 2, "one frontier row per channel cell");
        for row in &rows {
            assert!(!row.winner.is_empty());
            assert!(row.goodput_kbyte_s > 0.0);
            assert!(row.margin >= 1.0, "winner must not trail the runner-up");
        }
        let cmp = nc_vs_cacheflush(&pts).expect("both arms present");
        assert_eq!(cmp.cells_compared, 2);
    }

    #[test]
    fn json_is_exact_and_balanced() {
        let pts = vec![TournamentPoint {
            arm: Arm::Dre(PolicyKind::TcpSeq),
            channel: ChannelKind::Burst(4.0),
            loss: 0.05,
            prop_us: 2_000,
            rate: 1_000_000,
            redundancy: 0.5,
            goodput_kbyte_s: 312.5,
            stall_ms: 12.5,
            max_stall_ms: 40.0,
            wire_bytes: 100_000.0,
            bytes_ratio: 0.875,
            nc_recovered: 0,
            nc_repair_bytes: 0,
            runs: 2,
            failures: 0,
            corrupted: 0,
        }];
        let json = to_json(&pts);
        assert_eq!(json, to_json(&pts), "serialization must be a pure function");
        assert!(json.contains("\"channel\": \"burst(4)\""));
        assert!(json.contains("\"goodput_kbyte_s\": 312.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let bench = bench_json(&tiny(), &pts);
        assert_eq!(bench.matches('{').count(), bench.matches('}').count());
        assert_eq!(bench.matches('[').count(), bench.matches(']').count());
        assert!(bench.contains("\"host\": {"));
    }

    #[test]
    fn digests_are_identical_across_modes_queues_and_telemetry() {
        let mut params = tiny();
        params.object_size = 60_000;
        params.seeds = 1;
        let check = determinism_check(&params);
        assert!(
            check.identical,
            "digests diverged across queue kinds / telemetry"
        );
        assert_eq!(check.combos, 3);
        assert_eq!(check.runs, 9);
    }

    #[test]
    fn tables_render_every_cell() {
        let pts = run(
            &Campaign::default(),
            &TournamentParams { seeds: 1, ..tiny() },
        )
        .0;
        let rendered = render(&pts).render();
        assert!(rendered.contains("nc-xor"));
        assert!(rendered.contains("cache-flush"));
        let rows = frontier(&pts);
        let fr = render_frontier(&rows).render();
        assert!(fr.contains("winner"));
    }
}
