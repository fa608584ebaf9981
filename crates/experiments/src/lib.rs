//! End-to-end experiment harness reproducing every table and figure of
//! *Byte Caching in Wireless Networks* (ICDCS 2012).
//!
//! The harness assembles the paper's testbed (Figure 3) in the
//! simulator:
//!
//! ```text
//! server ── clean LAN ── encoder GW ══ 1 MB/s, loss 0–20 % ══ decoder GW ── clean LAN ── client
//! ```
//!
//! and drives one HTTP-like object retrieval per run. Each paper result
//! has a module that regenerates it:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`table1`] | Table I — intrinsic redundancy of web objects vs cache window |
//! | [`fig6`] | Figure 6 — naive policy stalls at 1 % loss |
//! | [`sweep`] | Figures 10 & 11 — byte and delay ratios vs loss rate |
//! | [`kdistance`] | Figure 12 — k-distance parameter sweep |
//! | [`perceived`] | Figure 13 — perceived vs actual loss rate |
//! | [`table2`] | Table II — the three schemes at 5 % / 10 % loss |
//! | [`insights`] | §VII — packet-size/count numbers behind the analysis |
//! | [`stalltrace`] | Figures 4 & 5 — the circular-dependency event trace |
//! | [`mobility`] | §II — handoff survival at the IP layer |
//! | [`recovery`] | beyond the paper — decoder cache wipe mid-transfer: stall time and bytes sacrificed to safety |
//! | [`capacity`] | beyond the paper — 25k-flow flash crowd through a gateway bank: savings, stall and first-byte distributions, cache pressure |
//! | [`handoff`] | beyond the paper — multi-hop topologies and gateway handoff: resync vs cache migration, cache chains |
//! | [`tournament`] | beyond the paper — every retransmission-mitigation arm (TCP, DRE policies, XOR network coding) on the same channel realizations |
//!
//! Experiment grids execute on the [`campaign`] executor: deterministic
//! parallel fan-out whose output is byte-identical for every thread
//! count (the `repro` binary's `--threads` flag).
//!
//! Run them all via the `repro` binary (`cargo run -p
//! bytecache-experiments --bin repro -- all`); `EXPERIMENTS.md` in the
//! repository root records paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod capacity;
pub mod fig6;
pub mod handoff;
pub mod host;
pub mod insights;
pub mod interflow;
pub mod kdistance;
pub mod mobility;
pub mod perceived;
pub mod recovery;
pub mod report;
pub mod scenario;
pub mod stalltrace;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod tournament;
pub mod tuning;

pub use campaign::Campaign;
pub use scenario::{run_scenario, PassThrough, RunResult, ScenarioConfig};
