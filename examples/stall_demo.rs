//! The circular-dependency stall, step by step (paper Figures 4 & 5).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p bytecache-experiments --example stall_demo
//! ```
//!
//! Replays the exact event sequence of the paper's §IV analysis — a
//! packet lost between encoder and decoder, followed by TCP
//! retransmissions — under the naive policy (which loops forever) and
//! under each of the paper's three fixes (which all recover).

use bytecache::PolicyKind;
use bytecache_experiments::{stalltrace, Campaign};

fn main() {
    let campaign = Campaign::default();
    for policy in [
        PolicyKind::Naive,
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(4),
        PolicyKind::AckGated,
    ] {
        println!("──────────────────────────────────────────────────────");
        for line in stalltrace::trace(&campaign, policy, 6).0 {
            println!("{line}");
        }
        println!();
    }
    println!("──────────────────────────────────────────────────────");
    println!(
        "Summary: under the naive policy every retransmission of the lost\n\
         segment is encoded against a packet the decoder never received —\n\
         ultimately a cached copy of itself (Figure 5's cycle) — so the\n\
         decoder can never reconstruct it and TCP backs off exponentially\n\
         until the connection dies. Each §V policy breaks the cycle."
    );
}
