//! `bytecache` — loss-robust IP-layer byte caching (data redundancy
//! elimination).
//!
//! This crate reproduces the system studied in *Byte Caching in Wireless
//! Networks* (Le, Srivatsa, Iyengar — ICDCS 2012): a pair of middleboxes
//! that eliminate redundant bytes from IP traffic using Rabin
//! fingerprints and a shared packet cache, and — the paper's
//! contribution — encoding policies that stay *correct and useful when
//! packets are lost, corrupted, or reordered*.
//!
//! # Why loss-robustness is the whole game
//!
//! The classic Spring & Wetherall encoder caches every packet it
//! forwards and encodes repeated regions as references to cached
//! packets. On a lossy path this breaks in a subtle way: a lost packet's
//! TCP retransmission looks like a *fresh IP packet* whose content is
//! already in the encoder's cache — so the encoder compresses it against
//! its own lost first transmission, the decoder (which never received
//! that packet) cannot reconstruct it, TCP retransmits again, and the
//! cycle repeats while TCP's timeouts grow exponentially. One lost
//! packet can stall the connection forever (paper §IV).
//!
//! # What's here
//!
//! * [`Encoder`] / [`Decoder`] — the DRE engine: windowed Rabin
//!   fingerprinting, fingerprint sampling, match extension, the 14-byte
//!   encoding fields, and a self-describing wire format ([`wire`]).
//!   Both sides are thin layers over one shared engine core (store +
//!   fingerprint index + cache update procedure), so the encoder and
//!   decoder cannot drift apart structurally.
//! * [`Cache`] — an arena-backed packet store plus open-addressing
//!   fingerprint index with the paper's entry-replacement semantics and
//!   FIFO eviction. Packets live in generational slots, so stale index
//!   entries are detected by a generation check instead of a hash-map
//!   lookup per fingerprint.
//! * [`policy`] — pluggable encoding policies: the unsafe [`policy::Naive`]
//!   baseline, the paper's three fixes ([`policy::CacheFlush`],
//!   [`policy::TcpSeq`], [`policy::KDistance`]), and the extensions it
//!   sketches ([`policy::AckGated`], [`policy::Adaptive`], and informed
//!   marking via decoder NACKs).
//! * [`gateway`] — drop-in middlebox nodes for the
//!   [`bytecache-netsim`](bytecache_netsim) simulator, each owning one
//!   encoder or one decoder whose cache every flow through it shares.
//!
//! # Quick start
//!
//! ```
//! use bytecache::{Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
//! use bytecache_packet::{FlowId, SeqNum};
//! use bytes::Bytes;
//! use std::net::Ipv4Addr;
//!
//! let config = DreConfig::default();
//! let mut encoder = Encoder::new(config.clone(), PolicyKind::CacheFlush.build());
//! let mut decoder = Decoder::new(config);
//!
//! let flow = FlowId {
//!     src: Ipv4Addr::new(10, 0, 0, 1), src_port: 80,
//!     dst: Ipv4Addr::new(10, 0, 0, 2), dst_port: 4000,
//! };
//! // Two packets sharing a large repeated region:
//! let block: Vec<u8> = (0..1200u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
//! let a = Bytes::from(block.clone());
//! let b = Bytes::from(block);
//!
//! let m1 = PacketMeta { flow, seq: SeqNum::new(1), payload_len: 1200, flow_index: 0 };
//! let m2 = PacketMeta { flow, seq: SeqNum::new(1201), payload_len: 1200, flow_index: 1 };
//! let w1 = encoder.encode(&m1, &a);
//! let w2 = encoder.encode(&m2, &b);
//! assert!(w2.wire.len() < b.len() / 2, "second packet compresses");
//!
//! let (r1, _) = decoder.decode(&w1.wire, &m1);
//! let (r2, _) = decoder.decode(&w2.wire, &m2);
//! assert_eq!(r1.unwrap(), a);
//! assert_eq!(r2.unwrap(), b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod migrate;
pub mod policy;
pub mod wire;

mod config;
mod decoder;
mod encoder;
mod engine;
#[cfg(test)]
mod reference;
mod stats;
mod store;

pub use config::DreConfig;
pub use decoder::{DecodeError, Decoder, Feedback};
pub use encoder::{EncodeInfo, EncodeOutcome, Encoder};
pub use migrate::{DecoderState, MigrateError, MigratedEntry};
pub use policy::{PacketMeta, Policy, PolicyKind};
pub use stats::{DecoderStats, EncoderStats};
pub use store::{Cache, CacheStats, EntryMeta, IndexOutcome, PacketId, Stored};
