//! The layers' own public counters, flattened into one struct so a run
//! can add them across gateways and downloads, take a difference around
//! a timed section, and compare two runs for exact equality.

use bytecache::gateway::{DecoderGateway, EncoderGateway};
use bytecache_netsim::LinkStats;
use bytecache_tcp::{DownloadReport, ServerReport};

macro_rules! layer_counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Work done, as counted by the layers themselves.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct LayerCounts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl LayerCounts {
            /// Add another set of counters into this one.
            pub fn add(&mut self, other: &LayerCounts) {
                $(self.$field += other.$field;)*
            }

            /// Counters accumulated since `earlier` was read.
            #[must_use]
            pub fn since(&self, earlier: &LayerCounts) -> LayerCounts {
                LayerCounts { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

layer_counts! {
    /// `EncoderStats::packets`.
    enc_packets,
    /// `EncoderStats::bytes_in`.
    enc_bytes_in,
    /// `EncoderStats::bytes_out`.
    enc_bytes_out,
    /// `EncoderStats::encoded_packets`.
    enc_encoded_packets,
    /// `EncoderStats::matches`.
    enc_matches,
    /// `EncoderStats::matched_bytes`.
    enc_matched_bytes,
    /// `EncoderStats::flushes`.
    enc_flushes,
    /// `EncoderStats::scan_windows`.
    enc_scan_windows,
    /// `EncoderStats::sampled_windows`.
    enc_sampled_windows,
    /// `EncoderStats::index_insertions`.
    enc_index_insertions,
    /// Encoder-side `CacheStats::inserts`.
    store_inserts,
    /// Encoder-side `CacheStats::evictions`.
    store_evictions,
    /// Encoder-side `CacheStats::replacements`.
    store_replacements,
    /// `DecoderStats::packets`.
    dec_packets,
    /// `DecoderStats::decoded`.
    dec_decoded,
    /// `DecoderStats::raw`.
    dec_raw,
    /// `DecoderStats::undecodable()`.
    dec_undecodable,
    /// `DecoderStats::checksum_mismatch`.
    dec_checksum_mismatch,
    /// `DecoderGateway::dropped`.
    gw_decoder_dropped,
    /// `DecoderGateway::nacks_sent`.
    gw_nacks_sent,
    /// `ServerReport::segments_sent`.
    tcp_segments_sent,
    /// `ServerReport::retransmissions`.
    tcp_retransmissions,
    /// `ServerReport::timeouts`.
    tcp_timeouts,
    /// `ServerReport::fast_retransmits`.
    tcp_fast_retransmits,
    /// `DownloadReport::dup_acks_sent`.
    tcp_dup_acks,
    /// `LinkStats::packets_offered` on the encoder→decoder hop.
    link_packets_offered,
    /// `LinkStats::bytes_offered` on the encoder→decoder hop.
    link_bytes_offered,
    /// `LinkStats::packets_lost` on the encoder→decoder hop.
    link_packets_lost,
    /// `LinkStats::packets_corrupted` on the encoder→decoder hop.
    link_packets_corrupted,
    /// `Simulator::events_processed`.
    sim_events,
    /// Pushes and pops of the recorded event-queue schedule.
    wheel_schedule_ops,
}

impl LayerCounts {
    /// Add one gateway pair's encoder, cache and decoder counters.
    pub fn add_gateways(&mut self, enc: &EncoderGateway, dec: &DecoderGateway) {
        let e = enc.stats();
        self.enc_packets += e.packets;
        self.enc_bytes_in += e.bytes_in;
        self.enc_bytes_out += e.bytes_out;
        self.enc_encoded_packets += e.encoded_packets;
        self.enc_matches += e.matches;
        self.enc_matched_bytes += e.matched_bytes;
        self.enc_flushes += e.flushes;
        self.enc_scan_windows += e.scan_windows;
        self.enc_sampled_windows += e.sampled_windows;
        self.enc_index_insertions += e.index_insertions;
        let c = enc.encoder().cache().stats();
        self.store_inserts += c.inserts;
        self.store_evictions += c.evictions;
        self.store_replacements += c.replacements;
        let d = dec.stats();
        self.dec_packets += d.packets;
        self.dec_decoded += d.decoded;
        self.dec_raw += d.raw;
        self.dec_undecodable += d.undecodable();
        self.dec_checksum_mismatch += d.checksum_mismatch;
        self.gw_decoder_dropped += dec.dropped();
        self.gw_nacks_sent += dec.nacks_sent();
    }

    /// Add one connection's endpoint reports.
    pub fn add_tcp(&mut self, server: &ServerReport, client: &DownloadReport) {
        self.tcp_segments_sent += server.segments_sent;
        self.tcp_retransmissions += server.retransmissions;
        self.tcp_timeouts += server.timeouts;
        self.tcp_fast_retransmits += server.fast_retransmits;
        self.tcp_dup_acks += client.dup_acks_sent;
    }

    /// Add one encoder→decoder link's counters.
    pub fn add_link(&mut self, link: &LinkStats) {
        self.link_packets_offered += link.packets_offered;
        self.link_bytes_offered += link.bytes_offered;
        self.link_packets_lost += link.packets_lost;
        self.link_packets_corrupted += link.packets_corrupted;
    }
}

/// `num / den`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The count-type per-layer metrics the layers' public stats give, and
/// the ratios derived from them. (`wheel.schedule_ops` and
/// `gateway.batch_samples` need a traced run's recordings.)
#[must_use]
pub fn count_metrics(c: &LayerCounts) -> Vec<(&'static str, f64)> {
    let f = |v: u64| v as f64;
    vec![
        (
            "rabin.sampled_frac",
            ratio(f(c.enc_sampled_windows), f(c.enc_scan_windows)),
        ),
        ("encoder.packets", f(c.enc_packets)),
        ("encoder.bytes_in", f(c.enc_bytes_in)),
        ("encoder.bytes_out", f(c.enc_bytes_out)),
        ("encoder.encoded_packets", f(c.enc_encoded_packets)),
        ("encoder.matches", f(c.enc_matches)),
        ("encoder.matched_bytes", f(c.enc_matched_bytes)),
        ("encoder.flushes", f(c.enc_flushes)),
        (
            "encoder.windows_per_byte",
            ratio(f(c.enc_scan_windows), f(c.enc_bytes_in)),
        ),
        (
            "encoder.match_yield",
            ratio(f(c.enc_matches), f(c.enc_sampled_windows)),
        ),
        ("encoder.index_insertions", f(c.enc_index_insertions)),
        ("store.inserts", f(c.store_inserts)),
        ("store.evictions", f(c.store_evictions)),
        ("store.replacements", f(c.store_replacements)),
        // Shim bytes that are not literal payload: headers and match tokens.
        (
            "wire.shim_bytes_per_pkt",
            ratio(
                f(c.enc_bytes_out) - (f(c.enc_bytes_in) - f(c.enc_matched_bytes)),
                f(c.enc_packets),
            ),
        ),
        ("decoder.packets", f(c.dec_packets)),
        ("decoder.decoded", f(c.dec_decoded)),
        ("decoder.raw", f(c.dec_raw)),
        ("decoder.undecodable", f(c.dec_undecodable)),
        ("decoder.checksum_mismatch", f(c.dec_checksum_mismatch)),
        ("gateway.decoder_dropped", f(c.gw_decoder_dropped)),
        ("gateway.nacks_sent", f(c.gw_nacks_sent)),
        ("tcp.segments_sent", f(c.tcp_segments_sent)),
        ("tcp.retransmissions", f(c.tcp_retransmissions)),
        ("tcp.timeouts", f(c.tcp_timeouts)),
        ("tcp.fast_retransmits", f(c.tcp_fast_retransmits)),
        ("tcp.dup_acks", f(c.tcp_dup_acks)),
        ("sim.events", f(c.sim_events)),
        ("link.packets_offered", f(c.link_packets_offered)),
        ("link.bytes_offered", f(c.link_bytes_offered)),
        ("link.packets_lost", f(c.link_packets_lost)),
        // The paper's perceived loss: what TCP sees go missing on the hop.
        (
            "link.perceived_loss",
            ratio(
                f(c.link_packets_lost + c.link_packets_corrupted + c.dec_undecodable),
                f(c.link_packets_offered),
            ),
        ),
        // Both gateway loops are closed, and the simulated arrivals are
        // scheduled in simulated time: no generator here can run late.
        ("gen.lateness_frac", 0.0),
    ]
}
