//! Unidirectional links: serialization rate, propagation delay, and a
//! channel impairment model.

use rand::rngs::StdRng;

use crate::channel::{Channel, ChannelConfig, LossModel, Verdict};
use crate::stats::LinkStats;
use crate::time::{SimDuration, SimTime};

/// Identifier of a link within one [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for LinkId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Configuration of one unidirectional link.
///
/// A link serializes packets FIFO at `rate_bytes_per_sec` (the paper's
/// 1 MB/s traffic shaper), then delivers after `propagation` plus any
/// reordering delay the channel adds. `rate_bytes_per_sec = None` models
/// an uncongested wire (zero serialization time).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Serialization rate; `None` = infinite.
    pub rate_bytes_per_sec: Option<u64>,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Impairments applied to packets traversing the link.
    pub channel: ChannelConfig,
}

impl Default for LinkConfig {
    /// An ideal link: infinite rate, 1 ms propagation, clean channel.
    fn default() -> Self {
        LinkConfig {
            rate_bytes_per_sec: None,
            propagation: SimDuration::from_millis(1),
            channel: ChannelConfig::clean(),
        }
    }
}

impl LinkConfig {
    /// The paper's wireless segment: `rate` bytes/s, `propagation`
    /// one-way delay, Bernoulli loss at `loss_rate`.
    #[must_use]
    pub fn wireless(rate: u64, propagation: SimDuration, loss_rate: f64) -> Self {
        LinkConfig {
            rate_bytes_per_sec: Some(rate),
            propagation,
            channel: ChannelConfig::lossy(loss_rate),
        }
    }

    /// Time to serialize `bytes` onto this link.
    #[must_use]
    pub fn serialization_time(&self, bytes: usize) -> SimDuration {
        serialization_time(self.rate_bytes_per_sec, bytes)
    }
}

/// `bytes × 1e6 / rate` µs, rounded up: on a finite-rate link every
/// nonempty packet takes at least 1 µs and an empty one takes 0.
fn serialization_time(rate_bytes_per_sec: Option<u64>, bytes: usize) -> SimDuration {
    match rate_bytes_per_sec {
        None => SimDuration::ZERO,
        Some(rate) => SimDuration::from_micros((bytes as u64 * 1_000_000).div_ceil(rate.max(1))),
    }
}

/// Whether a channel with this configuration delivers every packet
/// untouched without ever drawing from the RNG, so a link may skip it.
///
/// [`Channel::verdict`] on such a config: `remaining_burst` starts at 0
/// and is set only by a reorder verdict, which `reorder_rate > 0.0`
/// gates, so the burst branch never runs. Loss `None` returns "kept"
/// without a draw, and Bernoulli's `rate > 0.0 &&` short-circuits before
/// its `gen_bool`. The corruption, reorder and duplicate draws are each
/// gated on their rate being `> 0.0`. So `verdict` returns
/// [`Verdict::Deliver`] and touches nothing: skipping it leaves the RNG
/// stream, and with it every other link's verdicts, as they were.
/// Gilbert–Elliott draws its state transition on every packet, even at
/// zero probabilities, so it is never clean.
fn is_clean(channel: &ChannelConfig) -> bool {
    let lossless = match channel.loss {
        LossModel::None => true,
        LossModel::Bernoulli { rate } => rate == 0.0,
        LossModel::GilbertElliott { .. } => false,
    };
    lossless
        && channel.corruption_rate == 0.0
        && channel.reorder_rate == 0.0
        && channel.duplicate_rate == 0.0
}

/// Outcome of pushing one packet through a link's shaper + channel; the
/// event loop wraps it with telemetry/trace emission and scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxVerdict {
    /// Channel dropped the packet.
    Lost,
    /// Channel corrupted the packet beyond use.
    Corrupted,
    /// Packet arrives at `arrive`.
    Deliver { arrive: SimTime },
    /// Packet arrives late (reordered) at `arrive`.
    Reorder { arrive: SimTime },
    /// Packet arrives at `arrive` and a duplicate copy at `copy`
    /// (the copy is scheduled *first*, the historical insertion order).
    Duplicate { arrive: SimTime, copy: SimTime },
}

/// Runtime state of a link: what [`transmit`](Self::transmit) reads.
#[derive(Debug)]
pub(crate) struct LinkState {
    /// Time at which the transmitter finishes its current backlog.
    busy_until: SimTime,
    rate_bytes_per_sec: Option<u64>,
    propagation: SimDuration,
    pub(crate) stats: LinkStats,
    /// The channel, or `None` when its configuration is clean (see
    /// [`is_clean`]): most links of a crowd are.
    channel: Option<Box<Channel>>,
}

impl LinkState {
    /// # Panics
    ///
    /// Panics if [`ChannelConfig::validate`] rejects the channel, clean
    /// or not.
    pub(crate) fn new(config: LinkConfig) -> Self {
        let clean = is_clean(&config.channel);
        let channel = Channel::new(config.channel);
        LinkState {
            busy_until: SimTime::ZERO,
            rate_bytes_per_sec: config.rate_bytes_per_sec,
            propagation: config.propagation,
            stats: LinkStats::default(),
            channel: (!clean).then(|| Box::new(channel)),
        }
    }

    /// Push one packet of `wire` serialized bytes through the shaper
    /// and channel at `now`, updating `busy_until` and stats and drawing
    /// the channel's decision from `rng` (the simulator's one stream).
    pub(crate) fn transmit(&mut self, now: SimTime, wire: usize, rng: &mut StdRng) -> TxVerdict {
        self.stats.packets_offered += 1;
        self.stats.bytes_offered += wire as u64;

        let depart = now.max(self.busy_until);
        let done = depart + serialization_time(self.rate_bytes_per_sec, wire);
        self.busy_until = done;

        let verdict = match &mut self.channel {
            Some(channel) => channel.verdict(rng),
            None => Verdict::Deliver,
        };
        match verdict {
            Verdict::Lose => {
                self.stats.packets_lost += 1;
                TxVerdict::Lost
            }
            Verdict::Corrupt => {
                self.stats.packets_corrupted += 1;
                TxVerdict::Corrupted
            }
            Verdict::Deliver => {
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += wire as u64;
                TxVerdict::Deliver {
                    arrive: done + self.propagation,
                }
            }
            Verdict::Reorder(extra) => {
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += wire as u64;
                self.stats.packets_reordered += 1;
                TxVerdict::Reorder {
                    arrive: done + self.propagation + extra,
                }
            }
            Verdict::Duplicate(extra) => {
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += wire as u64;
                self.stats.packets_duplicated += 1;
                let arrive = done + self.propagation;
                TxVerdict::Duplicate {
                    arrive,
                    copy: arrive + extra,
                }
            }
        }
    }
}

/// The links of one simulator, indexed by [`LinkId`], kept in chunks of
/// [`LinkTable::CHUNK`].
///
/// A link's state is a few hundred bytes and a crowd simulation has two
/// per host, so one `Vec` of them reaches tens of MiB by doubling: each
/// step needs the old and the new buffer at once and a contiguous hole
/// the size of the new one, and whether the allocator has that hole
/// depends on everything allocated before. Chunks keep every request
/// below half a MiB, so what a simulation adds to the process's peak
/// memory follows its size and not the shape of the heap it was built
/// on.
#[derive(Debug, Default)]
pub(crate) struct LinkTable {
    /// All full but the last.
    chunks: Vec<Vec<LinkState>>,
}

impl LinkTable {
    const CHUNK: usize = 1024;

    pub(crate) fn len(&self) -> usize {
        match self.chunks.split_last() {
            Some((last, full)) => full.len() * Self::CHUNK + last.len(),
            None => 0,
        }
    }

    pub(crate) fn push(&mut self, link: LinkState) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < Self::CHUNK => last.push(link),
            _ => self.chunks.push(vec![link]),
        }
    }
}

impl std::ops::Index<usize> for LinkTable {
    type Output = LinkState;

    #[inline]
    fn index(&self, id: usize) -> &LinkState {
        &self.chunks[id / Self::CHUNK][id % Self::CHUNK]
    }
}

impl std::ops::IndexMut<usize> for LinkTable {
    #[inline]
    fn index_mut(&mut self, id: usize) -> &mut LinkState {
        &mut self.chunks[id / Self::CHUNK][id % Self::CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_matches_rate() {
        let cfg = LinkConfig {
            rate_bytes_per_sec: Some(1_000_000),
            ..LinkConfig::default()
        };
        // 1500 bytes at 1 MB/s = 1500 µs.
        assert_eq!(cfg.serialization_time(1500).as_micros(), 1500);
        assert_eq!(cfg.serialization_time(0).as_micros(), 0);
        // Rounds up.
        let slow = LinkConfig {
            rate_bytes_per_sec: Some(3_000_000),
            ..LinkConfig::default()
        };
        assert_eq!(slow.serialization_time(1).as_micros(), 1);
    }

    #[test]
    fn infinite_rate_serializes_instantly() {
        let cfg = LinkConfig::default();
        assert_eq!(cfg.serialization_time(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn wireless_constructor() {
        let cfg = LinkConfig::wireless(1_000_000, SimDuration::from_millis(10), 0.05);
        assert_eq!(cfg.rate_bytes_per_sec, Some(1_000_000));
        assert_eq!(cfg.propagation.as_micros(), 10_000);
        assert!(matches!(
            cfg.channel.loss,
            crate::channel::LossModel::Bernoulli { rate } if rate == 0.05
        ));
    }

    #[test]
    fn only_impairing_channels_are_kept() {
        let channel = |channel: ChannelConfig| {
            LinkState::new(LinkConfig {
                channel,
                ..LinkConfig::default()
            })
            .channel
            .is_some()
        };
        assert!(!channel(ChannelConfig::clean()));
        assert!(!channel(ChannelConfig::lossy(0.0)));
        assert!(!channel(ChannelConfig {
            loss: LossModel::Bernoulli { rate: 0.0 },
            reorder_burst_len: 4,
            ..ChannelConfig::clean()
        }));
        assert!(channel(ChannelConfig::lossy(0.01)));
        assert!(channel(ChannelConfig {
            duplicate_rate: 0.01,
            ..ChannelConfig::clean()
        }));
        // Zero-probability Gilbert–Elliott still draws per packet.
        assert!(channel(ChannelConfig {
            loss: LossModel::GilbertElliott {
                good_loss: 0.0,
                bad_loss: 0.0,
                p_good_to_bad: 0.0,
                p_bad_to_good: 0.0,
            },
            ..ChannelConfig::clean()
        }));
    }

    #[test]
    #[should_panic(expected = "invalid ChannelConfig")]
    fn clean_links_still_validate_their_channel() {
        let _ = LinkState::new(LinkConfig {
            channel: ChannelConfig {
                reorder_burst_len: 0,
                ..ChannelConfig::clean()
            },
            ..LinkConfig::default()
        });
    }

    /// A clean link draws nothing: the stream after many transmits is
    /// the stream of a fresh RNG.
    #[test]
    fn clean_link_leaves_the_rng_alone() {
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut link = LinkState::new(LinkConfig::default());
        for i in 0..100 {
            let verdict = link.transmit(SimTime::from_micros(i), 100, &mut rng);
            assert!(matches!(verdict, TxVerdict::Deliver { .. }));
        }
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(9).gen::<u64>());
    }

    #[test]
    fn link_table_indexes_across_chunks() {
        let n = 2 * LinkTable::CHUNK + 3;
        let link = |i: usize| {
            let mut l = LinkState::new(LinkConfig::default());
            l.stats.packets_offered = i as u64;
            l
        };
        let mut table = LinkTable::default();
        assert_eq!(table.len(), 0);
        for i in 0..n {
            assert_eq!(table.len(), i);
            table.push(link(i));
        }
        assert_eq!(table.len(), n);
        for i in [0, 1, LinkTable::CHUNK - 1, LinkTable::CHUNK, n - 1] {
            assert_eq!(table[i].stats.packets_offered, i as u64);
            table[i].stats.packets_lost = 1;
        }
        assert!((0..n).all(|i| table[i].stats.packets_offered == i as u64));
        assert_eq!(table[LinkTable::CHUNK].stats.packets_lost, 1);
    }
}
