//! End-to-end TCP transfer tests over impaired simulated links.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytecache_netsim::channel::{ChannelConfig, LossModel};
use bytecache_netsim::time::{SimDuration, SimTime};
use bytecache_netsim::{FnTrace, LinkConfig, Simulator, TraceEvent};
use bytecache_tcp::{DownloadReport, ServerReport, TcpClientNode, TcpConfig, TcpServerNode};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn object(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes()[0])
        .collect()
}

struct Outcome {
    client: DownloadReport,
    server: ServerReport,
    received: Vec<u8>,
    end: SimTime,
    /// Events the simulator dispatched, and how many were deliveries:
    /// the rest are timers that fired.
    events: u64,
    deliveries: u64,
}

/// Run one transfer: the data direction (server → client) gets
/// `data_channel`; the ACK direction is clean. Link: 1 MB/s, 10 ms one-way.
fn run(obj: &[u8], data_channel: ChannelConfig, seed: u64, cfg: TcpConfig) -> Outcome {
    let mut sim = Simulator::new(seed);
    let server = sim.add_node(TcpServerNode::new(SERVER_IP, 80, obj.to_vec(), cfg.clone()));
    let client = sim.add_node(TcpClientNode::new(CLIENT_IP, 40_000, SERVER_IP, 80, cfg));
    sim.add_link(
        server,
        client,
        LinkConfig {
            rate_bytes_per_sec: Some(1_000_000),
            propagation: SimDuration::from_millis(10),
            channel: data_channel,
        },
    );
    sim.add_link(
        client,
        server,
        LinkConfig {
            rate_bytes_per_sec: Some(1_000_000),
            propagation: SimDuration::from_millis(10),
            channel: ChannelConfig::clean(),
        },
    );
    sim.add_route(server, CLIENT_IP, client);
    sim.add_route(client, SERVER_IP, server);
    let deliveries = Rc::new(Cell::new(0));
    let counter = Rc::clone(&deliveries);
    sim.set_trace(Box::new(FnTrace(move |ev: &TraceEvent<'_>| {
        if let TraceEvent::Deliver { .. } = ev {
            counter.set(counter.get() + 1);
        }
    })));
    let end = sim.run_until_idle();
    Outcome {
        client: sim.node::<TcpClientNode>(client).unwrap().report().clone(),
        server: sim.node::<TcpServerNode>(server).unwrap().report().clone(),
        received: sim
            .node::<TcpClientNode>(client)
            .unwrap()
            .received()
            .to_vec(),
        end,
        events: sim.events_processed(),
        deliveries: deliveries.get(),
    }
}

#[test]
fn clean_transfer_delivers_object_intact() {
    let obj = object(200_000);
    let o = run(&obj, ChannelConfig::clean(), 1, TcpConfig::default());
    assert!(o.client.complete, "transfer did not complete");
    assert!(o.server.finished);
    assert_eq!(o.received, obj);
    assert_eq!(o.server.retransmissions, 0);
    assert_eq!(o.client.dup_acks_sent, 0);
}

#[test]
fn clean_transfer_time_is_bounded_by_line_rate_and_sane() {
    let obj = object(500_000);
    let o = run(&obj, ChannelConfig::clean(), 1, TcpConfig::default());
    let dur = o.client.duration().expect("completed").as_secs_f64();
    // Line-rate floor: 500 KB (plus headers) at 1 MB/s is ≥ 0.5 s.
    assert!(dur > 0.5, "faster than the wire: {dur}");
    // With slow start from 2 MSS and 20 ms RTT this finishes well within a
    // few seconds.
    assert!(dur < 3.0, "implausibly slow on a clean link: {dur}");
}

#[test]
fn small_object_single_segment() {
    let obj = object(100);
    let o = run(&obj, ChannelConfig::clean(), 2, TcpConfig::default());
    assert!(o.client.complete);
    assert_eq!(o.received, obj);
}

#[test]
fn empty_object_completes() {
    let o = run(&[], ChannelConfig::clean(), 3, TcpConfig::default());
    assert!(o.client.complete);
    assert!(o.received.is_empty());
}

#[test]
fn lossy_transfer_completes_with_intact_data() {
    let obj = object(300_000);
    for seed in [1, 2, 3] {
        let o = run(&obj, ChannelConfig::lossy(0.02), seed, TcpConfig::default());
        assert!(o.client.complete, "seed {seed} did not complete");
        assert_eq!(o.received, obj, "seed {seed} corrupted data");
        assert!(o.server.retransmissions > 0, "seed {seed} saw no loss?");
    }
}

#[test]
fn loss_slows_the_transfer_down() {
    let obj = object(300_000);
    let clean = run(&obj, ChannelConfig::clean(), 5, TcpConfig::default());
    let lossy = run(&obj, ChannelConfig::lossy(0.05), 5, TcpConfig::default());
    assert!(lossy.client.complete);
    let t0 = clean.client.duration().unwrap().as_secs_f64();
    let t1 = lossy.client.duration().unwrap().as_secs_f64();
    assert!(t1 > t0 * 1.2, "5% loss barely hurt: {t0} vs {t1}");
}

#[test]
fn max_stall_tracks_in_order_progress_gaps() {
    let obj = object(300_000);
    let clean = run(&obj, ChannelConfig::clean(), 5, TcpConfig::default());
    let lossy = run(&obj, ChannelConfig::lossy(0.05), 5, TcpConfig::default());
    // Any multi-packet transfer reports a stall measure.
    let clean_stall = clean.client.max_stall.expect("clean run has a stall");
    let lossy_stall = lossy.client.max_stall.expect("lossy run has a stall");
    // A clean back-to-back stream never stalls longer than the duration;
    // recovering a loss (RTO or fast retransmit) dominates clean pacing.
    assert!(clean_stall <= clean.client.duration().unwrap());
    assert!(
        lossy_stall > clean_stall,
        "loss did not raise max stall: {clean_stall:?} vs {lossy_stall:?}"
    );
}

#[test]
fn fast_retransmit_fires_under_mild_loss() {
    let obj = object(400_000);
    let o = run(&obj, ChannelConfig::lossy(0.02), 7, TcpConfig::default());
    assert!(o.client.complete);
    assert!(
        o.server.fast_retransmits > 0,
        "expected some triple-dup-ack recoveries: {:?}",
        o.server
    );
    assert!(o.client.dup_acks_sent > 0);
}

#[test]
fn heavy_loss_never_corrupts_delivered_prefix() {
    let obj = object(100_000);
    for seed in 1..8 {
        let o = run(&obj, ChannelConfig::lossy(0.30), seed, TcpConfig::default());
        // Whether or not it completed, whatever was delivered must be a
        // prefix of the object.
        assert!(
            obj.starts_with(&o.received),
            "seed {seed}: delivered bytes are not a prefix"
        );
    }
}

#[test]
fn reordering_is_tolerated() {
    let obj = object(200_000);
    let channel = ChannelConfig {
        reorder_rate: 0.1,
        reorder_window: SimDuration::from_millis(15),
        ..ChannelConfig::clean()
    };
    let o = run(&obj, channel, 11, TcpConfig::default());
    assert!(o.client.complete);
    assert_eq!(o.received, obj);
}

#[test]
fn corruption_is_recovered_like_loss() {
    let obj = object(200_000);
    let channel = ChannelConfig {
        corruption_rate: 0.03,
        ..ChannelConfig::clean()
    };
    let o = run(&obj, channel, 13, TcpConfig::default());
    assert!(o.client.complete);
    assert_eq!(o.received, obj);
    assert!(o.server.retransmissions > 0);
}

#[test]
fn bursty_loss_is_survivable() {
    let obj = object(200_000);
    let channel = ChannelConfig {
        loss: LossModel::bursty(0.05, 4.0),
        ..ChannelConfig::clean()
    };
    let o = run(&obj, channel, 17, TcpConfig::default());
    assert!(o.client.complete);
    assert_eq!(o.received, obj);
}

#[test]
fn identical_seeds_identical_outcomes() {
    let obj = object(150_000);
    let a = run(&obj, ChannelConfig::lossy(0.05), 42, TcpConfig::default());
    let b = run(&obj, ChannelConfig::lossy(0.05), 42, TcpConfig::default());
    assert_eq!(a.client.duration(), b.client.duration());
    assert_eq!(a.server.retransmissions, b.server.retransmissions);
    assert_eq!(a.end, b.end);
}

#[test]
fn total_blackout_aborts_with_partial_data() {
    let obj = object(100_000);
    // 100% loss after the handshake is impossible to configure per-phase
    // here, so use full blackout: the client aborts its SYN retries.
    let o = run(&obj, ChannelConfig::lossy(1.0), 19, TcpConfig::default());
    assert!(!o.client.complete);
    assert!(o.client.aborted || o.server.aborted);
    assert!(o.received.is_empty());
    // Abort happened after bounded backoff, not immediately.
    assert!(o.end.as_secs_f64() > 10.0);
}

#[test]
fn rtt_estimator_keeps_timeouts_rare_on_clean_link() {
    let obj = object(400_000);
    let o = run(&obj, ChannelConfig::clean(), 23, TcpConfig::default());
    assert_eq!(
        o.server.timeouts, 0,
        "no loss should mean no RTO: {:?}",
        o.server
    );
}

#[test]
fn retransmissions_scale_with_loss_rate() {
    let obj = object(300_000);
    let r2 = run(&obj, ChannelConfig::lossy(0.02), 31, TcpConfig::default());
    let r8 = run(&obj, ChannelConfig::lossy(0.08), 31, TcpConfig::default());
    assert!(r8.server.retransmissions > r2.server.retransmissions);
}

/// Every retransmission timer a clean download arms is cancelled before
/// it is due, so none is ever dispatched; the run still ends at the last
/// cancelled deadline (1.030184 s), where it ended when stale timers
/// fired and were ignored. Reports as they were before cancelling.
#[test]
fn lossless_download_leaves_no_pending_timer() {
    let obj = object(200_000);
    let o = run(&obj, ChannelConfig::clean(), 1, TcpConfig::default());
    assert_eq!(o.received, obj);
    assert_eq!(o.events, o.deliveries, "a timer was dispatched");
    assert_eq!(o.deliveries, 280);
    assert_eq!(o.end.as_micros(), 1_030_184);
    assert_eq!(
        format!("{:?}", o.client),
        "DownloadReport { started_at: Some(SimTime(0)), first_byte_at: Some(SimTime(41724)), \
         completed_at: Some(SimTime(289364)), bytes_delivered: 200000, \
         data_packets_received: 137, dup_acks_sent: 0, complete: true, \
         max_stall: Some(SimDuration(20040)), aborted: false }"
    );
    assert_eq!(
        format!("{:?}", o.server),
        "ServerReport { segments_sent: 138, retransmissions: 0, timeouts: 0, \
         fast_retransmits: 0, aborted: false, finished: true }"
    );
}

/// At 10 % loss the RTO still fires: the dispatched timers are exactly
/// the live ones (eight server timeouts, two client handshake retries),
/// and the reports and end time are as they were before cancelling.
#[test]
fn lossy_download_still_retransmits_on_rto() {
    let obj = object(100_000);
    let o = run(&obj, ChannelConfig::lossy(0.1), 3, TcpConfig::default());
    assert_eq!(o.received, obj);
    assert_eq!(o.server.timeouts, 8);
    assert_eq!(o.events - o.deliveries, 10);
    assert_eq!(o.end.as_micros(), 3_508_536);
    assert_eq!(
        format!("{:?}", o.client),
        "DownloadReport { started_at: Some(SimTime(0)), first_byte_at: Some(SimTime(1041724)), \
         completed_at: Some(SimTime(3320036)), bytes_delivered: 100000, \
         data_packets_received: 69, dup_acks_sent: 24, complete: true, \
         max_stall: Some(SimDuration(221552)), aborted: false }"
    );
    assert_eq!(
        format!("{:?}", o.server),
        "ServerReport { segments_sent: 82, retransmissions: 12, timeouts: 8, \
         fast_retransmits: 5, aborted: false, finished: true }"
    );
}
