//! Property-based tests on the core data structures and invariants, via
//! the public APIs of the workspace crates.

use ccsim::net::packet::{SackBlock, SackBlocks};
use ccsim::sim::{Bandwidth, SimDuration, SimTime};
use ccsim::tcp::rate::RateEstimator;
use ccsim::tcp::rate::TxRecord;
use ccsim::tcp::rtt::RttEstimator;
use ccsim::tcp::scoreboard::Scoreboard;
use proptest::prelude::*;

#[path = "support/scoreboard_oracle.rs"]
mod oracle;

const MSS: u64 = 1000;

/// The indexed scoreboard and the linear-scan oracle, driven in lock-step.
struct Boards {
    indexed: Scoreboard,
    oracle: oracle::Scoreboard,
    /// Start of every segment ever sent, plus `snd_nxt`: the sequences an
    /// ACK or a SACK block edge may land on.
    bounds: Vec<u64>,
    /// Blocks of earlier ACKs, to be repeated as dup-ACKs repeat them.
    past_blocks: Vec<SackBlock>,
    sent: u64,
}

impl Boards {
    fn new() -> Boards {
        Boards {
            indexed: Scoreboard::new(MSS as u32),
            oracle: oracle::Scoreboard::new(MSS as u32),
            bounds: vec![0],
            past_blocks: Vec::new(),
            sent: 0,
        }
    }

    fn tx(&mut self, now: SimTime, r: u64) -> TxRecord {
        self.sent += 1;
        TxRecord {
            sent_time: now,
            delivered: self.sent,
            delivered_time: SimTime::from_nanos(r % 1000),
            first_tx_time: SimTime::from_nanos(r % 777),
            app_limited: r & 3 == 0,
        }
    }

    fn send(&mut self, len: u64, now: SimTime, r: u64) {
        let tx = self.tx(now, r);
        self.indexed.on_send_new(len, tx);
        self.oracle.on_send_new(len, tx);
        self.bounds.push(self.indexed.snd_nxt());
    }

    /// Segment boundaries still outstanding: `snd_una ..= snd_nxt`.
    fn live_bounds(&self) -> &[u64] {
        let una = self.indexed.snd_una();
        &self.bounds[self.bounds.partition_point(|&b| b < una)..]
    }

    fn ack(&mut self, now: SimTime, ack_seq: u64, sack: &SackBlocks) {
        let a = self.indexed.process_ack(now, ack_seq, sack);
        let b = self.oracle.process_ack(now, ack_seq, sack);
        assert_eq!(
            (
                a.newly_acked,
                a.newly_sacked,
                a.snd_una_advanced,
                a.rtt_sample,
                a.latest_tx
            ),
            (
                b.newly_acked,
                b.newly_sacked,
                b.snd_una_advanced,
                b.rtt_sample,
                b.latest_tx
            ),
            "AckResult of ack {ack_seq} {:?}",
            sack.as_slice()
        );
        self.past_blocks.extend_from_slice(sack.as_slice());
    }

    fn retransmit_one(&mut self, now: SimTime, r: u64) -> bool {
        let next = self.indexed.next_lost_below(u64::MAX);
        assert_eq!(next, self.oracle.next_lost_below(u64::MAX));
        let Some((seq, _)) = next else { return false };
        let tx = self.tx(now, r);
        self.indexed.mark_retransmitted(seq, tx);
        self.oracle.mark_retransmitted(seq, tx);
        true
    }

    fn saved(&self) -> (Vec<u8>, Vec<u8>) {
        let mut a = ccsim::sim::SnapWriter::new();
        let mut b = ccsim::sim::SnapWriter::new();
        self.indexed.save_state(&mut a);
        self.oracle.save_state(&mut b);
        (a.into_bytes(), b.into_bytes())
    }

    fn assert_same(&self, limit: u64) {
        let (a, b) = (&self.indexed, &self.oracle);
        assert_eq!(
            (
                a.snd_una(),
                a.snd_nxt(),
                a.len(),
                a.in_flight(),
                a.sacked_bytes(),
                a.lost_bytes()
            ),
            (
                b.snd_una(),
                b.snd_nxt(),
                b.len(),
                b.in_flight(),
                b.sacked_bytes(),
                b.lost_bytes()
            )
        );
        assert_eq!(a.next_lost_below(u64::MAX), b.next_lost_below(u64::MAX));
        assert_eq!(a.next_lost_below(limit), b.next_lost_below(limit));
        let (saved_a, saved_b) = self.saved();
        assert_eq!(saved_a, saved_b, "checkpoint bytes differ");
    }
}

proptest! {
    /// Serialization time is monotone in frame size and inversely monotone
    /// in rate, and bytes_in ∘ serialization_time round-trips within one
    /// byte-time.
    #[test]
    fn bandwidth_serialization_monotone(
        bps in 1_000u64..100_000_000_000,
        a in 1u64..100_000,
        b in 1u64..100_000,
    ) {
        let bw = Bandwidth::from_bps(bps);
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(bw.serialization_time(small) <= bw.serialization_time(large));
        // Round trip: transmitting for the serialization time of n bytes
        // moves at least n-1 and at most n bytes (ceil rounding).
        let t = bw.serialization_time(large);
        let moved = bw.bytes_in(t);
        prop_assert!(moved >= large.saturating_sub(1));
        prop_assert!(moved <= large + bps / 8 / 1_000_000_000 + 1);
    }

    /// SimTime/SimDuration arithmetic associates with saturation.
    #[test]
    fn time_arithmetic_is_consistent(
        base_ns in 0u64..1u64 << 40,
        d1 in 0u64..1u64 << 30,
        d2 in 0u64..1u64 << 30,
    ) {
        let t = SimTime::from_nanos(base_ns);
        let a = SimDuration::from_nanos(d1);
        let b = SimDuration::from_nanos(d2);
        prop_assert_eq!((t + a) + b, (t + b) + a);
        prop_assert_eq!((t + a) - t, a);
        prop_assert_eq!(t.saturating_since(t + a), SimDuration::ZERO);
        prop_assert_eq!((t + a).saturating_since(t), a);
    }

    /// The RTT estimator's RTO never falls below the configured floor and
    /// SRTT stays within the sample envelope.
    #[test]
    fn rtt_estimator_stays_bounded(samples in prop::collection::vec(1u64..500, 1..100)) {
        let mut e = RttEstimator::default();
        let mut lo = u64::MAX;
        let mut hi = 0;
        for &ms in &samples {
            lo = lo.min(ms);
            hi = hi.max(ms);
            e.on_sample(SimDuration::from_millis(ms));
        }
        let srtt_ms = e.srtt().as_nanos() / 1_000_000;
        prop_assert!(srtt_ms >= lo.saturating_sub(1), "srtt {srtt_ms} < min {lo}");
        prop_assert!(srtt_ms <= hi + 1, "srtt {srtt_ms} > max {hi}");
        prop_assert!(e.rto() >= SimDuration::from_millis(200));
        prop_assert_eq!(e.min_rtt(), SimDuration::from_millis(lo));
    }

    /// Scoreboard conservation: in_flight + sacked + lost == outstanding
    /// under arbitrary interleavings of sends, cumulative ACKs, SACKs, and
    /// loss detection. (The scoreboard also self-checks in debug builds.)
    #[test]
    fn scoreboard_conserves_bytes(ops in prop::collection::vec(0u8..=4, 1..200)) {
        let mut board = Scoreboard::new(MSS as u32);
        let mut now_ms = 0u64;
        let mut rng_state = 0x12345678u64;
        let mut next_rand = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_state >> 33
        };
        for op in ops {
            now_ms += 1;
            let now = SimTime::from_millis(now_ms);
            match op {
                // Send new data.
                0 | 1 => {
                    let tx = ccsim::tcp::rate::TxRecord {
                        sent_time: now,
                        delivered: 0,
                        delivered_time: SimTime::ZERO,
                        first_tx_time: SimTime::ZERO,
                        app_limited: false,
                    };
                    board.on_send_new(MSS, tx);
                }
                // Cumulative ACK of a random prefix.
                2 => {
                    if board.snd_nxt() > board.snd_una() {
                        let segs_out = (board.snd_nxt() - board.snd_una()) / MSS;
                        let k = next_rand() % (segs_out + 1);
                        let ack = board.snd_una() + k * MSS;
                        board.process_ack(now, ack, &SackBlocks::EMPTY);
                    }
                }
                // SACK a random aligned range above snd_una.
                3 => {
                    let segs_out = (board.snd_nxt() - board.snd_una()) / MSS;
                    if segs_out >= 2 {
                        let start_seg = 1 + next_rand() % (segs_out - 1);
                        let len_seg = 1 + next_rand() % (segs_out - start_seg);
                        let mut sack = SackBlocks::EMPTY;
                        sack.push(SackBlock {
                            start: board.snd_una() + start_seg * MSS,
                            end: board.snd_una() + (start_seg + len_seg) * MSS,
                        });
                        board.process_ack(now, 0, &sack);
                        board.detect_losses();
                    }
                }
                // Retransmit whatever is marked lost.
                _ => {
                    while let Some((seq, _end)) = board.next_lost_below(u64::MAX) {
                        let tx = ccsim::tcp::rate::TxRecord {
                            sent_time: now,
                            delivered: 0,
                            delivered_time: SimTime::ZERO,
                            first_tx_time: SimTime::ZERO,
                            app_limited: false,
                        };
                        board.mark_retransmitted(seq, tx);
                    }
                }
            }
            // The conservation invariant.
            let outstanding = board.snd_nxt() - board.snd_una();
            prop_assert_eq!(
                board.in_flight() + board.sacked_bytes() + board.lost_bytes(),
                outstanding
            );
            prop_assert!(board.in_flight() <= outstanding);
        }
    }

    /// The indexed scoreboard is the linear-scan one, observably: random
    /// interleavings of sends, cumulative ACKs, ACKs with 1–4 SACK blocks
    /// (fresh ranges, ranges bridging earlier ones, repeats of earlier
    /// blocks), loss detection, retransmission of one or of every lost
    /// segment, RTO, a short final segment and a checkpoint round trip
    /// mid-recovery; after every step each answer and the checkpoint bytes
    /// equal the oracle's. `ragged` makes every segment a random length,
    /// which no sender does but which drives the binary-search fallbacks
    /// and separates the byte dupthresh rule from the count rule. (In debug
    /// builds each scoreboard also rebuilds its indexes after every call.)
    #[test]
    fn indexed_scoreboard_matches_linear_oracle(
        ops in prop::collection::vec((0u8..12, 0u64..u64::MAX), 1..400),
        ragged in proptest::bool::ANY,
        finish_after in 0usize..500,
    ) {
        let mut b = Boards::new();
        let mut now_us = 0u64;
        let mut finished = false;
        for (step, (op, r)) in ops.into_iter().enumerate() {
            // Advance the clock only sometimes, so batches share a stamp.
            now_us += (r >> 8) % 3 * 250;
            let now = SimTime::from_micros(now_us);
            match op {
                // Send new data: a burst of 1–4 segments, until the flow's
                // (short) final segment has gone out.
                0..=3 if !finished => {
                    for k in 0..1 + (r >> 16) % 4 {
                        let len = if ragged { 1 + (r >> (20 + k)) % MSS } else { MSS };
                        b.send(len, now, r);
                    }
                    if step >= finish_after {
                        b.send(1 + (r >> 12) % (MSS - 1), now, r);
                        finished = true;
                    }
                }
                // ACK: maybe advance snd_una, carry 0–4 SACK blocks above
                // it, then look for losses as the sender does.
                0..=8 => {
                    let live = b.live_bounds().to_vec();
                    let ack_seq = if op == 4 || live.len() < 3 {
                        live[(r >> 12) as usize % live.len()]
                    } else {
                        live[0]
                    };
                    let above: Vec<u64> = live.into_iter().filter(|&s| s > ack_seq).collect();
                    let mut sack = SackBlocks::EMPTY;
                    if above.len() >= 2 {
                        for k in 0..(r >> 20) % 5 {
                            let w = r.rotate_left(7 * k as u32 + 3);
                            if w & 3 == 0 && !b.past_blocks.is_empty() {
                                // Repeat old coverage (possibly below snd_una by now).
                                sack.push(b.past_blocks[(w >> 4) as usize % b.past_blocks.len()]);
                                continue;
                            }
                            let i = (w >> 4) as usize % (above.len() - 1);
                            let span = 1 + (w >> 24) as usize % 6;
                            let j = (i + span).min(above.len() - 1);
                            sack.push(SackBlock { start: above[i], end: above[j] });
                        }
                    }
                    b.ack(now, ack_seq, &sack);
                    if r & 7 != 0 {
                        prop_assert_eq!(b.indexed.detect_losses(), b.oracle.detect_losses());
                    }
                }
                // Retransmit the first lost segment, or all of them.
                9 => {
                    b.retransmit_one(now, r);
                }
                10 => while b.retransmit_one(now, r) {},
                // RTO, rarely; otherwise a checkpoint round trip.
                _ => {
                    if r & 3 == 0 {
                        prop_assert_eq!(b.indexed.mark_all_lost(), b.oracle.mark_all_lost());
                    } else {
                        let (saved, _) = b.saved();
                        let mut restored = Scoreboard::new(MSS as u32);
                        let mut reader = ccsim::sim::SnapReader::new(&saved);
                        restored.load_state(&mut reader).expect("own checkpoint loads");
                        prop_assert!(reader.is_exhausted());
                        b.indexed = restored;
                    }
                }
            }
            b.assert_same(b.live_bounds()[(r >> 40) as usize % b.live_bounds().len()] + r % 2);
        }
    }

    /// Delivery-rate samples never exceed the instantaneous send rate of
    /// the synthetic pipeline generating them.
    #[test]
    fn rate_samples_are_bounded_by_send_rate(
        gap_us in 10u64..10_000,
        rtt_ms in 1u64..200,
        n in 10usize..100,
    ) {
        check_rate_samples_bounded(gap_us, rtt_ms, n);
    }
}

/// The body of `rate_samples_are_bounded_by_send_rate`, shared with the
/// explicit regression case below it.
fn check_rate_samples_bounded(gap_us: u64, rtt_ms: u64, n: usize) {
    let mut est = RateEstimator::new();
    let mut recs = Vec::new();
    for i in 0..n as u64 {
        recs.push(est.on_send(SimTime::from_micros(i * gap_us), i == 0));
    }
    // The long-run send rate bounds pipelined samples; a lone packet's
    // sample legitimately measures pkt/RTT instead (its whole flight
    // was delivered within one RTT), so the true bound is the max.
    let send_rate = Bandwidth::from_bytes_per(1000, SimDuration::from_micros(gap_us)).unwrap();
    let per_rtt_rate = Bandwidth::from_bytes_per(1000, SimDuration::from_millis(rtt_ms)).unwrap();
    let bound = send_rate.max(per_rtt_rate);
    let mut max_rate = Bandwidth::ZERO;
    for (i, rec) in recs.iter().enumerate() {
        let ack_at = SimTime::from_micros(i as u64 * gap_us) + SimDuration::from_millis(rtt_ms);
        let s = est.on_ack(ack_at, 1000, rec);
        if let Some(r) = s.delivery_rate {
            max_rate = max_rate.max(r);
        }
    }
    // Allow 0.1% rounding slack on the interval.
    assert!(
        max_rate.as_bps() <= bound.as_bps() + bound.as_bps() / 1000 + 8,
        "sampled {max_rate} exceeds bound {bound}"
    );
}

/// The case real proptest once shrank a failure to: the gap exceeds the
/// RTT, so every packet is alone in flight and its sample measures
/// packet/RTT, above the long-run send rate. The vendored stand-in reads
/// no `.proptest-regressions` file, so the case is spelled out.
#[test]
fn rate_samples_are_bounded_by_send_rate_regression_gap_5006us_rtt_1ms() {
    check_rate_samples_bounded(5006, 1, 10);
}
