//! SACK-scoreboard micro-benchmark: what one ACK costs a sender in
//! recovery, as a function of the window it arrives into.
//!
//! Each iteration asks the scoreboard what `Sender::on_ack_packet` and
//! `try_transmit` ask it per ACK — `process_ack`, `detect_losses`,
//! `next_lost_below`, and `mark_retransmitted` when something is lost —
//! over a window of n = 64 / 1024 / 8192 segments, under two loss patterns:
//!
//! * `one_hole`: the first segment is lost and a dup-ACK train SACKs one
//!   more segment behind it per ACK (one growing run, one hole). The
//!   shape of `tcp.scoreboard.ns_per_ack_sack_<n>` in `benchmark/`.
//! * `alternating`: every other segment is lost, so each ACK opens a new
//!   run and passes a new hole — the pattern that maximises the run count
//!   (n/2 runs) and keeps all three indexes busy. A second pass then
//!   delivers the retransmissions in order, fusing the runs one by one.
//!
//! The indexed scoreboard's per-ACK cost must be flat in n (CI fails the
//! `perf` job when the 8192-segment figure exceeds four times the
//! 64-segment one on the benchmark's own gauge); before the indexes it
//! grew linearly — 65x from 64 to 8192 segments.

use ccsim_net::packet::{SackBlock, SackBlocks};
use ccsim_sim::{SimDuration, SimTime};
use ccsim_tcp::{Scoreboard, TxRecord};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

const MSS: u64 = 1448;

fn tx(now: SimTime) -> TxRecord {
    TxRecord {
        sent_time: now,
        delivered: 0,
        delivered_time: SimTime::ZERO,
        first_tx_time: SimTime::ZERO,
        app_limited: false,
    }
}

/// A fresh window of `n` segments sent 10 µs apart.
fn window(n: u64) -> (Scoreboard, SimTime) {
    let mut board = Scoreboard::new(MSS as u32);
    let mut now = SimTime::ZERO;
    for _ in 0..n {
        now += SimDuration::from_micros(10);
        board.on_send_new(MSS, tx(now));
    }
    (board, now)
}

/// One ACK as the sender sees it.
fn on_ack(board: &mut Scoreboard, now: SimTime, ack_seq: u64, block: (u64, u64)) {
    let mut sack = SackBlocks::EMPTY;
    sack.push(SackBlock {
        start: block.0,
        end: block.1,
    });
    black_box(board.process_ack(now, ack_seq, &sack));
    black_box(board.detect_losses());
    if let Some((seq, _)) = board.next_lost_below(u64::MAX) {
        board.mark_retransmitted(seq, tx(now));
    }
}

/// First segment lost; ACK k SACKs `[1, k + 1)` segments.
fn one_hole(n: u64) -> Scoreboard {
    let (mut board, mut now) = window(n);
    for k in 1..n {
        now += SimDuration::from_micros(10);
        on_ack(&mut board, now, 0, (MSS, (k + 1) * MSS));
    }
    board.process_ack(now, n * MSS, &SackBlocks::EMPTY);
    board
}

/// Even segments lost. Pass one SACKs the odd ones bottom-up (a new run
/// and a new hole per ACK, retransmissions going out as losses are found);
/// pass two delivers the even ones bottom-up, each cumulative ACK
/// swallowing a retransmission and the run above it.
fn alternating(n: u64) -> Scoreboard {
    let (mut board, mut now) = window(n);
    for k in (1..n).step_by(2) {
        now += SimDuration::from_micros(10);
        on_ack(&mut board, now, 0, (k * MSS, (k + 1) * MSS));
    }
    for k in (2..=n).step_by(2) {
        now += SimDuration::from_micros(10);
        on_ack(&mut board, now, k * MSS, ((n - 1) * MSS, n * MSS));
    }
    board
}

fn bench_recovery(c: &mut Criterion) {
    type Pattern = fn(u64) -> Scoreboard;
    for (pattern, run) in [
        ("one_hole", one_hole as Pattern),
        ("alternating", alternating),
    ] {
        let mut g = c.benchmark_group(format!("scoreboard_recovery/{pattern}"));
        // 8192 segments' worth of windows per iteration at every n (about
        // one ACK per segment), so the figures compare per ACK.
        g.throughput(Throughput::Elements(8192));
        for n in [64u64, 1024, 8192] {
            g.bench_function(format!("n{n}"), |b| {
                b.iter(|| {
                    for _ in 0..8192 / n {
                        black_box(run(black_box(n)));
                    }
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
