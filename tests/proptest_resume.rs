//! Checkpoint container properties: canonical encode/decode fixpoint,
//! and typed — never panicking — failure on malformed bytes. The
//! container is exactly the thing a kill-mid-write tears, so every
//! corruption class must come back as a `ResumeError` value.
//!
//! Below the container, the scoreboard section of a sender snapshot: a
//! well-formed section that contradicts itself must be refused, because
//! the digest only proves the bytes are the ones written, not that the
//! writer was sane. Likewise the event queue's section: entries that are
//! each well-formed but contradict one another (a repeated sequence
//! number, one cancellation token on two events or on an event and the
//! free list, a destination the engine does not have) must be refused,
//! because the queue rebuilds its payload slab and token→slot map from
//! them.

use ccsim::net::packet::{SackBlock, SackBlocks};
use ccsim::resume::{Checkpoint, ResumeError};
use ccsim::sim::{
    CancelToken, Component, ComponentId, Ctx, EventQueue, SimTime, Simulator, SnapError,
    SnapReader, SnapWriter,
};
use ccsim::tcp::{Scoreboard, TxRecord};
use proptest::prelude::*;

const MSS: u64 = 1000;

/// Snapshot bytes of a scoreboard caught mid-recovery: `n` segments, every
/// `stride`-th one missing at the receiver, the losses detected and the
/// first `rtx` of them retransmitted.
fn recovering_scoreboard(n: u64, stride: u64, rtx: usize) -> Vec<u8> {
    let tx = |ms: u64| TxRecord {
        sent_time: SimTime::from_millis(ms),
        delivered: ms,
        delivered_time: SimTime::ZERO,
        first_tx_time: SimTime::ZERO,
        app_limited: false,
    };
    let mut board = Scoreboard::new(MSS as u32);
    for i in 0..n {
        board.on_send_new(MSS, tx(i));
    }
    for i in (0..n).filter(|i| i % stride != 0) {
        let mut sack = SackBlocks::EMPTY;
        sack.push(SackBlock {
            start: i * MSS,
            end: (i + 1) * MSS,
        });
        board.process_ack(SimTime::from_millis(n + i), 0, &sack);
        board.detect_losses();
    }
    for k in 0..rtx {
        let Some((seq, _)) = board.next_lost_below(u64::MAX) else {
            break;
        };
        board.mark_retransmitted(seq, tx(2 * n + k as u64));
    }
    let mut w = SnapWriter::new();
    board.save_state(&mut w);
    w.into_bytes()
}

fn load_scoreboard(bytes: &[u8]) -> Result<Scoreboard, SnapError> {
    let mut board = Scoreboard::new(MSS as u32);
    board.load_state(&mut SnapReader::new(bytes))?;
    Ok(board)
}

/// A deterministic pseudo-random checkpoint (xorshift body bytes).
fn synthetic(seed: u64, nanos: u64, len: usize) -> Checkpoint {
    let mut x = seed | 1;
    let mut body = Vec::with_capacity(len);
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        body.push(x as u8);
    }
    Checkpoint {
        scenario_json: format!("{{\"name\":\"prop/{seed}\"}}"),
        taken_at_nanos: nanos,
        body,
    }
}

proptest! {
    /// encode → decode → encode is a fixpoint: decode returns exactly
    /// what was encoded, and re-encoding is byte-identical (canonical
    /// encoding — no hidden nondeterminism in the container).
    #[test]
    fn encode_decode_encode_fixpoint(
        seed in 0u64..u64::MAX,
        nanos in 0u64..u64::MAX,
        len in 0usize..2048,
    ) {
        let cp = synthetic(seed, nanos, len);
        let bytes = cp.encode();
        let decoded = Checkpoint::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(&decoded, &cp);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Every truncation of a valid container is a typed error.
    #[test]
    fn truncated_containers_are_typed_errors(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = synthetic(seed, 7, len).encode();
        let cut = ((bytes.len() as f64 - 1.0) * cut_frac) as usize;
        let err = Checkpoint::decode(&bytes[..cut]).expect_err("truncated container");
        prop_assert!(
            matches!(
                err,
                ResumeError::Truncated { .. }
                    | ResumeError::BadMagic
                    | ResumeError::DigestMismatch { .. }
            ),
            "unexpected error class: {err}"
        );
    }

    /// Flipping any single byte of a valid container is caught — as a
    /// magic, version, or digest failure — never accepted, never a panic.
    #[test]
    fn corrupted_containers_are_typed_errors(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        pos_frac in 0.0f64..1.0,
    ) {
        let mut bytes = synthetic(seed, 7, len).encode();
        let pos = ((bytes.len() as f64 - 1.0) * pos_frac) as usize;
        bytes[pos] ^= 0xFF;
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }
}

proptest! {
    /// Nudging any one counter or sequence bound of a mid-recovery
    /// scoreboard snapshot, or toggling any one segment's SACKed or lost
    /// flag, leaves a snapshot that parses but contradicts its segments:
    /// it must come back as `SnapError::Corrupt`, not load and later wrap
    /// a counter.
    #[test]
    fn inconsistent_scoreboard_snapshots_are_refused(
        n in 16u64..200,
        stride in 2u64..9,
        rtx in 0usize..6,
        field in 0usize..8,
        pick in 0u64..u64::MAX,
    ) {
        let good = recovering_scoreboard(n, stride, rtx);
        prop_assert!(load_scoreboard(&good).is_ok());
        let mut bad = good.clone();
        // Tail: snd_una, snd_nxt, sacked_bytes (u64), sacked_segs (u32),
        // lost_bytes, high_sacked, anchor (u64). Segments: 52 bytes each
        // after the u64 count, flags at +49 (SACKed) and +50 (lost).
        let tail = good.len() - 52;
        let bump = |bytes: &mut [u8], at: usize, by: u64| {
            let v = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&v.wrapping_add(by).to_le_bytes());
        };
        match field {
            0 => bump(&mut bad, tail, MSS),                       // front.seq != snd_una
            1 => bump(&mut bad, tail + 8, MSS),                   // back.end != snd_nxt
            2 => bump(&mut bad, tail + 16, MSS.wrapping_neg()),   // sacked_bytes
            3 => bump(&mut bad, tail + 24, 1),                    // sacked_segs
            4 => bump(&mut bad, tail + 28, MSS),                  // lost_bytes
            5 => bump(&mut bad, tail + 36, n * MSS),              // high_sacked > snd_nxt
            _ => {
                let seg = (pick % n) as usize;
                bad[8 + seg * 52 + 49 + (field - 6)] ^= 1;
            }
        }
        match load_scoreboard(&bad) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("field {field}: want Corrupt, got {:?}", other.map(|_| "a scoreboard")),
        }
    }

    /// Flipping any one byte of a scoreboard snapshot is either a typed
    /// error or a scoreboard that is whole: it saves back to the bytes it
    /// was given and retires its window without a counter going negative.
    #[test]
    fn flipped_scoreboard_bytes_never_load_a_broken_scoreboard(
        n in 16u64..120,
        stride in 2u64..9,
        rtx in 0usize..6,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = recovering_scoreboard(n, stride, rtx);
        let pos = ((bytes.len() as f64 - 1.0) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(mut board) = load_scoreboard(&bytes) {
            let mut w = SnapWriter::new();
            board.save_state(&mut w);
            prop_assert_eq!(w.as_bytes(), &bytes[..]);
            board.detect_losses();
            while let Some((seq, _)) = board.next_lost_below(u64::MAX) {
                board.mark_retransmitted(seq, TxRecord {
                    sent_time: SimTime::from_secs(10),
                    delivered: 0,
                    delivered_time: SimTime::ZERO,
                    first_tx_time: SimTime::ZERO,
                    app_limited: false,
                });
            }
            board.process_ack(SimTime::from_secs(11), board.snd_nxt(), &SackBlocks::EMPTY);
            prop_assert_eq!(
                (board.in_flight(), board.sacked_bytes(), board.lost_bytes(), board.len()),
                (0, 0, 0, 0)
            );
        }
    }
}

/// Byte offsets into an `EventQueue<u64>` snapshot whose payloads are
/// written as one `u64`: `gens, free, next_seq, scheduled_total, n`, then
/// 44 bytes per entry — time, seq (+8), tok (+16, `u32`), tok_gen (+20),
/// dst (+28), payload (+36).
struct QueueLayout {
    free_at: usize,
    free_len: usize,
    entries_at: usize,
    entries: usize,
}

const ENTRY_BYTES: usize = 44;

impl QueueLayout {
    fn of(bytes: &[u8]) -> QueueLayout {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let free_count_at = 8 + 8 * u64_at(0);
        let free_len = u64_at(free_count_at);
        let count_at = free_count_at + 8 + 4 * free_len + 16;
        QueueLayout {
            free_at: free_count_at + 8,
            free_len,
            entries_at: count_at + 8,
            entries: u64_at(count_at),
        }
    }

    fn entry(&self, i: usize) -> usize {
        self.entries_at + ENTRY_BYTES * (i % self.entries)
    }
}

/// A queue snapshot with plain and cancellable events pending and some
/// tokens retired (by cancellation and by firing) onto the free list.
fn queue_snapshot(n: u64, seed: u64) -> Vec<u8> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut tokens: Vec<CancelToken> = Vec::new();
    let mut x = seed | 1;
    for id in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = SimTime::from_nanos(x % 5_000_000);
        let dst = ComponentId::from_raw((x >> 32) as usize % 3);
        if matches!(x % 3, 0) {
            q.schedule(at, dst, id);
        } else {
            tokens.push(q.schedule_cancellable(at, dst, id));
        }
        if x & 7 == 0 && !tokens.is_empty() {
            q.cancel(tokens[(x >> 8) as usize % tokens.len()]);
        }
    }
    q.pop();
    let mut w = SnapWriter::new();
    q.save_state(&mut w, |w, &id| w.u64(id));
    w.into_bytes()
}

fn load_queue(bytes: &[u8]) -> Result<EventQueue<u64>, SnapError> {
    EventQueue::load_state(&mut SnapReader::new(bytes), |r| r.u64())
}

struct Sink;

impl Component<u64> for Sink {
    fn on_event(&mut self, _: SimTime, _: u64, _: &mut Ctx<'_, u64>) {}
}

fn engine_with(components: usize) -> Simulator<u64> {
    let mut sim = Simulator::new(0);
    for _ in 0..components {
        sim.add_component(Sink);
    }
    sim
}

proptest! {
    /// Copying one entry's sequence number or token onto another, or
    /// putting a pending event's token on the free list, leaves a queue
    /// snapshot in which every entry still passes its own checks. Loaded,
    /// the first would pop two events in an order no run produced and the
    /// other two would let one `cancel` drop another event's payload.
    #[test]
    fn inconsistent_queue_snapshots_are_refused(
        n in 8u64..120,
        seed in 0u64..u64::MAX,
        field in 0usize..3,
        i in 0usize..1_000,
        j in 1usize..1_000,
    ) {
        let good = queue_snapshot(n, seed);
        let reloaded = load_queue(&good).expect("own snapshot loads");
        reloaded.debug_check();
        let lay = QueueLayout::of(&good);
        // Entries with a token: the unit of both token cases.
        let tokened: Vec<usize> = (0..lay.entries)
            .map(|e| lay.entry(e))
            .filter(|&at| good[at + 16..at + 20] != [0xFF; 4])
            .collect();
        let mut bad = good.clone();
        match field {
            0 if lay.entries >= 2 => {
                let (from, to) = (lay.entry(i), lay.entry(i + 1 + j % (lay.entries - 1)));
                bad.copy_within(from + 8..from + 16, to + 8);
            }
            1 if tokened.len() >= 2 => {
                let from = tokened[i % tokened.len()];
                let to = tokened[(i + 1 + j % (tokened.len() - 1)) % tokened.len()];
                bad.copy_within(from + 16..from + 28, to + 16);
            }
            2 if lay.free_len > 0 && !tokened.is_empty() => {
                let from = tokened[i % tokened.len()];
                bad.copy_within(from + 16..from + 20, lay.free_at + 4 * (j % lay.free_len));
            }
            _ => return,
        }
        prop_assert_ne!(&bad, &good);
        match load_queue(&bad) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("field {field}: want Corrupt, got {:?}", other.map(|q| q.len())),
        }
    }

    /// An engine snapshot restores only into an engine that has every
    /// component its pending events are addressed to.
    #[test]
    fn events_for_missing_components_are_refused_at_restore(
        components in 1usize..6,
        events in 1u64..40,
        missing in 1usize..4,
    ) {
        let mut sim = engine_with(components);
        for id in 0..events {
            let dst = ComponentId::from_raw(id as usize % components);
            sim.schedule(SimTime::from_micros(id), dst, id);
        }
        let mut w = SnapWriter::new();
        sim.save_state(&mut w, |w, &id| w.u64(id));
        let restore = |into: usize| {
            engine_with(into).restore_state(&mut SnapReader::new(w.as_bytes()), |r| r.u64())
        };
        prop_assert!(restore(components).is_ok());
        prop_assert!(restore(components + missing).is_ok());
        if events as usize >= components {
            // Some event is addressed to the last component.
            let short = components.saturating_sub(missing);
            prop_assert!(matches!(restore(short), Err(SnapError::Corrupt(_))));
        }
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    // The version field is the 4 LE bytes right after the 8-byte magic.
    let mut bytes = synthetic(3, 11, 64).encode();
    bytes[8] ^= 0x40;
    match Checkpoint::decode(&bytes) {
        Err(ResumeError::Version { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("want ResumeError::Version, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = synthetic(3, 11, 64).encode();
    bytes[0] ^= 0xFF;
    assert_eq!(Checkpoint::decode(&bytes), Err(ResumeError::BadMagic));
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let err = Checkpoint::read_file(std::path::Path::new("/nonexistent/missing.ckpt"))
        .expect_err("missing file");
    assert!(matches!(err, ResumeError::Io(_)), "{err}");
}
