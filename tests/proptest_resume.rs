//! Checkpoint container properties: canonical encode/decode fixpoint,
//! and typed — never panicking — failure on malformed bytes. The
//! container is exactly the thing a kill-mid-write tears, so every
//! corruption class must come back as a `ResumeError` value.
//!
//! Below the container, the scoreboard section of a sender snapshot: a
//! well-formed section that contradicts itself must be refused, because
//! the digest only proves the bytes are the ones written, not that the
//! writer was sane.

use ccsim::net::packet::{SackBlock, SackBlocks};
use ccsim::resume::{Checkpoint, ResumeError};
use ccsim::sim::{SimTime, SnapError, SnapReader, SnapWriter};
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
