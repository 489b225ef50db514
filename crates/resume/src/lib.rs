//! # ccsim-resume — checkpoint container format
//!
//! A checkpoint is the full mutable state of a simulation run frozen at a
//! slice boundary: timer-wheel contents (cancellation slab included),
//! per-link queues and AQM state, fault-injector cursors, per-flow
//! sender/scoreboard/CCA state, every derived RNG stream, and the sim
//! clock. The layers serialize themselves through `ccsim-sim`'s snapshot
//! codec; **this** crate owns the on-disk container those bytes travel
//! in: magic, version, the scenario the state belongs to, and an
//! end-to-end digest so a torn or bit-rotted file is a typed error, never
//! a silently-divergent resume.
//!
//! ## Layout
//!
//! ```text
//! magic    8 B   "CCSNAP\r\n"
//! version  4 B   little-endian u32 (currently 2)
//! scenario       length-prefixed UTF-8 (the run's scenario JSON)
//! taken_at 8 B   sim-time nanoseconds of the capture boundary
//! body           length-prefixed opaque engine+harness state
//! digest   8 B   FNV-1a over every preceding byte
//! ```
//!
//! The scenario rides *inside* the checkpoint so restore can rebuild the
//! component arena deterministically (same ids, same wiring) before
//! overwriting mutable state — and so a checkpoint file is self-contained
//! for the divergence bisector (`ccsim bisect`).
//!
//! Restore correctness contract (enforced by the differential tests in
//! `tests/integration_resume.rs`): `run(0→T)` and
//! `run(0→T/2) → snapshot → restore → run(→T)` produce byte-identical
//! outcome digests.

use ccsim_sim::{SnapError, SnapReader, SnapWriter};
use std::fmt;
use std::path::Path;

/// File magic. The trailing `\r\n` catches text-mode corruption the way
/// PNG's does.
pub const SNAP_MAGIC: [u8; 8] = *b"CCSNAP\r\n";

/// Current container version. Bump on any layout change to the container
/// *or* to the layer encodings inside `body` — a restore across
/// mismatched encodings would not be byte-identical, so it must fail
/// loudly instead.
///
/// Version 2 dropped the sender's congestion-event log, cwnd-trace slot
/// and delivered-bytes copy, the engine's per-kind event counters, and all
/// but the last `2w + 1` tracker snapshots; it added each sender's latest
/// congestion-event instant and the warm-up baseline's event count
/// (DESIGN.md §7 item 8 lists the bytes). Version 3 dropped each link's
/// in-progress drop-burst length, observer state that made an observed
/// run's checkpoint differ from an unobserved one's.
pub const SNAP_VERSION: u32 = 3;

/// The container's integrity hash (defined in `ccsim-sim`; this is its
/// historical path).
pub use ccsim_sim::fnv1a_64;

/// Why a checkpoint failed to load. Every variant is a value — loading
/// untrusted bytes (a file torn by a kill mid-write) must never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The file does not start with [`SNAP_MAGIC`] — not a checkpoint.
    BadMagic,
    /// The container (or the encodings inside it) is from a different
    /// format generation.
    Version {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The buffer ended before a field it promised.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A field held an impossible value.
    Corrupt(String),
    /// The trailing digest does not cover the bytes present — the file
    /// was modified or torn after the length fields.
    DigestMismatch {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest computed over the file contents.
        computed: u64,
    },
    /// Filesystem-level failure (message carries the `std::io::Error`).
    Io(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::BadMagic => write!(f, "not a ccsim checkpoint (bad magic)"),
            ResumeError::Version { found, expected } => {
                write!(f, "checkpoint version {found}, this build reads {expected}")
            }
            ResumeError::Truncated { needed, remaining } => write!(
                f,
                "checkpoint truncated: needed {needed} bytes, {remaining} remaining"
            ),
            ResumeError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            ResumeError::DigestMismatch { stored, computed } => write!(
                f,
                "checkpoint digest mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            ResumeError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<SnapError> for ResumeError {
    fn from(e: SnapError) -> ResumeError {
        match e {
            SnapError::Truncated { needed, remaining } => {
                ResumeError::Truncated { needed, remaining }
            }
            SnapError::Corrupt(what) => ResumeError::Corrupt(what),
        }
    }
}

impl From<std::io::Error> for ResumeError {
    fn from(e: std::io::Error) -> ResumeError {
        ResumeError::Io(e.to_string())
    }
}

/// A decoded checkpoint: the scenario it belongs to plus the opaque
/// engine+harness state blob the `ccsim-core` capture/restore layer
/// produces and consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The run's scenario, as its canonical JSON — restore rebuilds the
    /// network from this, guaranteeing an identical component arena.
    pub scenario_json: String,
    /// Sim-time nanoseconds of the slice boundary the state was frozen at.
    pub taken_at_nanos: u64,
    /// Layered engine + component + harness state (see
    /// `ccsim_core::checkpoint` for the interior layout).
    pub body: Vec<u8>,
}

impl Checkpoint {
    /// Encode into the self-describing container bytes (digest included).
    /// Encoding is canonical: equal checkpoints encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        // Magic is written raw (not length-prefixed) so the first 8 file
        // bytes are always the literal signature.
        let mut out = Vec::with_capacity(self.body.len() + self.scenario_json.len() + 64);
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        let mut w = SnapWriter::new();
        w.str(&self.scenario_json);
        w.u64(self.taken_at_nanos);
        w.bytes(&self.body);
        out.extend_from_slice(w.as_bytes());
        let digest = fnv1a_64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Decode container bytes, verifying magic, version, and digest.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, ResumeError> {
        if bytes.len() < SNAP_MAGIC.len() {
            return Err(ResumeError::Truncated {
                needed: SNAP_MAGIC.len(),
                remaining: bytes.len(),
            });
        }
        if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(ResumeError::BadMagic);
        }
        let rest = &bytes[SNAP_MAGIC.len()..];
        if rest.len() < 4 {
            return Err(ResumeError::Truncated {
                needed: 4,
                remaining: rest.len(),
            });
        }
        let version = u32::from_le_bytes(rest[..4].try_into().unwrap());
        if version != SNAP_VERSION {
            return Err(ResumeError::Version {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        // Digest trailer: the last 8 bytes cover everything before them.
        if bytes.len() < SNAP_MAGIC.len() + 4 + 8 {
            return Err(ResumeError::Truncated {
                needed: 8,
                remaining: bytes.len() - SNAP_MAGIC.len() - 4,
            });
        }
        let (covered, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = fnv1a_64(covered);
        if stored != computed {
            return Err(ResumeError::DigestMismatch { stored, computed });
        }
        let mut r = SnapReader::new(&covered[SNAP_MAGIC.len() + 4..]);
        let scenario_json = r.str()?.to_string();
        let taken_at_nanos = r.u64()?;
        let body = r.bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(ResumeError::Corrupt(format!(
                "{} trailing bytes after checkpoint body",
                r.remaining()
            )));
        }
        Ok(Checkpoint {
            scenario_json,
            taken_at_nanos,
            body,
        })
    }

    /// Digest of the engine+harness state alone (scenario and container
    /// framing excluded). The divergence bisector compares this across
    /// two runs' checkpoints at the same slice.
    pub fn state_digest(&self) -> u64 {
        fnv1a_64(&self.body)
    }

    /// Encoded size in bytes — the figure the run manifest and the
    /// `resume/checkpoint` memory gauge report.
    pub fn encoded_len(&self) -> usize {
        // magic + version + str len + str + taken_at + body len + body + digest
        SNAP_MAGIC.len() + 4 + 8 + self.scenario_json.len() + 8 + 8 + self.body.len() + 8
    }

    /// Write the encoded container to `path` atomically (tmp + rename), so
    /// a kill mid-write leaves either the old file or none — never a torn
    /// checkpoint that could half-load.
    pub fn write_file(&self, path: &Path) -> Result<(), ResumeError> {
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and decode a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Checkpoint, ResumeError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            scenario_json: "{\"name\":\"t\"}".to_string(),
            taken_at_nanos: 123_456_789,
            body: (0..=255u8).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cp = sample();
        let bytes = cp.encode();
        assert_eq!(bytes.len(), cp.encoded_len());
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, cp);
        // Canonical: re-encode is a byte fixpoint.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::decode(&bytes), Err(ResumeError::BadMagic));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = sample().encode();
        bytes[8] = 99; // low byte of the version word
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(ResumeError::Version {
                found: 99,
                expected: SNAP_VERSION
            })
        );
    }

    #[test]
    fn every_truncation_point_is_typed_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ResumeError::Truncated { .. }
                        | ResumeError::DigestMismatch { .. }
                        | ResumeError::Corrupt(_)
                        | ResumeError::BadMagic
                        | ResumeError::Version { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_anywhere_fails_the_digest() {
        let bytes = sample().encode();
        // Flip a byte in the body region; the digest trailer catches it.
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::decode(&flipped),
            Err(ResumeError::DigestMismatch { .. }) | Err(ResumeError::Corrupt(_))
        ));
    }

    #[test]
    fn file_round_trip_and_read_errors() {
        let dir = std::env::temp_dir().join(format!("ccsim-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.snap");
        let cp = sample();
        cp.write_file(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), cp);
        let missing = dir.join("missing.snap");
        assert!(matches!(
            Checkpoint::read_file(&missing),
            Err(ResumeError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
