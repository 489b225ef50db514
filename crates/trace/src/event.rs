//! The typed trace-event model.
//!
//! Every recordable occurrence is a [`TraceRecord`]: a fixed-width
//! `(time, flow, kind, a, b)` tuple. The fixed shape is deliberate — it is
//! what makes the budget's byte accounting exact ([`RECORD_BYTES`] wire
//! bytes per record, no heap payload) and lets the binary exporter write
//! plain columns.
//!
//! The `a`/`b` payload words are interpreted per [`TraceKind`]; typed
//! constructors and accessors on [`TraceRecord`] keep call sites honest.
//! CCA phase labels (≤ [`PhaseLabel::MAX_LEN`] ASCII bytes) are packed
//! *into* the two payload words rather than interned in a side table, so a
//! record is self-contained and traces from different runs concatenate.

use ccsim_sim::{snap, SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};

/// Serialized size of one record: 8 (time) + 4 (flow) + 1 (kind) + 8 + 8.
///
/// A `TraceRecord` value is padded to 32 bytes, and a ring holds one in
/// about 6 (see [`crate::ring`]); budgets are stated in *wire* bytes so an
/// exported file never exceeds the configured budget.
pub const RECORD_BYTES: u64 = 29;

/// Sentinel flow id for link-scoped records (queue-depth samples).
pub const QUEUE_FLOW: u32 = u32::MAX;

/// What a record describes. The discriminant is the on-disk kind byte.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// Congestion-window sample: `a` = cwnd bytes, `b` = ssthresh bytes.
    Cwnd = 0,
    /// Smoothed-RTT sample: `a` = srtt nanoseconds.
    Srtt = 1,
    /// Pacing-rate sample: `a` = bits per second (0 = ACK-clocked).
    Pacing = 2,
    /// CCA phase transition: `a`/`b` = packed ASCII label.
    Phase = 3,
    /// Congestion event (cwnd reduction): `a` = [`CongestionKind`].
    Congestion = 4,
    /// Bottleneck queue-depth sample (`flow` = [`QUEUE_FLOW`]):
    /// `a` = backlog bytes, `b` = queued packets.
    QueueDepth = 5,
    /// Packet drop at the bottleneck: `a` = backlog bytes at drop time.
    Drop = 6,
    /// ECN CE mark applied by an AQM: `a` = backlog bytes at mark time,
    /// `b` = hop (link) index within the topology.
    EcnMark = 7,
    /// Queue-depth sample at a non-primary hop (`flow` = hop index):
    /// `a` = backlog bytes, `b` = queued packets. The primary bottleneck
    /// keeps emitting [`TraceKind::QueueDepth`] so legacy extractors and
    /// baselines are untouched.
    HopDepth = 8,
}

impl TraceKind {
    /// All kinds, in discriminant order.
    pub const ALL: [TraceKind; 9] = [
        TraceKind::Cwnd,
        TraceKind::Srtt,
        TraceKind::Pacing,
        TraceKind::Phase,
        TraceKind::Congestion,
        TraceKind::QueueDepth,
        TraceKind::Drop,
        TraceKind::EcnMark,
        TraceKind::HopDepth,
    ];

    /// Decode a kind byte.
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(v as usize).copied()
    }

    /// Stable string name (the JSONL `kind` field).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Cwnd => "cwnd",
            TraceKind::Srtt => "srtt",
            TraceKind::Pacing => "pacing",
            TraceKind::Phase => "phase",
            TraceKind::Congestion => "congestion",
            TraceKind::QueueDepth => "queue",
            TraceKind::Drop => "drop",
            TraceKind::EcnMark => "ecn_mark",
            TraceKind::HopDepth => "hop_queue",
        }
    }

    /// Parse the JSONL `kind` field.
    pub fn from_str_name(s: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Why a congestion event fired.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CongestionKind {
    /// SACK-detected loss: entry into fast recovery (multiplicative
    /// decrease — the paper's "CWND halving" event).
    FastRecovery = 0,
    /// Retransmission timeout.
    Rto = 1,
    /// ECE-triggered reduction (RFC 3168 response, no retransmission).
    EcnReduce = 2,
}

impl CongestionKind {
    /// Decode from a payload word.
    pub fn from_u64(v: u64) -> Option<CongestionKind> {
        match v {
            0 => Some(CongestionKind::FastRecovery),
            1 => Some(CongestionKind::Rto),
            2 => Some(CongestionKind::EcnReduce),
            _ => None,
        }
    }

    /// Stable string name (the JSONL `event` field).
    pub fn as_str(self) -> &'static str {
        match self {
            CongestionKind::FastRecovery => "fast_recovery",
            CongestionKind::Rto => "rto",
            CongestionKind::EcnReduce => "ecn_reduce",
        }
    }

    /// Parse the JSONL `event` field.
    pub fn from_str_name(s: &str) -> Option<CongestionKind> {
        match s {
            "fast_recovery" => Some(CongestionKind::FastRecovery),
            "rto" => Some(CongestionKind::Rto),
            "ecn_reduce" => Some(CongestionKind::EcnReduce),
            _ => None,
        }
    }
}

/// A CCA phase label packed into 16 ASCII bytes (zero-padded).
///
/// Labels come from [`CongestionControl::phase`] and are short static
/// strings ("slowstart", "probe_bw", …); 16 bytes fits every label with
/// room to spare and packs exactly into the record's two payload words.
///
/// [`CongestionControl::phase`]: https://docs.rs/ccsim-tcp
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PhaseLabel([u8; 16]);

impl PhaseLabel {
    /// Maximum label length in bytes.
    pub const MAX_LEN: usize = 16;

    /// Pack a label; truncates past [`PhaseLabel::MAX_LEN`] bytes and
    /// replaces non-ASCII-printable bytes with `'?'` (labels are static
    /// identifiers, so neither case occurs in practice).
    pub fn new(label: &str) -> PhaseLabel {
        let mut buf = [0u8; 16];
        for (dst, &src) in buf.iter_mut().zip(label.as_bytes()) {
            *dst = if src.is_ascii_graphic() { src } else { b'?' };
        }
        PhaseLabel(buf)
    }

    /// The label as a string slice (zero padding stripped).
    pub fn as_str(&self) -> &str {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(16);
        // Construction guarantees ASCII.
        std::str::from_utf8(&self.0[..end]).unwrap_or("")
    }

    /// Pack into the record payload words (little-endian halves).
    pub fn to_words(self) -> (u64, u64) {
        (
            u64::from_le_bytes(self.0[..8].try_into().unwrap()),
            u64::from_le_bytes(self.0[8..].try_into().unwrap()),
        )
    }

    /// Unpack from record payload words.
    pub fn from_words(a: u64, b: u64) -> PhaseLabel {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&a.to_le_bytes());
        buf[8..].copy_from_slice(&b.to_le_bytes());
        PhaseLabel(buf)
    }
}

/// One recorded occurrence. See [`TraceKind`] for the `a`/`b` semantics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When it happened.
    pub time: SimTime,
    /// Owning flow, or [`QUEUE_FLOW`] for link-scoped records.
    pub flow: u32,
    /// What happened.
    pub kind: TraceKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl TraceRecord {
    /// A congestion-window sample.
    pub fn cwnd(time: SimTime, flow: u32, cwnd: u64, ssthresh: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Cwnd,
            a: cwnd,
            b: ssthresh,
        }
    }

    /// A smoothed-RTT sample.
    pub fn srtt(time: SimTime, flow: u32, srtt: SimDuration) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Srtt,
            a: srtt.as_nanos(),
            b: 0,
        }
    }

    /// A pacing-rate sample (`bps` = 0 for ACK-clocked senders).
    pub fn pacing(time: SimTime, flow: u32, bps: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Pacing,
            a: bps,
            b: 0,
        }
    }

    /// A CCA phase transition.
    pub fn phase(time: SimTime, flow: u32, label: PhaseLabel) -> TraceRecord {
        let (a, b) = label.to_words();
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Phase,
            a,
            b,
        }
    }

    /// A congestion event.
    pub fn congestion(time: SimTime, flow: u32, kind: CongestionKind) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Congestion,
            a: kind as u64,
            b: 0,
        }
    }

    /// A bottleneck queue-depth sample.
    pub fn queue_depth(time: SimTime, backlog_bytes: u64, queued_pkts: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow: QUEUE_FLOW,
            kind: TraceKind::QueueDepth,
            a: backlog_bytes,
            b: queued_pkts,
        }
    }

    /// A per-flow drop at the bottleneck.
    pub fn drop(time: SimTime, flow: u32, backlog_bytes: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::Drop,
            a: backlog_bytes,
            b: 0,
        }
    }

    /// An ECN CE mark applied to `flow`'s packet at hop `hop`.
    pub fn ecn_mark(time: SimTime, flow: u32, backlog_bytes: u64, hop: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow,
            kind: TraceKind::EcnMark,
            a: backlog_bytes,
            b: hop,
        }
    }

    /// A queue-depth sample at a non-primary hop.
    pub fn hop_depth(time: SimTime, hop: u32, backlog_bytes: u64, queued_pkts: u64) -> TraceRecord {
        TraceRecord {
            time,
            flow: hop,
            kind: TraceKind::HopDepth,
            a: backlog_bytes,
            b: queued_pkts,
        }
    }

    /// The phase label, if this is a phase record.
    pub fn phase_label(&self) -> Option<PhaseLabel> {
        (self.kind == TraceKind::Phase).then(|| PhaseLabel::from_words(self.a, self.b))
    }

    /// The congestion kind, if this is a congestion record.
    pub fn congestion_kind(&self) -> Option<CongestionKind> {
        if self.kind == TraceKind::Congestion {
            CongestionKind::from_u64(self.a)
        } else {
            None
        }
    }

    /// Sort key: time, then flow, then kind — the canonical merged order.
    pub fn sort_key(&self) -> (SimTime, u32, u8, u64, u64) {
        (self.time, self.flow, self.kind as u8, self.a, self.b)
    }
}

snap!(TraceRecord {
    time,
    flow,
    kind,
    a,
    b
});

impl Snap for TraceKind {
    fn put(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.u8()?;
        TraceKind::from_u8(b).ok_or_else(|| SnapError::Corrupt(format!("trace kind {b}")))
    }
}

/// The label's two little-endian words.
impl Snap for PhaseLabel {
    fn put(&self, w: &mut SnapWriter) {
        self.to_words().put(w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (a, b) = Snap::take(r)?;
        Ok(PhaseLabel::from_words(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_round_trip() {
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_u8(k as u8), Some(k));
            assert_eq!(TraceKind::from_str_name(k.as_str()), Some(k));
        }
        assert_eq!(TraceKind::from_u8(9), None);
        assert_eq!(TraceKind::from_str_name("bogus"), None);
    }

    #[test]
    fn phase_label_round_trips_through_words() {
        for label in ["slowstart", "avoidance", "probe_bw", "probe_rtt", "x"] {
            let l = PhaseLabel::new(label);
            assert_eq!(l.as_str(), label);
            let (a, b) = l.to_words();
            assert_eq!(PhaseLabel::from_words(a, b), l);
        }
    }

    #[test]
    fn phase_label_truncates_and_sanitizes() {
        let long = PhaseLabel::new("a_very_long_phase_label_indeed");
        assert_eq!(long.as_str().len(), 16);
        let odd = PhaseLabel::new("a b");
        assert_eq!(odd.as_str(), "a?b");
    }

    #[test]
    fn typed_constructors_set_kinds() {
        let t = SimTime::from_millis(5);
        assert_eq!(TraceRecord::cwnd(t, 1, 10, 20).kind, TraceKind::Cwnd);
        assert_eq!(
            TraceRecord::srtt(t, 1, SimDuration::from_millis(30)).a,
            30_000_000
        );
        assert_eq!(TraceRecord::queue_depth(t, 9, 2).flow, QUEUE_FLOW);
        let c = TraceRecord::congestion(t, 3, CongestionKind::Rto);
        assert_eq!(c.congestion_kind(), Some(CongestionKind::Rto));
        assert_eq!(c.phase_label(), None);
        let p = TraceRecord::phase(t, 3, PhaseLabel::new("drain"));
        assert_eq!(p.phase_label().unwrap().as_str(), "drain");
    }

    #[test]
    fn congestion_kind_round_trips() {
        for k in [
            CongestionKind::FastRecovery,
            CongestionKind::Rto,
            CongestionKind::EcnReduce,
        ] {
            assert_eq!(CongestionKind::from_u64(k as u64), Some(k));
            assert_eq!(CongestionKind::from_str_name(k.as_str()), Some(k));
        }
        assert_eq!(CongestionKind::from_u64(3), None);
    }
}
