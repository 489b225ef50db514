//! Active queue management disciplines.
//!
//! [`AqmQueue`] is the buffering policy extracted from [`Link`]'s original
//! hard-coded drop-tail FIFO: the link owns arrival/transmit accounting and
//! the serializer, the queue decides *admission* (enqueue-time drop or CE
//! mark), *release* (dequeue-time drop or mark, as CoDel requires), and any
//! periodic control-law update (PIE). This is the substitution point for the
//! testbed's switch queue configuration — the paper ran everything drop-tail;
//! the AQM axis is what lets campaigns ask how its fairness conclusions move
//! under RED, CoDel, or PIE.
//!
//! ## Determinism
//!
//! Probabilistic disciplines (RED, PIE) draw from their own dedicated
//! [`SmallRng`] stream (seeded by the harness from the master seed via
//! `RngFactory::derive_seed("aqm", link_index)`), so enabling an AQM on one
//! link never perturbs any other random stream. All floating-point control
//! laws stick to IEEE-exact operations (`+ - * / sqrt` and integer `powi`)
//! so digests are bit-stable across platforms.
//!
//! ## Invariants
//!
//! Every discipline enforces the link's hard byte capacity: an arrival that
//! would overflow `buffer_bytes` is dropped even when ECN marking is active
//! (RFC 3168 §5: mark-instead-of-drop applies to the *early* congestion
//! signal, not to an actually-full buffer). This preserves the watchdog's
//! `QueueBound` invariant (`backlog <= buffer`) unchanged.
//!
//! [`Link`]: crate::link::Link

use crate::packet::Packet;
use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;

/// The AQM disciplines a link can run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum AqmKind {
    /// Plain drop-tail FIFO (the paper's configuration; the default).
    #[default]
    DropTail,
    /// Random Early Detection (Floyd/Jacobson), gentle variant, byte-mode
    /// EWMA with count correction.
    Red,
    /// CoDel (Nichols/Jacobson): sojourn-time control, drop-at-dequeue,
    /// `interval/sqrt(count)` law.
    Codel,
    /// PIE (RFC 8033): proportional-integral probability updated on a
    /// periodic tick, drop-at-enqueue.
    Pie,
}

impl AqmKind {
    /// Canonical lowercase name, as used in scenario JSON and campaign
    /// axis values.
    pub fn as_str(self) -> &'static str {
        match self {
            AqmKind::DropTail => "droptail",
            AqmKind::Red => "red",
            AqmKind::Codel => "codel",
            AqmKind::Pie => "pie",
        }
    }

    /// Parse a canonical name (see [`AqmKind::as_str`]).
    pub fn parse(s: &str) -> Option<AqmKind> {
        match s {
            "droptail" => Some(AqmKind::DropTail),
            "red" => Some(AqmKind::Red),
            "codel" => Some(AqmKind::Codel),
            "pie" => Some(AqmKind::Pie),
            _ => None,
        }
    }

    /// All kinds, for axis expansion and exhaustive tests.
    pub const ALL: [AqmKind; 4] = [
        AqmKind::DropTail,
        AqmKind::Red,
        AqmKind::Codel,
        AqmKind::Pie,
    ];

    /// Build a queue of this kind for a link with the given buffer, drain
    /// rate, ECN marking flag, and RNG seed. Defaults follow the
    /// disciplines' reference parameterizations, scaled off the buffer.
    pub fn build(
        self,
        buffer_bytes: u64,
        rate: Bandwidth,
        ecn: bool,
        seed: u64,
    ) -> Box<dyn AqmQueue> {
        match self {
            AqmKind::DropTail => Box::new(DropTail::new(buffer_bytes)),
            AqmKind::Red => Box::new(Red::new(buffer_bytes, rate, ecn, seed)),
            AqmKind::Codel => Box::new(Codel::new(buffer_bytes, ecn)),
            AqmKind::Pie => Box::new(Pie::new(buffer_bytes, rate, ecn, seed)),
        }
    }
}

/// Admission verdict for an arriving packet.
#[derive(Debug)]
pub enum Enqueued {
    /// Accepted unchanged.
    Queued,
    /// Accepted with CE newly set (ECN marking in place of an early drop).
    Marked,
    /// Rejected; the packet is returned for drop accounting.
    Dropped(Packet),
}

/// Release verdict when the link asks for the next packet to serialize.
#[derive(Debug)]
pub enum Dequeued {
    /// Serve this packet.
    Deliver(Packet),
    /// Serve this packet, CE newly set (CoDel-style mark at dequeue).
    Marked(Packet),
    /// This packet is dropped at dequeue (CoDel); the link accounts the
    /// drop and asks again.
    Dropped(Packet),
    /// Queue empty.
    Empty,
}

/// A link buffering policy. See the module docs for the division of labor
/// between [`Link`](crate::link::Link) and the queue.
pub trait AqmQueue {
    /// Which discipline this is.
    fn kind(&self) -> AqmKind;

    /// Offer an arriving packet. The in-service packet is *not* in this
    /// queue (it has left the buffer for the wire), matching how the
    /// original drop-tail bound was enforced.
    fn enqueue(&mut self, now: SimTime, p: Packet) -> Enqueued;

    /// Release the next packet for serialization.
    fn dequeue(&mut self, now: SimTime) -> Dequeued;

    /// Bytes currently waiting (excluding in-service).
    fn queued_bytes(&self) -> u64;

    /// Packets currently waiting (excluding in-service).
    fn queued_pkts(&self) -> u64;

    /// The hard byte capacity this queue enforces.
    fn buffer_bytes(&self) -> u64;

    /// Period of the discipline's control-law timer, or `None` for purely
    /// event-driven disciplines. A link arms the tick lazily on the first
    /// arrival, so `None` costs zero events.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Periodic control-law update (PIE's probability recomputation).
    fn on_tick(&mut self, _now: SimTime) {}

    /// Whether the control-law clock still has work to do. After each
    /// [`on_tick`](Self::on_tick) the link re-arms the timer only while
    /// this is `true` (or a packet is in service) and re-arms lazily at
    /// the next arrival otherwise — so a fully quiescent discipline lets
    /// an otherwise-idle simulation drain instead of ticking forever.
    fn tick_needed(&self) -> bool {
        true
    }

    /// The link's drain rate changed (fault injection); disciplines that
    /// estimate queueing delay from the rate must re-anchor.
    fn on_rate_change(&mut self, _rate: Bandwidth) {}

    /// Approximate heap footprint of the discipline's packet storage
    /// (capacity, not occupancy — what the allocator actually holds).
    /// Feeds the profiler's `net/link_queues` memory account.
    fn memory_bytes(&self) -> u64 {
        0
    }

    /// Serialize the discipline's mutable state for a checkpoint:
    /// buffered packets plus every control-law variable (EWMAs, episode
    /// counters, RNG state). Configuration (thresholds, buffer size, ECN
    /// flag) is *not* written — restore rebuilds the discipline from the
    /// scenario and then overlays this state.
    ///
    /// Deliberately mandatory (no default body): a new discipline that
    /// forgot to implement it would silently break restore digests.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restore state written by [`AqmQueue::save_state`] into a
    /// freshly-built discipline of the same kind and configuration.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Uniform draw in `[0, 1)` from the top 53 bits of a `u64`, the standard
/// exact construction (no rejection, bit-stable everywhere).
#[inline]
fn uniform_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// The original hard-coded policy, verbatim: accept while
/// `queued_bytes + wire <= buffer`, drop the arriving packet otherwise.
/// Behavior (and therefore every outcome digest) is identical to the
/// pre-extraction `Link`.
pub struct DropTail {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    buffer_bytes: u64,
}

impl DropTail {
    /// A drop-tail FIFO with the given byte capacity.
    pub fn new(buffer_bytes: u64) -> DropTail {
        DropTail {
            queue: VecDeque::new(),
            queued_bytes: 0,
            buffer_bytes,
        }
    }
}

impl AqmQueue for DropTail {
    fn kind(&self) -> AqmKind {
        AqmKind::DropTail
    }

    fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.queue.capacity() * std::mem::size_of::<Packet>()) as u64
    }

    fn enqueue(&mut self, _now: SimTime, p: Packet) -> Enqueued {
        if self.queued_bytes + p.wire_bytes as u64 > self.buffer_bytes {
            return Enqueued::Dropped(p);
        }
        self.queued_bytes += p.wire_bytes as u64;
        self.queue.push_back(p);
        Enqueued::Queued
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeued {
        match self.queue.pop_front() {
            Some(p) => {
                self.queued_bytes -= p.wire_bytes as u64;
                Dequeued::Deliver(p)
            }
            None => Dequeued::Empty,
        }
    }

    fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    fn queued_pkts(&self) -> u64 {
        self.queue.len() as u64
    }

    fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    snap! {
        fn save_state;
        fn load_state;
        queue, queued_bytes,
    }
}

// ---------------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------------

/// Gentle RED in byte mode.
///
/// Thresholds default to the classic buffer-relative rule of thumb:
/// `min_th = buffer/4`, `max_th = 3·buffer/4`, `max_p = 0.1`, `w_q = 1/512`.
/// Between the thresholds the per-packet probability ramps linearly with the
/// EWMA average queue and is corrected by the count of packets since the
/// last mark/drop (Floyd/Jacobson eq. 3), which de-clusters the signal.
/// Above `max_th` the gentle ramp continues to `2·max_th` before forcing
/// every arrival.
pub struct Red {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    buffer_bytes: u64,
    min_th: f64,
    max_th: f64,
    max_p: f64,
    w_q: f64,
    ecn: bool,
    /// EWMA of the queue depth in bytes.
    avg: f64,
    /// Packets since the last mark/drop; -1 right after one.
    count: i64,
    /// When the queue went empty (for the idle-decay estimate).
    empty_since: Option<SimTime>,
    /// Serialization time of a nominal 1500 B frame, the idle-decay unit.
    nominal_pkt_time: SimDuration,
    rng: SmallRng,
}

impl Red {
    /// Gentle RED with buffer-relative default thresholds.
    pub fn new(buffer_bytes: u64, rate: Bandwidth, ecn: bool, seed: u64) -> Red {
        Red {
            queue: VecDeque::new(),
            queued_bytes: 0,
            buffer_bytes,
            min_th: buffer_bytes as f64 / 4.0,
            max_th: buffer_bytes as f64 * 0.75,
            max_p: 0.1,
            w_q: 1.0 / 512.0,
            ecn,
            avg: 0.0,
            count: -1,
            empty_since: Some(SimTime::ZERO),
            nominal_pkt_time: rate.serialization_time(1500),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The current EWMA average queue depth in bytes (diagnostics).
    pub fn avg_queue_bytes(&self) -> f64 {
        self.avg
    }

    /// Update the EWMA at an arrival instant.
    fn update_avg(&mut self, now: SimTime) {
        if let Some(since) = self.empty_since.take() {
            // Idle period: decay as if `m` small packets had drained
            // (integer powi keeps this IEEE-exact).
            let unit = self.nominal_pkt_time.as_nanos().max(1);
            let m = (now.saturating_since(since).as_nanos() / unit).min(10_000) as i32;
            self.avg *= (1.0 - self.w_q).powi(m);
        }
        self.avg += self.w_q * (self.queued_bytes as f64 - self.avg);
    }

    /// Early-signal decision for one arrival: `true` = mark/drop.
    fn should_signal(&mut self) -> bool {
        if self.avg < self.min_th {
            self.count = -1;
            return false;
        }
        // Gentle RED: linear ramp max_p..1 over [max_th, 2·max_th].
        let p_b = if self.avg < self.max_th {
            self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        } else if self.avg < 2.0 * self.max_th {
            self.max_p + (1.0 - self.max_p) * (self.avg - self.max_th) / self.max_th
        } else {
            1.0
        };
        self.count += 1;
        let correction = 1.0 - self.count as f64 * p_b;
        let p_a = if correction <= 0.0 {
            1.0
        } else {
            (p_b / correction).min(1.0)
        };
        if uniform_f64(&mut self.rng) < p_a {
            self.count = 0;
            true
        } else {
            false
        }
    }
}

impl AqmQueue for Red {
    fn kind(&self) -> AqmKind {
        AqmKind::Red
    }

    fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.queue.capacity() * std::mem::size_of::<Packet>()) as u64
    }

    fn enqueue(&mut self, now: SimTime, mut p: Packet) -> Enqueued {
        self.update_avg(now);
        let signal = self.should_signal();
        if self.queued_bytes + p.wire_bytes as u64 > self.buffer_bytes {
            // Forced drop: the physical buffer is full (never ECN-marked).
            return Enqueued::Dropped(p);
        }
        if signal && !(self.ecn && p.is_ect()) {
            return Enqueued::Dropped(p);
        }
        let marked = signal && self.ecn && p.is_ect();
        if marked {
            p.mark_ce();
        }
        self.queued_bytes += p.wire_bytes as u64;
        self.queue.push_back(p);
        if marked {
            Enqueued::Marked
        } else {
            Enqueued::Queued
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        match self.queue.pop_front() {
            Some(p) => {
                self.queued_bytes -= p.wire_bytes as u64;
                if self.queue.is_empty() {
                    self.empty_since = Some(now);
                }
                Dequeued::Deliver(p)
            }
            None => Dequeued::Empty,
        }
    }

    fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    fn queued_pkts(&self) -> u64 {
        self.queue.len() as u64
    }

    fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    snap! {
        fn save_state;
        fn load_state;
        queue, queued_bytes, avg, count, empty_since, rng,
    }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

/// Sojourn target: 5 ms (the CoDel paper's "good queue" bound).
pub const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);
/// Control interval: 100 ms (a worst-case Internet RTT).
pub const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// CoDel: drop (or mark) at *dequeue* when per-packet sojourn time has
/// exceeded `target` for at least `interval`, then tighten the drop spacing
/// as `interval/sqrt(count)` until the queue drains below target.
///
/// Packets are timestamped at enqueue in the discipline's own deque, so the
/// sojourn clock is exact virtual time, not an estimate.
pub struct Codel {
    queue: VecDeque<(SimTime, Packet)>,
    queued_bytes: u64,
    buffer_bytes: u64,
    ecn: bool,
    target: SimDuration,
    interval: SimDuration,
    /// When sojourn first stayed above target, plus `interval`.
    first_above_at: Option<SimTime>,
    /// In the dropping state?
    dropping: bool,
    /// Next scheduled drop instant while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping episode.
    count: u32,
    /// `count` when the previous episode ended (for the re-entry shortcut).
    last_count: u32,
}

impl Codel {
    /// CoDel with the reference 5 ms / 100 ms parameters.
    pub fn new(buffer_bytes: u64, ecn: bool) -> Codel {
        Codel {
            queue: VecDeque::new(),
            queued_bytes: 0,
            buffer_bytes,
            ecn,
            target: CODEL_TARGET,
            interval: CODEL_INTERVAL,
            first_above_at: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
        }
    }

    /// `drop_next` advance: `interval / sqrt(count)`.
    fn control_law(&self, from: SimTime) -> SimTime {
        let nanos = self.interval.as_nanos() as f64 / (self.count.max(1) as f64).sqrt();
        from + SimDuration::from_nanos(nanos as u64)
    }

    /// Whether the packet popped at `now` is past the sojourn bound
    /// (updates the first-above clock).
    fn ok_to_signal(&mut self, enqueued_at: SimTime, now: SimTime) -> bool {
        let sojourn = now.saturating_since(enqueued_at);
        if sojourn < self.target || self.queued_bytes <= 1500 {
            self.first_above_at = None;
            false
        } else {
            match self.first_above_at {
                None => {
                    self.first_above_at = Some(now + self.interval);
                    false
                }
                Some(at) => now >= at,
            }
        }
    }
}

impl AqmQueue for Codel {
    fn kind(&self) -> AqmKind {
        AqmKind::Codel
    }

    fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.queue.capacity() * std::mem::size_of::<(SimTime, Packet)>()) as u64
    }

    fn enqueue(&mut self, now: SimTime, p: Packet) -> Enqueued {
        if self.queued_bytes + p.wire_bytes as u64 > self.buffer_bytes {
            return Enqueued::Dropped(p);
        }
        self.queued_bytes += p.wire_bytes as u64;
        self.queue.push_back((now, p));
        Enqueued::Queued
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        let Some((enq_at, mut p)) = self.queue.pop_front() else {
            self.dropping = false;
            return Dequeued::Empty;
        };
        self.queued_bytes -= p.wire_bytes as u64;
        let signal = self.ok_to_signal(enq_at, now);
        if self.dropping {
            if !signal {
                self.dropping = false;
            } else if now >= self.drop_next {
                self.count += 1;
                self.drop_next = self.control_law(self.drop_next);
                if self.ecn && p.is_ect() {
                    p.mark_ce();
                    return Dequeued::Marked(p);
                }
                return Dequeued::Dropped(p);
            }
        } else if signal {
            // Enter the dropping state. Resume near the previous episode's
            // rate if it ended recently (the "drop spacing memory").
            self.dropping = true;
            self.count = if self.count > 2 && now.saturating_since(self.drop_next) < self.interval {
                self.count - 2
            } else {
                1
            };
            self.last_count = self.count;
            self.drop_next = self.control_law(now);
            if self.ecn && p.is_ect() {
                p.mark_ce();
                return Dequeued::Marked(p);
            }
            return Dequeued::Dropped(p);
        }
        Dequeued::Deliver(p)
    }

    fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    fn queued_pkts(&self) -> u64 {
        self.queue.len() as u64
    }

    fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    snap! {
        fn save_state;
        fn load_state;
        queue, queued_bytes, first_above_at, dropping, drop_next, count, last_count,
    }
}

// ---------------------------------------------------------------------------
// PIE
// ---------------------------------------------------------------------------

/// PIE queue-delay target: 15 ms (RFC 8033 default).
pub const PIE_TARGET: SimDuration = SimDuration::from_millis(15);
/// PIE probability-update period: 15 ms (RFC 8033 `T_UPDATE`).
pub const PIE_TUPDATE: SimDuration = SimDuration::from_millis(15);
/// PIE initial burst allowance: 150 ms.
pub const PIE_BURST_ALLOWANCE: SimDuration = SimDuration::from_millis(150);

/// PIE (RFC 8033): a proportional-integral controller updates a drop/mark
/// probability every `T_UPDATE` from the estimated queueing delay
/// (`backlog / drain rate`); arrivals are then dropped (or marked) with
/// that probability. The periodic update runs off the link's AQM tick
/// timer ([`AqmQueue::tick_interval`]).
pub struct Pie {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    buffer_bytes: u64,
    ecn: bool,
    rate: Bandwidth,
    target: SimDuration,
    /// Current drop probability.
    prob: f64,
    qdelay_old: SimDuration,
    burst_allowance: SimDuration,
    rng: SmallRng,
}

impl Pie {
    /// PIE with RFC 8033 defaults against the given drain rate.
    pub fn new(buffer_bytes: u64, rate: Bandwidth, ecn: bool, seed: u64) -> Pie {
        Pie {
            queue: VecDeque::new(),
            queued_bytes: 0,
            buffer_bytes,
            ecn,
            rate,
            target: PIE_TARGET,
            prob: 0.0,
            qdelay_old: SimDuration::ZERO,
            burst_allowance: PIE_BURST_ALLOWANCE,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current drop/mark probability (diagnostics).
    pub fn drop_probability(&self) -> f64 {
        self.prob
    }

    /// Estimated queueing delay of the current backlog.
    fn qdelay(&self) -> SimDuration {
        self.rate.serialization_time(self.queued_bytes)
    }

    /// RFC 8033 §4.2 auto-tuning: scale the update step down while the
    /// probability is small so the controller stays stable near zero.
    fn scale_for(prob: f64) -> f64 {
        if prob < 0.000_001 {
            1.0 / 2048.0
        } else if prob < 0.000_01 {
            1.0 / 512.0
        } else if prob < 0.000_1 {
            1.0 / 128.0
        } else if prob < 0.001 {
            1.0 / 32.0
        } else if prob < 0.01 {
            1.0 / 8.0
        } else if prob < 0.1 {
            1.0 / 2.0
        } else {
            1.0
        }
    }

    /// Arrival-time decision: `true` = drop/mark this packet.
    fn should_signal(&mut self) -> bool {
        if self.burst_allowance > SimDuration::ZERO {
            return false;
        }
        // RFC 8033 §4.1 safeguards: never signal when the queue is trivially
        // short or the controller has barely engaged.
        if (self.qdelay_old < self.target / 2 && self.prob < 0.2) || self.queued_bytes < 2 * 1500 {
            return false;
        }
        uniform_f64(&mut self.rng) < self.prob
    }
}

impl AqmQueue for Pie {
    fn kind(&self) -> AqmKind {
        AqmKind::Pie
    }

    fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.queue.capacity() * std::mem::size_of::<Packet>()) as u64
    }

    fn enqueue(&mut self, _now: SimTime, mut p: Packet) -> Enqueued {
        let signal = self.should_signal();
        if self.queued_bytes + p.wire_bytes as u64 > self.buffer_bytes {
            return Enqueued::Dropped(p);
        }
        if signal && !(self.ecn && p.is_ect()) {
            return Enqueued::Dropped(p);
        }
        let marked = signal && self.ecn && p.is_ect();
        if marked {
            p.mark_ce();
        }
        self.queued_bytes += p.wire_bytes as u64;
        self.queue.push_back(p);
        if marked {
            Enqueued::Marked
        } else {
            Enqueued::Queued
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeued {
        match self.queue.pop_front() {
            Some(p) => {
                self.queued_bytes -= p.wire_bytes as u64;
                Dequeued::Deliver(p)
            }
            None => Dequeued::Empty,
        }
    }

    fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    fn queued_pkts(&self) -> u64 {
        self.queue.len() as u64
    }

    fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(PIE_TUPDATE)
    }

    fn on_tick(&mut self, _now: SimTime) {
        let qdelay = self.qdelay();
        // p += α·(qdelay − target) + β·(qdelay − qdelay_old), in seconds,
        // with RFC 8033 α = 0.125, β = 1.25, scaled near zero.
        let alpha = 0.125;
        let beta = 1.25;
        let delta = alpha * (qdelay.as_secs_f64() - self.target.as_secs_f64())
            + beta * (qdelay.as_secs_f64() - self.qdelay_old.as_secs_f64());
        self.prob = (self.prob + delta * Self::scale_for(self.prob)).clamp(0.0, 1.0);
        // Exponential decay when the queue has fully drained; snap to an
        // exact zero once negligible so `tick_needed` can quiesce instead
        // of chasing the decay into the subnormals.
        if qdelay == SimDuration::ZERO && self.qdelay_old == SimDuration::ZERO {
            self.prob *= 0.98;
            if self.prob < 1e-9 {
                self.prob = 0.0;
            }
        }
        // Burst allowance: consume while the controller is inactive-safe,
        // re-grant once congestion has fully cleared.
        if self.burst_allowance > SimDuration::ZERO {
            self.burst_allowance = self.burst_allowance.saturating_sub(PIE_TUPDATE);
        } else if self.prob == 0.0 && qdelay < self.target / 2 && self.qdelay_old < self.target / 2
        {
            self.burst_allowance = PIE_BURST_ALLOWANCE;
        }
        self.qdelay_old = qdelay;
    }

    fn on_rate_change(&mut self, rate: Bandwidth) {
        self.rate = rate;
    }

    /// Quiescent once the backlog is gone, the probability has decayed to
    /// exactly zero, and the burst allowance has been fully re-granted —
    /// at that point every subsequent tick would be a no-op.
    fn tick_needed(&self) -> bool {
        self.queued_bytes > 0 || self.prob > 0.0 || self.burst_allowance < PIE_BURST_ALLOWANCE
    }

    // `rate` is mutable state: fault injection can have changed it since
    // construction.
    snap! {
        fn save_state;
        fn load_state;
        queue, queued_bytes, rate, prob, qdelay_old, burst_allowance, rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use ccsim_sim::ComponentId;

    fn pkt(bytes: u32) -> Packet {
        let mut p = Packet::data(
            FlowId(0),
            ComponentId::from_raw(0),
            0,
            bytes as u64,
            SimTime::ZERO,
        );
        p.wire_bytes = bytes;
        p
    }

    fn ect_pkt(bytes: u32) -> Packet {
        let mut p = pkt(bytes);
        p.set_ect();
        p
    }

    #[test]
    fn kind_names_round_trip() {
        for k in AqmKind::ALL {
            assert_eq!(AqmKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(AqmKind::parse("fq_codel"), None);
        assert_eq!(AqmKind::default(), AqmKind::DropTail);
    }

    #[test]
    fn droptail_matches_legacy_admission_rule() {
        let mut q = DropTail::new(3000);
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1500)),
            Enqueued::Queued
        ));
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1500)),
            Enqueued::Queued
        ));
        // Third 1500 B arrival overflows the 3000 B buffer.
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1500)),
            Enqueued::Dropped(_)
        ));
        assert_eq!(q.queued_bytes(), 3000);
        assert_eq!(q.queued_pkts(), 2);
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeued::Deliver(_)));
        assert_eq!(q.queued_bytes(), 1500);
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeued::Deliver(_)));
        assert!(matches!(q.dequeue(SimTime::ZERO), Dequeued::Empty));
    }

    #[test]
    fn red_below_min_threshold_never_signals() {
        let mut q = Red::new(100_000, Bandwidth::from_mbps(100), false, 1);
        for _ in 0..10 {
            assert!(matches!(
                q.enqueue(SimTime::ZERO, pkt(1500)),
                Enqueued::Queued
            ));
            let _ = q.dequeue(SimTime::ZERO);
        }
    }

    #[test]
    fn red_sustained_overload_drops_probabilistically() {
        let mut q = Red::new(30_000, Bandwidth::from_mbps(100), false, 1);
        let mut dropped = 0;
        // Hold the queue near full so the EWMA climbs past min_th.
        for _ in 0..2_000 {
            match q.enqueue(SimTime::ZERO, pkt(1500)) {
                Enqueued::Dropped(_) => {
                    dropped += 1;
                    let _ = q.dequeue(SimTime::ZERO); // keep space available
                }
                _ => {
                    if q.queued_bytes() > 24_000 {
                        let _ = q.dequeue(SimTime::ZERO);
                    }
                }
            }
        }
        assert!(
            dropped > 0,
            "RED never produced an early drop under overload"
        );
        // And some drops must be early (queue not physically full).
        assert!(q.avg_queue_bytes() > 30_000.0 / 4.0);
    }

    #[test]
    fn red_marks_ect_packets_when_ecn_enabled() {
        let mut q = Red::new(30_000, Bandwidth::from_mbps(100), true, 1);
        let mut marked = 0;
        for _ in 0..2_000 {
            match q.enqueue(SimTime::ZERO, ect_pkt(1500)) {
                Enqueued::Marked => {
                    marked += 1;
                    let _ = q.dequeue(SimTime::ZERO);
                }
                Enqueued::Dropped(_) => {
                    let _ = q.dequeue(SimTime::ZERO);
                }
                Enqueued::Queued => {
                    if q.queued_bytes() > 24_000 {
                        let _ = q.dequeue(SimTime::ZERO);
                    }
                }
            }
        }
        assert!(marked > 0, "ECN-capable packets were never CE-marked");
        // Marked packets come back out with CE set.
        let mut saw_ce = false;
        loop {
            match q.dequeue(SimTime::ZERO) {
                Dequeued::Deliver(p) => saw_ce |= p.is_ce(),
                Dequeued::Empty => break,
                _ => {}
            }
        }
        assert!(saw_ce);
    }

    #[test]
    fn red_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut q = Red::new(30_000, Bandwidth::from_mbps(100), false, seed);
            let mut verdicts = Vec::new();
            for i in 0..500 {
                let v = matches!(
                    q.enqueue(SimTime::from_micros(i * 120), pkt(1500)),
                    Enqueued::Dropped(_)
                );
                verdicts.push(v);
                if q.queued_bytes() > 24_000 {
                    let _ = q.dequeue(SimTime::from_micros(i * 120));
                }
            }
            verdicts
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn codel_drops_at_dequeue_after_sustained_sojourn() {
        let mut q = Codel::new(u64::MAX, false);
        // Fill for 300 ms without draining: sojourns far above 5 ms.
        for i in 0..300u64 {
            assert!(matches!(
                q.enqueue(SimTime::from_millis(i), pkt(1500)),
                Enqueued::Queued
            ));
        }
        // Drain starting at t=400ms: sojourn of the head is 400 ms.
        let mut drops = 0;
        let mut delivered = 0;
        for i in 0..300u64 {
            match q.dequeue(SimTime::from_millis(400 + i)) {
                Dequeued::Dropped(_) => drops += 1,
                Dequeued::Deliver(_) => delivered += 1,
                Dequeued::Marked(_) => {}
                Dequeued::Empty => break,
            }
        }
        assert!(drops > 0, "CoDel never dropped despite 400 ms sojourns");
        assert!(delivered > 0, "CoDel must deliver between spaced drops");
    }

    #[test]
    fn codel_is_quiet_below_target() {
        let mut q = Codel::new(u64::MAX, false);
        // Enqueue/dequeue promptly: sojourn 1 ms, never signals.
        for i in 0..500u64 {
            let t = SimTime::from_millis(i);
            assert!(matches!(q.enqueue(t, pkt(1500)), Enqueued::Queued));
            assert!(matches!(
                q.dequeue(t + SimDuration::from_millis(1)),
                Dequeued::Deliver(_)
            ));
        }
    }

    #[test]
    fn codel_marks_instead_of_dropping_with_ecn() {
        let mut q = Codel::new(u64::MAX, true);
        for i in 0..300u64 {
            let _ = q.enqueue(SimTime::from_millis(i), ect_pkt(1500));
        }
        let mut marked = 0;
        for i in 0..300u64 {
            match q.dequeue(SimTime::from_millis(400 + i)) {
                Dequeued::Marked(p) => {
                    assert!(p.is_ce());
                    marked += 1;
                }
                Dequeued::Empty => break,
                _ => {}
            }
        }
        assert!(marked > 0, "CoDel+ECN never CE-marked");
    }

    #[test]
    fn pie_tick_raises_probability_under_standing_queue() {
        let mut q = Pie::new(u64::MAX, Bandwidth::from_mbps(10), false, 3);
        // 250 KB backlog at 10 Mbps = 200 ms queueing delay >> 15 ms target.
        for _ in 0..167 {
            let _ = q.enqueue(SimTime::ZERO, pkt(1500));
        }
        // Burn through the burst allowance (150 ms / 15 ms = 10 ticks).
        for i in 0..30 {
            q.on_tick(SimTime::from_millis(15 * (i + 1)));
        }
        assert!(
            q.drop_probability() > 0.0,
            "PIE probability stayed zero under a standing queue"
        );
        let mut dropped = 0;
        for _ in 0..500 {
            if matches!(
                q.enqueue(SimTime::from_secs(1), pkt(1500)),
                Enqueued::Dropped(_)
            ) {
                dropped += 1;
            }
        }
        assert!(
            dropped > 0,
            "PIE never dropped at p={}",
            q.drop_probability()
        );
    }

    #[test]
    fn pie_probability_decays_when_queue_clears() {
        let mut q = Pie::new(u64::MAX, Bandwidth::from_mbps(10), false, 3);
        for _ in 0..167 {
            let _ = q.enqueue(SimTime::ZERO, pkt(1500));
        }
        for i in 0..30 {
            q.on_tick(SimTime::from_millis(15 * (i + 1)));
        }
        let peak = q.drop_probability();
        assert!(peak > 0.0);
        while !matches!(q.dequeue(SimTime::from_secs(1)), Dequeued::Empty) {}
        for i in 0..300 {
            q.on_tick(SimTime::from_secs(1) + SimDuration::from_millis(15 * (i + 1)));
        }
        assert!(
            q.drop_probability() < peak / 10.0,
            "PIE probability failed to decay: {} -> {}",
            peak,
            q.drop_probability()
        );
    }

    #[test]
    fn hard_buffer_cap_is_enforced_by_every_discipline() {
        let rate = Bandwidth::from_mbps(100);
        for kind in AqmKind::ALL {
            let mut q = kind.build(4500, rate, true, 42);
            let mut accepted = 0u64;
            for _ in 0..100 {
                match q.enqueue(SimTime::ZERO, ect_pkt(1500)) {
                    Enqueued::Dropped(_) => {}
                    _ => accepted += 1,
                }
                assert!(
                    q.queued_bytes() <= 4500,
                    "{:?} exceeded the hard buffer cap",
                    kind
                );
            }
            assert!(accepted >= 3, "{kind:?} accepted too few packets");
        }
    }
}
