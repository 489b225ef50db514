//! The TCP sender endpoint: reliability, loss recovery, and the
//! transmission loop.
//!
//! State machine mirrors Linux's `tcp_ca_state` reduced to the three states
//! that matter for long-lived bulk flows:
//!
//! * **Open** — normal operation.
//! * **Recovery** — fast recovery after SACK-based loss detection. For
//!   loss-based CCAs the in-flight target is governed by Proportional Rate
//!   Reduction (RFC 6937, with SSRB); BBR manages its own window.
//! * **Loss** — after a retransmission timeout: everything outstanding is
//!   presumed lost and the flow slow-starts from the CCA's post-RTO window.
//!
//! Congestion events (fast-recovery entries, RTOs, ECE reductions) are
//! counted in [`SenderStats`] — the tcpprobe-equivalent CWND-halving record
//! at the heart of the paper's Mathis-model analysis; the flight recorder,
//! when attached, keeps their timestamps.
//!
//! ## Simplifications (documented in DESIGN.md)
//!
//! No handshake (flows start in established state), no receive-window limit
//! (the paper tuned host buffers so flows are congestion-limited), no TLP,
//! and no undo/D-SACK heuristics. Loss detection is RFC 6675 dupthresh +
//! FACK byte rule, gated by a RACK-style send-time anchor (see
//! `scoreboard.rs`).

use crate::cc::{AckSample, CongestionControl};
use crate::endpoint_stats::SenderStats;
use crate::rate::RateEstimator;
use crate::rtt::RttEstimator;
use crate::scoreboard::Scoreboard;
use ccsim_net::msg::{Msg, TimerToken};
use ccsim_net::packet::{FlowId, Packet};
use ccsim_sim::{snap, CancelToken, Component, ComponentId, Ctx, SimDuration, SimTime};
use ccsim_telemetry::Counter;
use ccsim_trace::{CongestionKind, FlowRecorder};
use std::sync::Arc;

/// Shared metric handles for senders, registered by the harness and
/// attached with [`Sender::enable_metrics`]. One instance is cloned
/// across every sender in a run (the counters aggregate over flows —
/// per-flow series would explode cardinality at 5000 flows; per-flow
/// detail lives in [`SenderStats`] and the flight recorder). `Arc`
/// handles go straight to the registry's atomics: one relaxed add per
/// event, no simulation state touched.
#[derive(Clone)]
pub struct SenderMetrics {
    /// Genuine retransmission timeouts (`ccsim_tcp_rtos_total`).
    pub rtos: Arc<Counter>,
    /// Fast-recovery episode entries
    /// (`ccsim_tcp_fast_recoveries_total`).
    pub fast_recoveries: Arc<Counter>,
    /// Transmissions deferred by the pacing gate
    /// (`ccsim_tcp_pacing_stalls_total`).
    pub pacing_stalls: Arc<Counter>,
}

/// The sender's optional observers, boxed together: the per-ACK path tests
/// one pointer for both, and an unobserved sender carries 8 bytes for them.
#[derive(Default)]
struct Observers {
    /// Flight recorder (ccsim-trace), attached when the scenario traces.
    recorder: Option<FlowRecorder>,
    /// Registry-backed metrics (shared across all senders), attached when
    /// a run is observed.
    metrics: Option<SenderMetrics>,
}

impl Observers {
    fn on_congestion(&mut self, now: SimTime, kind: CongestionKind) {
        if let Some(m) = &self.metrics {
            match kind {
                CongestionKind::FastRecovery => m.fast_recoveries.inc(),
                CongestionKind::Rto => m.rtos.inc(),
                CongestionKind::EcnReduce => {}
            }
        }
        if let Some(rec) = &mut self.recorder {
            rec.on_congestion(now, kind);
        }
    }
}

/// Timer kind: flow start.
pub const TIMER_START: u16 = 1;
/// Timer kind: retransmission timeout.
pub const TIMER_RTO: u16 = 2;
/// Timer kind: pacing release.
pub const TIMER_PACE: u16 = 3;

/// The message that opens a flow; schedule it at the flow's start time.
pub fn start_msg() -> Msg {
    Msg::Timer(TimerToken::pack(TIMER_START, 0))
}

/// Loss-recovery state (Linux `tcp_ca_state`, reduced).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CaState {
    /// Normal operation.
    Open,
    /// SACK-triggered fast recovery.
    Recovery,
    /// Post-RTO loss state.
    Loss,
}

snap!(CaState as "sender CA-state" [Open, Recovery, Loss]);

/// Static sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Flow identity.
    pub flow: FlowId,
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// The receiver endpoint (packets' final destination).
    pub receiver: ComponentId,
    /// First hop for data packets (typically the bottleneck link).
    pub first_hop: ComponentId,
    /// Stop offering new data beyond this many bytes (`None` = infinite
    /// source, as in the paper).
    pub data_limit: Option<u64>,
    /// Negotiate ECN: mark outgoing data ECT(0), respond to ECE echoes
    /// with a once-per-window cwnd reduction, and confirm with CWR.
    pub ecn: bool,
}

/// The sender component.
pub struct Sender {
    cfg: SenderConfig,
    cca: Box<dyn CongestionControl>,
    board: Scoreboard,
    rtt: RttEstimator,
    rate: RateEstimator,
    state: CaState,
    /// `snd_nxt` when the current loss episode began (`high_seq`).
    recovery_point: u64,
    /// PRR state (RFC 6937), valid while in Recovery for PRR-using CCAs.
    prr_delivered: u64,
    prr_out: u64,
    prr_recover_fs: u64,
    prr_ssthresh: u64,
    last_newly_acked: u64,
    /// Entry into recovery always permits the one fast retransmission.
    force_rtx: bool,
    /// Pacing: earliest instant the next segment may leave.
    pacing_next: SimTime,
    pace_pending: bool,
    /// Live RTO timer event (null when disarmed). Every rearm cancels the
    /// previous event outright instead of leaving it parked. The old lazy
    /// `rto_pending`/`rto_deadline` scheme could strand the flow: an
    /// empty-flight disarm set the deadline to `SimTime::MAX` but left the
    /// event parked with the pending flag raised, so the next transmission
    /// skipped rearming — if that whole burst was then lost, no timer was
    /// armed and the flow stalled forever.
    rto_timer: CancelToken,
    /// Generation stamped into RTO timer messages. Guards the one race
    /// cancellation cannot cover: an event already extracted into the
    /// current same-nanosecond dispatch batch fires despite `cancel`.
    rto_gen: u64,
    started: bool,
    /// RFC 3168 once-per-window gate: `snd_nxt` at the last ECE-triggered
    /// reduction. Echoes on ACKs for data sent before that point repeat
    /// the same congestion signal and are ignored.
    ecn_reduce_until: u64,
    /// Set CWR on the next new data segment to confirm the reduction.
    ecn_cwr_pending: bool,
    stats: SenderStats,
    observers: Option<Box<Observers>>,
}

// The per-flow footprint at megascale; observers and logs stay out of it.
const _: () = assert!(std::mem::size_of::<Sender>() <= 576);

impl Sender {
    /// Build a sender with the given CCA instance.
    pub fn new(cfg: SenderConfig, cca: Box<dyn CongestionControl>) -> Sender {
        let mss = cfg.mss;
        Sender {
            cfg,
            cca,
            board: Scoreboard::new(mss),
            rtt: RttEstimator::default(),
            rate: RateEstimator::new(),
            state: CaState::Open,
            recovery_point: 0,
            prr_delivered: 0,
            prr_out: 0,
            prr_recover_fs: 0,
            prr_ssthresh: 0,
            last_newly_acked: 0,
            force_rtx: false,
            pacing_next: SimTime::ZERO,
            pace_pending: false,
            rto_timer: CancelToken::default(),
            rto_gen: 0,
            started: false,
            ecn_reduce_until: 0,
            ecn_cwr_pending: false,
            stats: SenderStats::default(),
            observers: None,
        }
    }

    fn observers_mut(&mut self) -> &mut Observers {
        self.observers.get_or_insert_with(Box::default)
    }

    /// Attach a flight recorder; subsequent ACK processing records cwnd /
    /// ssthresh / srtt / pacing samples, CCA phase transitions, and
    /// congestion events into it.
    pub fn enable_trace(&mut self, recorder: FlowRecorder) {
        self.observers_mut().recorder = Some(recorder);
    }

    /// Detach and return the flight recorder (the harness drains it into
    /// the run trace after the simulation ends).
    pub fn take_trace(&mut self) -> Option<FlowRecorder> {
        self.observers.as_deref_mut()?.recorder.take()
    }

    /// Attach registry-backed metrics; RTOs, fast-recovery entries, and
    /// pacing stalls count into the shared handles from then on.
    pub fn enable_metrics(&mut self, metrics: SenderMetrics) {
        self.observers_mut().metrics = Some(metrics);
    }

    fn recorder(&self) -> Option<&FlowRecorder> {
        self.observers.as_deref()?.recorder.as_ref()
    }

    fn recorder_mut(&mut self) -> Option<&mut FlowRecorder> {
        self.observers.as_deref_mut()?.recorder.as_mut()
    }

    /// Counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Approximate heap footprint of this flow's hot state: the sender
    /// struct (CCA and observer boxes counted at their pointer size, the
    /// scoreboard inline) plus the SACK scoreboard's heap storage.
    /// Harvested into the profiler's `tcp/senders` memory account — the
    /// numerator of the megascale memory-per-flow metric. An attached
    /// flight recorder is accounted separately via
    /// [`Sender::trace_memory_bytes`].
    pub fn memory_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64 + self.board.heap_bytes()
    }

    /// Heap bytes held by this flow's attached flight recorder, 0 when
    /// tracing is off. Feeds the profiler's `trace/rings` account, kept
    /// apart from `tcp/senders` so the memory-per-flow figure reflects the
    /// always-on cost.
    pub fn trace_memory_bytes(&self) -> u64 {
        self.recorder().map_or(0, FlowRecorder::memory_bytes)
    }

    /// The congestion controller (for cwnd/pacing inspection).
    pub fn cca(&self) -> &dyn CongestionControl {
        self.cca.as_ref()
    }

    /// Current smoothed RTT.
    pub fn srtt(&self) -> SimDuration {
        self.rtt.srtt()
    }

    /// Connection-lifetime minimum RTT.
    pub fn min_rtt(&self) -> SimDuration {
        self.rtt.min_rtt()
    }

    /// Current recovery state.
    pub fn ca_state(&self) -> CaState {
        self.state
    }

    /// Bytes currently considered in flight.
    pub fn in_flight(&self) -> u64 {
        self.board.in_flight()
    }

    /// Total bytes delivered (ACKed) on this flow.
    pub fn delivered_bytes(&self) -> u64 {
        self.rate.delivered()
    }

    /// The flow this sender drives.
    pub fn flow(&self) -> FlowId {
        self.cfg.flow
    }

    snap! {
        /// Serialize the sender's full mutable state for a checkpoint.
        ///
        /// `cfg` and `metrics` are configuration/harness attachments, rebuilt
        /// at restore; the CCA serializes last (through the mandatory trait
        /// methods), so a restore rebuilds the same algorithm from the
        /// scenario and overlays its state in place.
        pub fn save_state;
        /// Overlay checkpointed state onto a sender freshly built from the
        /// same scenario (same config, CCA kind, and trace attachments).
        pub fn load_state;
        state, recovery_point, prr_delivered, prr_out, prr_recover_fs, prr_ssthresh,
        last_newly_acked, force_rtx, pacing_next, pace_pending, rto_timer, rto_gen, started,
        ecn_reduce_until, ecn_cwr_pending,
        in board, in rtt, rate, stats,
        attached "flight-recorder" via recorder / recorder_mut,
        in cca,
    }

    // ----- transmission -------------------------------------------------

    /// Whether new data remains to be offered.
    fn new_data_available(&self) -> bool {
        self.cfg
            .data_limit
            .is_none_or(|limit| self.board.snd_nxt() < limit)
    }

    /// RFC 6937 PRR sndcnt: bytes this ACK permits us to (re)transmit.
    fn prr_allowance(&self) -> u64 {
        let pipe = self.board.in_flight();
        if pipe > self.prr_ssthresh {
            // Rate-reduction phase.
            let target =
                (self.prr_delivered * self.prr_ssthresh).div_ceil(self.prr_recover_fs.max(1));
            target.saturating_sub(self.prr_out)
        } else {
            // Slow-start reduction bound (PRR-SSRB).
            let limit = self
                .prr_delivered
                .saturating_sub(self.prr_out)
                .max(self.last_newly_acked)
                + self.cfg.mss as u64;
            limit.min(self.prr_ssthresh.saturating_sub(pipe))
        }
    }

    /// Whether the window (cwnd or PRR) permits sending one MSS now.
    fn window_permits(&self) -> bool {
        if self.force_rtx {
            return true;
        }
        let mss = self.cfg.mss as u64;
        if self.state == CaState::Recovery && self.cca.uses_prr() {
            self.prr_allowance() >= mss
        } else {
            self.board.in_flight() + mss <= self.cca.cwnd()
        }
    }

    fn arm_pace_timer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.pace_pending {
            self.pace_pending = true;
            if let Some(m) = self.observers.as_deref().and_then(|o| o.metrics.as_ref()) {
                m.pacing_stalls.inc();
            }
            ctx.schedule_at(
                self.pacing_next,
                ctx.self_id(),
                Msg::Timer(TimerToken::pack(TIMER_PACE, 0)),
            );
        }
    }

    /// Cancel-and-rearm the RTO one full `rto()` from now.
    fn rearm_rto(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.cancel(self.rto_timer);
        self.rto_gen += 1;
        self.rto_timer = ctx.schedule_self_cancellable(
            self.rtt.rto(),
            Msg::Timer(TimerToken::pack(TIMER_RTO, self.rto_gen)),
        );
    }

    /// Disarm the RTO entirely (the flight has drained).
    fn disarm_rto(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.cancel(self.rto_timer);
        self.rto_timer = CancelToken::default();
        self.rto_gen += 1;
    }

    fn send_segment(
        &mut self,
        now: SimTime,
        seq: u64,
        end: u64,
        is_rtx: bool,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        let flight_was_empty = self.board.is_empty();
        let tx = self.rate.on_send(now, flight_was_empty);
        if is_rtx {
            self.board.mark_retransmitted(seq, tx);
            self.stats.retransmits += 1;
        } else {
            self.board.on_send_new(end - seq, tx);
        }
        let mut p = Packet::data(self.cfg.flow, self.cfg.receiver, seq, end, now);
        p.retransmit = is_rtx;
        if self.cfg.ecn && !is_rtx {
            // RFC 3168 §6.1.5: retransmissions must not be ECT.
            p.set_ect();
            if self.ecn_cwr_pending {
                p.set_cwr();
                self.ecn_cwr_pending = false;
            }
        }
        ctx.send(self.cfg.first_hop, Msg::Packet(p));
        self.stats.data_pkts_sent += 1;
        self.stats.bytes_sent += end - seq;
        if self.state == CaState::Recovery {
            self.prr_out += end - seq;
        }
        if let Some(rate) = self.cca.pacing_rate() {
            let gap = rate.serialization_time(p.wire_bytes as u64);
            self.pacing_next = self.pacing_next.max(now) + gap;
        }
        if !ctx.is_pending(self.rto_timer) {
            self.rearm_rto(ctx);
        }
    }

    /// Transmit as much as the window, pacing, and data availability allow.
    fn try_transmit(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        let mss = self.cfg.mss as u64;
        loop {
            // Pacing gate.
            if self.cca.pacing_rate().is_some() && now < self.pacing_next {
                self.arm_pace_timer(ctx);
                return;
            }
            // Choose the next segment: retransmissions first (RFC 6675
            // NextSeg rule 1), then new data.
            let candidate = match self.board.next_lost_below(u64::MAX) {
                Some((seq, end)) => Some((seq, end, true)),
                None => {
                    if self.new_data_available() {
                        let seq = self.board.snd_nxt();
                        let end = match self.cfg.data_limit {
                            Some(limit) => (seq + mss).min(limit),
                            None => seq + mss,
                        };
                        Some((seq, end, false))
                    } else {
                        None
                    }
                }
            };
            let Some((seq, end, is_rtx)) = candidate else {
                // Source exhausted: future rate samples are app-limited.
                self.rate.set_app_limited(self.board.in_flight());
                return;
            };
            if !self.window_permits() {
                return;
            }
            self.force_rtx = false;
            self.send_segment(now, seq, end, is_rtx, ctx);
        }
    }

    /// Feed the flight recorder after a CCA-visible state change: window /
    /// RTT / pacing samples (deduplicated inside the recorder) and the
    /// CCA's operating-phase label.
    fn record_state(&mut self, now: SimTime) {
        if let Some(rec) = self
            .observers
            .as_deref_mut()
            .and_then(|o| o.recorder.as_mut())
        {
            rec.on_ack(
                now,
                self.cca.cwnd(),
                self.cca.ssthresh(),
                self.rtt.srtt(),
                self.cca.pacing_rate().map_or(0, |r| r.as_bps()),
            );
            rec.on_phase(now, self.cca.phase());
        }
    }

    /// Count a congestion event (the caller bumps its kind's counter) and
    /// show it to the observers.
    fn congestion_event(&mut self, now: SimTime, kind: CongestionKind) {
        self.stats.note_event(now);
        if let Some(obs) = self.observers.as_deref_mut() {
            obs.on_congestion(now, kind);
        }
    }

    // ----- ACK processing -----------------------------------------------

    #[allow(clippy::too_many_arguments)] // one per AckSample input; a params struct would just rename it
    fn build_sample(
        &self,
        now: SimTime,
        rtt_sample: Option<SimDuration>,
        newly_acked: u64,
        newly_lost: u64,
        prior_delivered: u64,
        prior_in_flight: u64,
        delivery_rate: Option<ccsim_sim::Bandwidth>,
        interval: SimDuration,
        is_app_limited: bool,
        cumulative_ack: u64,
    ) -> AckSample {
        AckSample {
            now,
            rtt: rtt_sample,
            srtt: self.rtt.srtt(),
            min_rtt: self.rtt.min_rtt(),
            newly_acked,
            newly_lost,
            delivered: self.rate.delivered(),
            prior_delivered,
            prior_in_flight,
            in_flight: self.board.in_flight(),
            delivery_rate,
            interval,
            is_app_limited,
            in_recovery: self.state == CaState::Recovery,
            mss: self.cfg.mss,
            cumulative_ack,
        }
    }

    fn on_ack_packet(&mut self, now: SimTime, p: Packet, ctx: &mut Ctx<'_, Msg>) {
        self.stats.acks_received += 1;
        let prior_in_flight = self.board.in_flight();
        let ack_seq = p.ack_seq();
        let res = self.board.process_ack(now, ack_seq, &p.sack());
        if let Some(rtt) = res.rtt_sample {
            self.rtt.on_sample(rtt);
        }
        let newly_lost = self.board.detect_losses();
        self.stats.segments_marked_lost += newly_lost / self.cfg.mss as u64;

        // Delivery-rate sample.
        let (delivery_rate, interval, prior_delivered, app_limited) =
            match (res.newly_acked > 0, res.latest_tx) {
                (true, Some(tx)) => {
                    let rs = self.rate.on_ack(now, res.newly_acked, &tx);
                    (
                        rs.delivery_rate,
                        rs.interval,
                        rs.prior_delivered,
                        rs.is_app_limited,
                    )
                }
                _ => (None, SimDuration::ZERO, self.rate.delivered(), false),
            };

        let mut sample = self.build_sample(
            now,
            res.rtt_sample,
            res.newly_acked,
            newly_lost,
            prior_delivered,
            prior_in_flight,
            delivery_rate,
            interval,
            app_limited,
            ack_seq,
        );

        // Episode exit: the recovery point has been cumulatively ACKed.
        if self.state != CaState::Open && ack_seq >= self.recovery_point {
            let after_rto = self.state == CaState::Loss;
            self.state = CaState::Open;
            sample.in_recovery = false;
            self.cca.on_exit_recovery(&sample, after_rto);
        }

        // Episode entry: lost data while Open (Linux `tcp_time_to_recover`).
        if self.state == CaState::Open && self.board.lost_bytes() > 0 {
            self.state = CaState::Recovery;
            self.recovery_point = self.board.snd_nxt();
            self.prr_delivered = 0;
            self.prr_out = 0;
            self.prr_recover_fs = (self.board.snd_nxt() - self.board.snd_una()).max(1);
            self.force_rtx = true;
            self.stats.fast_recoveries += 1;
            self.congestion_event(now, CongestionKind::FastRecovery);
            sample.in_recovery = true;
            self.cca.on_enter_recovery(&sample);
            self.prr_ssthresh = self.cca.ssthresh();
        }

        // ECE echo: one reduction per window of data while Open (RFC 3168
        // §6.1.2). Loss wins — if this ACK also entered recovery the CCA
        // has already applied its decrease.
        if self.cfg.ecn
            && p.has_ece()
            && self.state == CaState::Open
            && ack_seq >= self.ecn_reduce_until
        {
            self.ecn_reduce_until = self.board.snd_nxt();
            self.ecn_cwr_pending = true;
            self.stats.ecn_reductions += 1;
            self.congestion_event(now, CongestionKind::EcnReduce);
            self.cca.on_ecn(&sample);
        }

        if self.state == CaState::Recovery {
            self.prr_delivered += res.newly_acked;
            self.last_newly_acked = res.newly_acked;
        }

        sample.in_recovery = self.state == CaState::Recovery;
        sample.in_flight = self.board.in_flight();
        self.cca.on_ack(&sample);
        self.record_state(now);

        // RTO maintenance: while data is outstanding the deadline moves one
        // full rto() past the latest ACK (cancel-and-rearm, Linux
        // `sk_reset_timer` style); a drained flight disarms the timer
        // outright so no dead event stays parked in the queue.
        if self.board.is_empty() {
            self.disarm_rto(ctx);
        } else {
            self.rearm_rto(ctx);
        }

        self.try_transmit(now, ctx);
    }

    // ----- timers ---------------------------------------------------------

    fn on_rto_fire(&mut self, now: SimTime, gen: u64, ctx: &mut Ctx<'_, Msg>) {
        if gen != self.rto_gen {
            // Stale firing: the timer was cancelled or rearmed within the
            // same-nanosecond dispatch batch this event was extracted in,
            // too late for `cancel` to suppress it.
            return;
        }
        self.rto_timer = CancelToken::default();
        if self.board.is_empty() {
            return; // nothing outstanding
        }
        // Genuine timeout: a live-token firing is at the armed deadline by
        // construction (rearms always cancel), so no deadline re-check.
        self.stats.rtos += 1;
        self.congestion_event(now, CongestionKind::Rto);
        self.state = CaState::Loss;
        self.recovery_point = self.board.snd_nxt();
        let newly_lost = self.board.mark_all_lost();
        self.stats.segments_marked_lost += newly_lost / self.cfg.mss as u64;
        self.rtt.backoff();
        let sample = self.build_sample(
            now,
            None,
            0,
            newly_lost,
            self.rate.delivered(),
            self.board.in_flight(),
            None,
            SimDuration::ZERO,
            false,
            self.board.snd_una(),
        );
        self.cca.on_rto(&sample);
        self.record_state(now);
        // Pacing must not gate the timeout retransmission.
        self.pacing_next = now;
        self.rearm_rto(ctx);
        self.try_transmit(now, ctx);
    }

    fn on_start(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        if self.started {
            return;
        }
        self.started = true;
        self.pacing_next = now;
        self.try_transmit(now, ctx);
    }
}

impl Component<Msg> for Sender {
    fn on_event(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Packet(p) => {
                debug_assert!(!p.is_data(), "sender received a data packet");
                self.on_ack_packet(now, p, ctx);
            }
            Msg::Timer(t) => match t.kind() {
                TIMER_START => self.on_start(now, ctx),
                TIMER_RTO => self.on_rto_fire(now, t.generation(), ctx),
                TIMER_PACE => {
                    self.pace_pending = false;
                    if self.started {
                        self.try_transmit(now, ctx);
                    }
                }
                other => unreachable!("unknown sender timer kind {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;

    #[test]
    fn a_fresh_sender_counts_its_inline_scoreboard_once() {
        let cfg = SenderConfig {
            flow: FlowId(0),
            mss: 1000,
            receiver: ComponentId::from_raw(2),
            first_hop: ComponentId::from_raw(0),
            data_limit: None,
            ecn: false,
        };
        let s = Sender::new(cfg, Box::new(FixedWindow::new(10_000)));
        assert_eq!(s.memory_bytes(), std::mem::size_of::<Sender>() as u64);
    }
}
