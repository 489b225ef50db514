//! Runtime execution of a [`FaultPlan`] at a link.
//!
//! [`LinkFaultInjector`] is a pure state machine so its semantics are
//! testable without building a network. The owning `Link` drives it from
//! three places:
//!
//! * a dedicated fault timer fires at each action's timestamp →
//!   [`LinkFaultInjector::advance_to`] applies every due action and
//!   reports the next timer deadline;
//! * every packet arrival → [`LinkFaultInjector::arrival_drop`] answers
//!   whether the blackout or the active loss process eats it;
//! * every delivery (serialization done) →
//!   [`LinkFaultInjector::delivery_fate`] answers how the delivery is
//!   mangled (extra delay, reorder hold-back, duplication).
//!
//! Determinism: all randomness comes from one `SmallRng` seeded from the
//! scenario's `RngFactory` (`derive_seed("fault", 0)`), and draws happen
//! in event order on a single thread, so a faulted run is exactly as
//! reproducible as a clean one. Draws are skipped entirely while no
//! probabilistic model is active, so a plan of purely deterministic
//! actions (blackouts, rate steps) costs zero RNG state.

use crate::plan::{FaultAction, FaultKind, FaultPlan, LossModel};
use ccsim_sim::{snap, Bandwidth, SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Why an arrival was dropped by the injector (kept distinct from
/// drop-tail queue overflow in link statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link is in a blackout window.
    Blackout,
    /// The active random-loss process fired.
    RandomLoss,
}

/// How one delivery should be mangled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryFate {
    /// Extra one-way delay to add on top of propagation delay (base-RTT
    /// step plus any reorder hold-back).
    pub extra_delay: SimDuration,
    /// Schedule a second copy of the packet.
    pub duplicate: bool,
}

/// Settings changed by a batch of applied actions that the link itself
/// must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppliedChanges {
    /// New serialization rate, if a bandwidth step fired.
    pub new_rate: Option<Bandwidth>,
}

/// Counters for every injector decision, reported alongside link stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Arrivals dropped by blackout windows.
    pub blackout_dropped: u64,
    /// Arrivals dropped by the random-loss process.
    pub loss_dropped: u64,
    /// Deliveries held back by reordering.
    pub reordered: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
    /// Plan actions applied so far.
    pub actions_applied: u64,
}

impl FaultStats {
    /// Total arrivals the injector dropped (blackout + random loss).
    pub fn dropped(&self) -> u64 {
        self.blackout_dropped + self.loss_dropped
    }
}

snap!(FaultStats {
    blackout_dropped,
    loss_dropped,
    reordered,
    duplicated,
    actions_applied
});

#[derive(Debug, Clone)]
enum LossState {
    Off,
    Iid { rate: f64 },
    Burst { enter: f64, exit: f64, bad: bool },
}

/// A tag byte (0 off, 1 i.i.d., 2 burst), then the model's fields.
impl Snap for LossState {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            LossState::Off => w.u8(0),
            LossState::Iid { rate } => {
                w.u8(1);
                w.f64(rate);
            }
            LossState::Burst { enter, exit, bad } => {
                w.u8(2);
                (enter, exit, bad).put(w);
            }
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(LossState::Off),
            1 => Ok(LossState::Iid { rate: r.f64()? }),
            2 => {
                let (enter, exit, bad) = Snap::take(r)?;
                Ok(LossState::Burst { enter, exit, bad })
            }
            b => Err(SnapError::Corrupt(format!("loss-state tag {b}"))),
        }
    }
}

/// Executes a sorted [`FaultPlan`] against a link's event stream.
#[derive(Debug, Clone)]
pub struct LinkFaultInjector {
    actions: Vec<FaultAction>,
    cursor: usize,
    rng: SmallRng,
    blackout_until: Option<SimTime>,
    loss: LossState,
    reorder_rate: f64,
    reorder_extra: SimDuration,
    dup_rate: f64,
    extra_delay: SimDuration,
    stats: FaultStats,
}

impl LinkFaultInjector {
    /// Build from a plan (sorted internally) and a derived seed.
    pub fn new(plan: &FaultPlan, seed: u64) -> LinkFaultInjector {
        LinkFaultInjector {
            actions: plan.sorted_actions(),
            cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
            blackout_until: None,
            loss: LossState::Off,
            reorder_rate: 0.0,
            reorder_extra: SimDuration::ZERO,
            dup_rate: 0.0,
            extra_delay: SimDuration::ZERO,
            stats: FaultStats::default(),
        }
    }

    /// When the link's fault timer should next fire, if ever.
    pub fn next_action_at(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|a| a.at)
    }

    /// Apply every action due at or before `now`; returns settings the
    /// link must apply to itself.
    pub fn advance_to(&mut self, now: SimTime) -> AppliedChanges {
        let mut changes = AppliedChanges::default();
        while let Some(a) = self.actions.get(self.cursor) {
            if a.at > now {
                break;
            }
            match a.kind {
                FaultKind::Blackout { duration } => {
                    self.blackout_until = Some(a.at + duration);
                }
                FaultKind::SetBandwidth { rate } => changes.new_rate = Some(rate),
                FaultKind::SetExtraDelay { delay } => self.extra_delay = delay,
                FaultKind::SetLoss { model } => {
                    self.loss = match model {
                        None => LossState::Off,
                        Some(LossModel::Iid { rate }) => LossState::Iid { rate },
                        Some(LossModel::Burst { enter, exit }) => LossState::Burst {
                            enter,
                            exit,
                            bad: false,
                        },
                    };
                }
                FaultKind::SetReorder { rate, extra } => {
                    self.reorder_rate = rate;
                    self.reorder_extra = extra;
                }
                FaultKind::SetDuplicate { rate } => self.dup_rate = rate,
            }
            self.stats.actions_applied += 1;
            self.cursor += 1;
        }
        changes
    }

    /// Decide the fate of one arrival at `now`. `Some(reason)` means the
    /// packet is dropped before it reaches the queue.
    pub fn arrival_drop(&mut self, now: SimTime) -> Option<DropReason> {
        if let Some(until) = self.blackout_until {
            if now < until {
                self.stats.blackout_dropped += 1;
                return Some(DropReason::Blackout);
            }
            // Window over — clear so steady-state arrivals skip the check.
            self.blackout_until = None;
        }
        match &mut self.loss {
            LossState::Off => None,
            LossState::Iid { rate } => {
                let rate = *rate;
                if rate > 0.0 && self.rng.gen_bool(rate) {
                    self.stats.loss_dropped += 1;
                    Some(DropReason::RandomLoss)
                } else {
                    None
                }
            }
            LossState::Burst { enter, exit, bad } => {
                if *bad {
                    // Every arrival in the bad state is lost; leave with
                    // probability `exit`.
                    let exit = *exit;
                    if exit > 0.0 && self.rng.gen_bool(exit) {
                        *bad = false;
                    }
                    self.stats.loss_dropped += 1;
                    Some(DropReason::RandomLoss)
                } else {
                    let enter = *enter;
                    if enter > 0.0 && self.rng.gen_bool(enter) {
                        *bad = true;
                        self.stats.loss_dropped += 1;
                        Some(DropReason::RandomLoss)
                    } else {
                        None
                    }
                }
            }
        }
    }

    /// Decide how one delivery is mangled (called at serialization done).
    pub fn delivery_fate(&mut self) -> DeliveryFate {
        let mut fate = DeliveryFate {
            extra_delay: self.extra_delay,
            duplicate: false,
        };
        if self.reorder_rate > 0.0 && self.rng.gen_bool(self.reorder_rate) {
            fate.extra_delay += self.reorder_extra;
            self.stats.reordered += 1;
        }
        if self.dup_rate > 0.0 && self.rng.gen_bool(self.dup_rate) {
            fate.duplicate = true;
            self.stats.duplicated += 1;
        }
        fate
    }

    snap! {
        /// Serialize runtime state for a checkpoint. The action list itself
        /// is *not* written — it is deterministic from the scenario's
        /// `FaultPlan`, so restore rebuilds the injector from the plan and
        /// overlays this state (cursor, RNG, active impairments, counters).
        pub fn save_state;
        /// Overlay checkpointed runtime state onto an injector freshly built
        /// from the same `FaultPlan` (see [`LinkFaultInjector::save_state`]).
        pub fn load_state then check_cursor;
        cursor, rng, blackout_until, loss, reorder_rate, reorder_extra, dup_rate, extra_delay,
        stats,
    }

    /// Refuse a restored cursor past the rebuilt action list.
    fn check_cursor(&self) -> Result<(), SnapError> {
        if self.cursor > self.actions.len() {
            return Err(SnapError::Corrupt(format!(
                "fault cursor {} past {} actions",
                self.cursor,
                self.actions.len()
            )));
        }
        Ok(())
    }

    /// Injector decision counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_sim::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn blackout_opens_and_self_restores() {
        let plan = FaultPlan::none().blackout(t(5), SimDuration::from_secs(2));
        let mut inj = LinkFaultInjector::new(&plan, 1);
        assert_eq!(inj.next_action_at(), Some(t(5)));
        assert_eq!(inj.arrival_drop(t(4)), None);
        inj.advance_to(t(5));
        assert_eq!(inj.arrival_drop(t(5)), Some(DropReason::Blackout));
        assert_eq!(inj.arrival_drop(t(6)), Some(DropReason::Blackout));
        assert_eq!(inj.arrival_drop(t(7)), None); // end is exclusive
        assert_eq!(inj.stats().blackout_dropped, 2);
        assert_eq!(inj.next_action_at(), None);
    }

    #[test]
    fn iid_loss_hits_close_to_rate_and_is_seed_deterministic() {
        let plan = FaultPlan::none().iid_loss(t(0), 0.2);
        let run = |seed| {
            let mut inj = LinkFaultInjector::new(&plan, seed);
            inj.advance_to(t(0));
            let mut drops = Vec::new();
            for i in 0..10_000 {
                drops.push(
                    inj.arrival_drop(t(1) + SimDuration::from_nanos(i))
                        .is_some(),
                );
            }
            drops
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must give the identical drop pattern");
        let hits = a.iter().filter(|&&d| d).count();
        assert!((1_700..2_300).contains(&hits), "got {hits} drops at p=0.2");
        let c = run(8);
        assert_ne!(a, c, "different seed should give a different pattern");
    }

    #[test]
    fn burst_loss_produces_longer_runs_than_iid() {
        // Same long-run loss rate (~2%), very different clustering.
        let run_lengths = |plan: FaultPlan| {
            let mut inj = LinkFaultInjector::new(&plan, 42);
            inj.advance_to(t(0));
            let mut lengths = Vec::new();
            let mut cur = 0u32;
            for i in 0..200_000u64 {
                if inj
                    .arrival_drop(t(1) + SimDuration::from_nanos(i))
                    .is_some()
                {
                    cur += 1;
                } else if cur > 0 {
                    lengths.push(cur);
                    cur = 0;
                }
            }
            lengths
        };
        let iid = run_lengths(FaultPlan::none().iid_loss(t(0), 0.02));
        let burst = run_lengths(FaultPlan::none().burst_loss(t(0), 0.004, 0.2));
        let mean = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!(
            mean(&burst) > 2.0 * mean(&iid),
            "burst mean run {} vs iid {}",
            mean(&burst),
            mean(&iid)
        );
    }

    #[test]
    fn bandwidth_and_delay_steps_apply_at_their_times() {
        let plan = FaultPlan::none()
            .set_bandwidth(t(5), Bandwidth::from_mbps(50))
            .set_extra_delay(t(10), SimDuration::from_millis(20));
        let mut inj = LinkFaultInjector::new(&plan, 1);
        assert_eq!(inj.advance_to(t(4)).new_rate, None);
        assert_eq!(
            inj.advance_to(t(5)).new_rate,
            Some(Bandwidth::from_mbps(50))
        );
        assert_eq!(inj.delivery_fate().extra_delay, SimDuration::ZERO);
        inj.advance_to(t(10));
        assert_eq!(
            inj.delivery_fate().extra_delay,
            SimDuration::from_millis(20)
        );
        assert_eq!(inj.stats().actions_applied, 2);
    }

    #[test]
    fn certain_reorder_and_duplicate_fire_every_delivery() {
        let plan = FaultPlan::none()
            .reorder(t(0), 1.0, SimDuration::from_millis(5))
            .duplicate(t(0), 1.0);
        let mut inj = LinkFaultInjector::new(&plan, 1);
        inj.advance_to(t(0));
        for _ in 0..100 {
            let fate = inj.delivery_fate();
            assert_eq!(fate.extra_delay, SimDuration::from_millis(5));
            assert!(fate.duplicate);
        }
        assert_eq!(inj.stats().reordered, 100);
        assert_eq!(inj.stats().duplicated, 100);
    }

    #[test]
    fn clear_loss_stops_dropping() {
        let plan = FaultPlan::none().iid_loss(t(0), 1.0).clear_loss(t(10));
        let mut inj = LinkFaultInjector::new(&plan, 1);
        inj.advance_to(t(0));
        assert_eq!(inj.arrival_drop(t(1)), Some(DropReason::RandomLoss));
        inj.advance_to(t(10));
        assert_eq!(inj.arrival_drop(t(11)), None);
    }

    #[test]
    fn no_active_model_means_no_rng_draws() {
        // With only deterministic actions the RNG must never advance, so
        // two injectors with different seeds behave identically.
        let plan = FaultPlan::none().blackout(t(5), SimDuration::from_secs(1));
        let mut a = LinkFaultInjector::new(&plan, 1);
        let mut b = LinkFaultInjector::new(&plan, 999);
        for i in 0..1000u64 {
            let now = t(4) + SimDuration::from_millis(i * 3);
            a.advance_to(now);
            b.advance_to(now);
            assert_eq!(a.arrival_drop(now), b.arrival_drop(now));
            assert_eq!(a.delivery_fate(), b.delivery_fate());
        }
    }
}
