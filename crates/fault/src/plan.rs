//! Declarative fault schedules.
//!
//! A [`FaultPlan`] is the simulator's replacement for the `tc netem` /
//! `tbf` knob-turning a physical testbed does mid-experiment: an ordered
//! list of `(time, action)` pairs applied at the bottleneck link. Plans
//! are pure data — validated up front ([`FaultPlan::validate`]), carried
//! inside the `Scenario`, serialized into crash bundles
//! ([`FaultPlan::to_json`] / [`FaultPlan::from_json`]) — and only become
//! behaviour when a `LinkFaultInjector` executes them against the engine
//! clock.

use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_sim::{Bandwidth, SimDuration, SimTime};
use std::fmt;

/// Random-loss process applied to packet arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-packet loss with probability `rate` — `netem loss
    /// random`, the process the Mathis model assumes.
    Iid { rate: f64 },
    /// Two-state Gilbert model: in the good state each arrival enters the
    /// bad state with probability `enter`; in the bad state every arrival
    /// is dropped and the process leaves with probability `exit` (mean
    /// burst length `1/exit`). Correlated loss is what defeats
    /// Mathis-style square-root models in practice.
    Burst { enter: f64, exit: f64 },
}

/// One timed impairment. "Set" actions replace the previous setting of
/// the same kind and persist until the next one; `Blackout` is
/// self-restoring after `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Total outage: every arrival during `[at, at + duration)` is
    /// dropped. Packets already queued or in serialization still drain —
    /// the cable is cut in front of the queue, not through it.
    Blackout { duration: SimDuration },
    /// Step the link rate (takes effect at the next serialization start).
    SetBandwidth { rate: Bandwidth },
    /// Add constant extra one-way delay to every delivery (a base-RTT
    /// step; `netem delay` on the forward path).
    SetExtraDelay { delay: SimDuration },
    /// Install (or with `None` clear) a random-loss process.
    SetLoss { model: Option<LossModel> },
    /// Reorder: each delivery is independently held back by `extra` with
    /// probability `rate` (0 disables), letting later packets overtake it.
    SetReorder { rate: f64, extra: SimDuration },
    /// Duplicate each delivery with probability `rate` (0 disables).
    SetDuplicate { rate: f64 },
}

/// A [`FaultKind`] pinned to an engine timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAction {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// An ordered fault schedule. Default (empty) means "no faults" and is
/// guaranteed digest-inert: the link never consults RNG or timers for an
/// empty plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub actions: Vec<FaultAction>,
}

/// Structured validation failure for a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// Action scheduled at or past the scenario horizon (warm-up +
    /// measurement duration) — it could never fire.
    BeyondHorizon { at: SimTime, horizon: SimTime },
    /// A blackout starts before the previous one ended.
    OverlappingBlackouts {
        first_end: SimTime,
        second_start: SimTime,
    },
    /// Probability outside `[0, 1]`.
    BadProbability { at: SimTime, value: f64 },
    /// A bandwidth step to zero (the link could never drain again).
    ZeroBandwidth { at: SimTime },
    /// A blackout of zero duration (a no-op that is almost certainly a
    /// units mistake).
    ZeroBlackout { at: SimTime },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BeyondHorizon { at, horizon } => {
                write!(f, "fault at {at} is beyond the scenario horizon {horizon}")
            }
            FaultPlanError::OverlappingBlackouts {
                first_end,
                second_start,
            } => write!(
                f,
                "blackout starting at {second_start} overlaps one ending at {first_end}"
            ),
            FaultPlanError::BadProbability { at, value } => {
                write!(f, "fault at {at} has probability {value} outside [0, 1]")
            }
            FaultPlanError::ZeroBandwidth { at } => {
                write!(f, "fault at {at} steps bandwidth to zero")
            }
            FaultPlanError::ZeroBlackout { at } => {
                write!(f, "blackout at {at} has zero duration")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// The empty plan (no faults; identical behaviour to a build without
    /// the fault subsystem).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    fn push(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.actions.push(FaultAction { at, kind });
        self
    }

    /// Cut the link for `duration` starting at `at`.
    pub fn blackout(self, at: SimTime, duration: SimDuration) -> FaultPlan {
        self.push(at, FaultKind::Blackout { duration })
    }

    /// Step the link rate at `at`.
    pub fn set_bandwidth(self, at: SimTime, rate: Bandwidth) -> FaultPlan {
        self.push(at, FaultKind::SetBandwidth { rate })
    }

    /// Step the extra one-way delay at `at`.
    pub fn set_extra_delay(self, at: SimTime, delay: SimDuration) -> FaultPlan {
        self.push(at, FaultKind::SetExtraDelay { delay })
    }

    /// Install i.i.d. loss of probability `rate` at `at`.
    pub fn iid_loss(self, at: SimTime, rate: f64) -> FaultPlan {
        self.push(
            at,
            FaultKind::SetLoss {
                model: Some(LossModel::Iid { rate }),
            },
        )
    }

    /// Install Gilbert burst loss at `at`.
    pub fn burst_loss(self, at: SimTime, enter: f64, exit: f64) -> FaultPlan {
        self.push(
            at,
            FaultKind::SetLoss {
                model: Some(LossModel::Burst { enter, exit }),
            },
        )
    }

    /// Clear any random-loss process at `at`.
    pub fn clear_loss(self, at: SimTime) -> FaultPlan {
        self.push(at, FaultKind::SetLoss { model: None })
    }

    /// Install reordering at `at`.
    pub fn reorder(self, at: SimTime, rate: f64, extra: SimDuration) -> FaultPlan {
        self.push(at, FaultKind::SetReorder { rate, extra })
    }

    /// Install duplication at `at`.
    pub fn duplicate(self, at: SimTime, rate: f64) -> FaultPlan {
        self.push(at, FaultKind::SetDuplicate { rate })
    }

    /// Actions sorted by firing time (stable, so same-time actions keep
    /// plan order).
    pub fn sorted_actions(&self) -> Vec<FaultAction> {
        let mut actions = self.actions.clone();
        actions.sort_by_key(|a| a.at);
        actions
    }

    /// Check the plan against a scenario horizon: every action must fire
    /// inside the run, probabilities must be probabilities, blackouts
    /// must not overlap, and bandwidth steps must keep the link drainable.
    pub fn validate(&self, horizon: SimTime) -> Result<(), FaultPlanError> {
        let actions = self.sorted_actions();
        let mut blackout_end: Option<SimTime> = None;
        for a in &actions {
            if a.at >= horizon {
                return Err(FaultPlanError::BeyondHorizon { at: a.at, horizon });
            }
            let check_p = |value: f64| -> Result<(), FaultPlanError> {
                if (0.0..=1.0).contains(&value) && value.is_finite() {
                    Ok(())
                } else {
                    Err(FaultPlanError::BadProbability { at: a.at, value })
                }
            };
            match a.kind {
                FaultKind::Blackout { duration } => {
                    if duration.is_zero() {
                        return Err(FaultPlanError::ZeroBlackout { at: a.at });
                    }
                    if let Some(end) = blackout_end {
                        if a.at < end {
                            return Err(FaultPlanError::OverlappingBlackouts {
                                first_end: end,
                                second_start: a.at,
                            });
                        }
                    }
                    blackout_end = Some(a.at + duration);
                }
                FaultKind::SetBandwidth { rate } => {
                    if rate == Bandwidth::ZERO {
                        return Err(FaultPlanError::ZeroBandwidth { at: a.at });
                    }
                }
                FaultKind::SetExtraDelay { .. } => {}
                FaultKind::SetLoss { model } => match model {
                    Some(LossModel::Iid { rate }) => check_p(rate)?,
                    Some(LossModel::Burst { enter, exit }) => {
                        check_p(enter)?;
                        check_p(exit)?;
                    }
                    None => {}
                },
                FaultKind::SetReorder { rate, .. } => check_p(rate)?,
                FaultKind::SetDuplicate { rate } => check_p(rate)?,
            }
        }
        Ok(())
    }

    /// Serialize to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.actions.len());
        JsonWriter::compact(&mut out).obj(|w| {
            w.key("actions").arr(&self.actions, |w, a| {
                w.obj(|w| {
                    w.key("at_ns").u64(a.at.as_nanos());
                    match a.kind {
                        FaultKind::Blackout { duration } => {
                            w.key("kind").str("blackout");
                            w.key("duration_ns").u64(duration.as_nanos());
                        }
                        FaultKind::SetBandwidth { rate } => {
                            w.key("kind").str("set_bandwidth");
                            w.key("bps").u64(rate.as_bps());
                        }
                        FaultKind::SetExtraDelay { delay } => {
                            w.key("kind").str("set_extra_delay");
                            w.key("delay_ns").u64(delay.as_nanos());
                        }
                        FaultKind::SetLoss { model } => {
                            w.key("kind").str("set_loss");
                            w.key("model").opt(model, |w, m| {
                                w.obj(|w| match m {
                                    LossModel::Iid { rate } => {
                                        w.key("iid").obj(|w| w.key("rate").f64(rate))
                                    }
                                    LossModel::Burst { enter, exit } => w.key("burst").obj(|w| {
                                        w.key("enter").f64(enter);
                                        w.key("exit").f64(exit);
                                    }),
                                })
                            });
                        }
                        FaultKind::SetReorder { rate, extra } => {
                            w.key("kind").str("set_reorder");
                            w.key("rate").f64(rate);
                            w.key("extra_ns").u64(extra.as_nanos());
                        }
                        FaultKind::SetDuplicate { rate } => {
                            w.key("kind").str("set_duplicate");
                            w.key("rate").f64(rate);
                        }
                    }
                })
            })
        });
        out
    }

    /// Parse a document produced by [`FaultPlan::to_json`].
    pub fn from_json(text: &str) -> Result<FaultPlan, JsonError> {
        Self::from_value(&Json::parse(text)?)
    }

    /// Decode from an already-parsed [`Json`] value (used when the plan is
    /// embedded in a larger scenario document).
    pub fn from_value(doc: &Json) -> Result<FaultPlan, JsonError> {
        let mut actions = Vec::new();
        for a in doc.req_arr("actions")? {
            let nanos = |key: &str| a.req_u64(key).map(SimDuration::from_nanos);
            let kind = match a.req_str("kind")? {
                "blackout" => FaultKind::Blackout {
                    duration: nanos("duration_ns")?,
                },
                "set_bandwidth" => FaultKind::SetBandwidth {
                    rate: Bandwidth::from_bps(a.req_u64("bps")?),
                },
                "set_extra_delay" => FaultKind::SetExtraDelay {
                    delay: nanos("delay_ns")?,
                },
                "set_loss" => {
                    let model = a
                        .get("model")
                        .ok_or_else(|| JsonError::new("set_loss missing \"model\""))?;
                    let model = if model.is_null() {
                        None
                    } else if let Some(iid) = model.get("iid") {
                        Some(LossModel::Iid {
                            rate: iid.req_f64("rate")?,
                        })
                    } else if let Some(burst) = model.get("burst") {
                        Some(LossModel::Burst {
                            enter: burst.req_f64("enter")?,
                            exit: burst.req_f64("exit")?,
                        })
                    } else {
                        return Err(JsonError::new("unknown loss model"));
                    };
                    FaultKind::SetLoss { model }
                }
                "set_reorder" => FaultKind::SetReorder {
                    rate: a.req_f64("rate")?,
                    extra: nanos("extra_ns")?,
                },
                "set_duplicate" => FaultKind::SetDuplicate {
                    rate: a.req_f64("rate")?,
                },
                other => return Err(JsonError::new(format!("unknown fault kind \"{other}\""))),
            };
            actions.push(FaultAction {
                at: SimTime::from_nanos(a.req_u64("at_ns")?),
                kind,
            });
        }
        Ok(FaultPlan { actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::from_secs(60)
    }

    fn full_plan() -> FaultPlan {
        FaultPlan::none()
            .blackout(SimTime::from_secs(5), SimDuration::from_secs(1))
            .set_bandwidth(SimTime::from_secs(10), Bandwidth::from_mbps(50))
            .set_extra_delay(SimTime::from_secs(15), SimDuration::from_millis(20))
            .iid_loss(SimTime::from_secs(20), 0.01)
            .burst_loss(SimTime::from_secs(25), 0.001, 0.25)
            .clear_loss(SimTime::from_secs(30))
            .reorder(SimTime::from_secs(35), 0.02, SimDuration::from_millis(5))
            .duplicate(SimTime::from_secs(40), 0.005)
    }

    #[test]
    fn json_round_trips_every_kind() {
        let plan = full_plan();
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::none();
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    #[test]
    fn valid_plan_passes() {
        full_plan().validate(horizon()).unwrap();
    }

    #[test]
    fn rejects_action_beyond_horizon() {
        let plan = FaultPlan::none().iid_loss(SimTime::from_secs(61), 0.01);
        assert!(matches!(
            plan.validate(horizon()),
            Err(FaultPlanError::BeyondHorizon { .. })
        ));
    }

    #[test]
    fn rejects_overlapping_blackouts() {
        let plan = FaultPlan::none()
            .blackout(SimTime::from_secs(5), SimDuration::from_secs(2))
            .blackout(SimTime::from_secs(6), SimDuration::from_secs(1));
        assert!(matches!(
            plan.validate(horizon()),
            Err(FaultPlanError::OverlappingBlackouts { .. })
        ));
        // Back-to-back (end == start) is fine.
        let plan = FaultPlan::none()
            .blackout(SimTime::from_secs(5), SimDuration::from_secs(1))
            .blackout(SimTime::from_secs(6), SimDuration::from_secs(1));
        plan.validate(horizon()).unwrap();
    }

    #[test]
    fn overlap_detected_regardless_of_push_order() {
        let plan = FaultPlan::none()
            .blackout(SimTime::from_secs(6), SimDuration::from_secs(1))
            .blackout(SimTime::from_secs(5), SimDuration::from_secs(2));
        assert!(matches!(
            plan.validate(horizon()),
            Err(FaultPlanError::OverlappingBlackouts { .. })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        for plan in [
            FaultPlan::none().iid_loss(SimTime::from_secs(1), 1.5),
            FaultPlan::none().iid_loss(SimTime::from_secs(1), -0.1),
            FaultPlan::none().iid_loss(SimTime::from_secs(1), f64::NAN),
            FaultPlan::none().duplicate(SimTime::from_secs(1), 2.0),
            FaultPlan::none().reorder(SimTime::from_secs(1), 1.1, SimDuration::from_millis(1)),
            FaultPlan::none().burst_loss(SimTime::from_secs(1), 0.5, 1.2),
        ] {
            assert!(matches!(
                plan.validate(horizon()),
                Err(FaultPlanError::BadProbability { .. })
            ));
        }
    }

    #[test]
    fn rejects_zero_bandwidth_and_zero_blackout() {
        let plan = FaultPlan::none().set_bandwidth(SimTime::from_secs(1), Bandwidth::ZERO);
        assert!(matches!(
            plan.validate(horizon()),
            Err(FaultPlanError::ZeroBandwidth { .. })
        ));
        let plan = FaultPlan::none().blackout(SimTime::from_secs(1), SimDuration::ZERO);
        assert!(matches!(
            plan.validate(horizon()),
            Err(FaultPlanError::ZeroBlackout { .. })
        ));
    }

    #[test]
    fn errors_display_cleanly() {
        let err = FaultPlan::none()
            .iid_loss(SimTime::from_secs(1), 1.5)
            .validate(horizon())
            .unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"));
    }
}
