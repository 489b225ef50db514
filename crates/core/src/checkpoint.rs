//! Whole-run checkpoint capture/restore and the divergence bisector.
//!
//! A checkpoint is a byte-exact snapshot of everything a run's future
//! depends on: the engine (clock, event queue, cancellation tokens), every
//! link/router/sender/receiver — including CCA state and derived RNG
//! streams — plus the harness cursor itself (watchdog baselines, warm-up
//! counter baselines, the tracker's last `2w + 1` snapshots). Anything
//! rebuildable from the [`Scenario`] (routes, plans, seeds, wiring) is
//! *not* serialized; restore rebuilds the arena from the embedded scenario
//! JSON and overlays state.
//!
//! The contract, enforced by the differential tests: for any slice
//! boundary `t`, `run(0→T)` and `run(0→t) → snapshot → restore → run(t→T)`
//! produce byte-identical outcomes.

use crate::build::BuiltNetwork;
use crate::error::SimError;
use crate::request::RunRequest;
use crate::runner::{Measurement, SenderBaseline};
use crate::scenario::Scenario;
use crate::watchdog::Watchdog;
use ccsim_net::link::Link;
use ccsim_net::msg::Msg;
use ccsim_resume::{Checkpoint, ResumeError};
use ccsim_sim::{SimTime, Snap, SnapError, SnapReader, SnapWriter};
use ccsim_tcp::receiver::Receiver;
use ccsim_tcp::sender::Sender;
use ccsim_telemetry::ThroughputTracker;
use ccsim_topo::Router;

/// Phase tag stored in the checkpoint body: no measurement cursor yet
/// (mid-warm-up), or one follows.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASUREMENT: u8 = 1;

/// Serialize the full simulation + harness state into a checkpoint body.
///
/// Layout (all length-prefixed via the snap codec):
/// engine → links → routers → (sender, receiver) per flow → watchdog →
/// phase tag → [measurement only: sender baselines, tracker].
pub(crate) fn capture_body(
    net: &BuiltNetwork,
    watchdog: &Watchdog,
    measure: Option<&Measurement>,
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    net.sim.save_state(&mut w, |w, m: &Msg| m.put(w));
    w.u32(net.links.len() as u32);
    for &id in &net.links {
        net.sim.component::<Link>(id).save_state(&mut w);
    }
    w.u32(net.routers.len() as u32);
    for &id in &net.routers {
        net.sim.component::<Router>(id).save_state(&mut w);
    }
    w.u32(net.senders.len() as u32);
    for i in 0..net.senders.len() {
        net.sim
            .component::<Sender>(net.senders[i])
            .save_state(&mut w);
        net.sim
            .component::<Receiver>(net.receivers[i])
            .save_state(&mut w);
    }
    watchdog.save_state(&mut w);
    match measure {
        None => w.u8(PHASE_WARMUP),
        Some(Measurement {
            sender_base,
            tracker,
        }) => {
            w.u8(PHASE_MEASUREMENT);
            sender_base.put(&mut w);
            tracker.save_state(&mut w);
        }
    }
    w.into_bytes()
}

/// Assemble a [`Checkpoint`] container around a captured body.
pub(crate) fn capture(
    scenario: &Scenario,
    net: &BuiltNetwork,
    watchdog: &Watchdog,
    measure: Option<&Measurement>,
) -> Checkpoint {
    Checkpoint {
        scenario_json: crate::codec::scenario_to_json(scenario),
        taken_at_nanos: net.sim.now().as_nanos(),
        body: capture_body(net, watchdog, measure),
    }
}

/// Overlay a checkpoint body onto a freshly built network (which must have
/// been built from the checkpoint's embedded scenario, whose convergence
/// rule sets `window_snapshots`). Returns the restored measurement cursor
/// (`None` for a warm-up checkpoint).
pub(crate) fn restore_into(
    net: &mut BuiltNetwork,
    watchdog: &mut Watchdog,
    window_snapshots: usize,
    body: &[u8],
) -> Result<Option<Measurement>, ResumeError> {
    let mut r = SnapReader::new(body);
    restore_into_inner(net, watchdog, window_snapshots, &mut r).map_err(ResumeError::from)
}

fn restore_into_inner(
    net: &mut BuiltNetwork,
    watchdog: &mut Watchdog,
    window_snapshots: usize,
    r: &mut SnapReader<'_>,
) -> Result<Option<Measurement>, SnapError> {
    net.sim.restore_state(r, Msg::take)?;
    let links = r.u32()? as usize;
    if links != net.links.len() {
        return Err(SnapError::Corrupt(format!(
            "checkpoint has {links} links, scenario builds {}",
            net.links.len()
        )));
    }
    for i in 0..links {
        let id = net.links[i];
        net.sim.component_mut::<Link>(id).load_state(r)?;
    }
    let routers = r.u32()? as usize;
    if routers != net.routers.len() {
        return Err(SnapError::Corrupt(format!(
            "checkpoint has {routers} routers, scenario builds {}",
            net.routers.len()
        )));
    }
    for i in 0..routers {
        let id = net.routers[i];
        net.sim.component_mut::<Router>(id).load_state(r)?;
    }
    let flows = r.u32()? as usize;
    if flows != net.senders.len() {
        return Err(SnapError::Corrupt(format!(
            "checkpoint has {flows} flows, scenario builds {}",
            net.senders.len()
        )));
    }
    for i in 0..flows {
        let (sid, rid) = (net.senders[i], net.receivers[i]);
        net.sim.component_mut::<Sender>(sid).load_state(r)?;
        net.sim.component_mut::<Receiver>(rid).load_state(r)?;
    }
    watchdog.load_state(r)?;
    let measure = match r.u8()? {
        PHASE_WARMUP => None,
        PHASE_MEASUREMENT => {
            let sender_base = Vec::<SenderBaseline>::take(r)?;
            if sender_base.len() != flows {
                return Err(SnapError::Corrupt(format!(
                    "checkpoint has {} sender baselines for {flows} flows",
                    sender_base.len()
                )));
            }
            let mut tracker = ThroughputTracker::new(window_snapshots);
            tracker.load_state(r)?;
            Some(Measurement {
                sender_base,
                tracker,
            })
        }
        tag => return Err(SnapError::Corrupt(format!("unknown phase tag {tag}"))),
    };
    if !r.is_exhausted() {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes after checkpoint body",
            r.remaining()
        )));
    }
    Ok(measure)
}

/// The slice boundaries at which a run of `scenario` can take a
/// checkpoint, in time order: every warm-up slice end (including the
/// warm-up boundary itself) followed by every measurement slice end, up to
/// the horizon. The runner walks exactly this list.
pub fn slice_boundaries(scenario: &Scenario) -> Vec<SimTime> {
    let warmup_end = SimTime::ZERO + scenario.warmup;
    let horizon = warmup_end + scenario.duration;
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    while t < warmup_end {
        t = (t + scenario.snapshot_interval).min(warmup_end);
        out.push(t);
    }
    let mut t = warmup_end;
    while t < horizon {
        t = (t + scenario.snapshot_interval).min(horizon);
        out.push(t);
    }
    out
}

/// Where two runs first diverge, as found by [`bisect_divergence`].
#[derive(Debug)]
pub struct DivergencePoint {
    /// Zero-based index into [`slice_boundaries`].
    pub slice: usize,
    /// The simulated instant of that boundary.
    pub at: SimTime,
    /// State digests of the two checkpoints at the divergent boundary.
    pub digest_a: u64,
    pub digest_b: u64,
    /// The two full states, for offline inspection.
    pub checkpoint_a: Checkpoint,
    pub checkpoint_b: Checkpoint,
}

/// Result of a divergence bisection.
#[derive(Debug)]
pub struct BisectOutcome {
    /// The probed slice boundaries (shared by both scenarios).
    pub boundaries: Vec<SimTime>,
    /// The earliest slice whose states differ, or `None` if the runs are
    /// state-identical at every probed boundary.
    pub first_divergence: Option<DivergencePoint>,
}

/// Binary-search for the first slice boundary at which runs of `a` and
/// `b` hold different simulation state.
///
/// Both scenarios must share the same slicing (warm-up, duration,
/// snapshot interval). Convergence-based early stopping is disabled for
/// the probes so every boundary is reachable. `on_probe` is called after
/// each probe pair with `(slice_index, boundary_time, diverged)`.
pub fn bisect_divergence(
    a: &Scenario,
    b: &Scenario,
    on_probe: &mut dyn FnMut(usize, SimTime, bool),
) -> Result<BisectOutcome, SimError> {
    let mut a = a.clone();
    let mut b = b.clone();
    a.convergence = None;
    b.convergence = None;
    if a.warmup != b.warmup
        || a.duration != b.duration
        || a.snapshot_interval != b.snapshot_interval
    {
        return Err(SimError::Resume(ResumeError::Corrupt(
            "bisect requires both scenarios to share warmup, duration, and \
             snapshot interval"
                .into(),
        )));
    }
    let boundaries = slice_boundaries(&a);
    if boundaries.is_empty() {
        return Err(SimError::Resume(ResumeError::Corrupt(
            "scenario has no slice boundaries to probe".into(),
        )));
    }

    let probe = |k: usize,
                 on_probe: &mut dyn FnMut(usize, SimTime, bool)|
     -> Result<(Checkpoint, Checkpoint, bool), SimError> {
        let at = boundaries[k];
        let ca = RunRequest::new(&a).checkpoint_at(at).capture()?;
        let cb = RunRequest::new(&b).checkpoint_at(at).capture()?;
        let diverged = ca.state_digest() != cb.state_digest();
        on_probe(k, at, diverged);
        Ok((ca, cb, diverged))
    };

    // If the final states agree, the runs never diverged.
    let last = boundaries.len() - 1;
    let (ca, cb, diverged) = probe(last, on_probe)?;
    if !diverged {
        return Ok(BisectOutcome {
            boundaries,
            first_divergence: None,
        });
    }

    // Invariant: state at `hi` diverges; everything below `lo` agrees.
    let (mut lo, mut hi) = (0, last);
    let (mut best_a, mut best_b) = (ca, cb);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (ca, cb, diverged) = probe(mid, on_probe)?;
        if diverged {
            hi = mid;
            best_a = ca;
            best_b = cb;
        } else {
            lo = mid + 1;
        }
    }

    let (digest_a, digest_b) = (best_a.state_digest(), best_b.state_digest());
    Ok(BisectOutcome {
        first_divergence: Some(DivergencePoint {
            slice: hi,
            at: boundaries[hi],
            digest_a,
            digest_b,
            checkpoint_a: best_a,
            checkpoint_b: best_b,
        }),
        boundaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::run;
    use crate::scenario::FlowGroup;
    use ccsim_cca::CcaKind;
    use ccsim_sim::{Bandwidth, SimDuration};

    /// A fast scenario: 2 reno flows, 1 s warm-up, 4 s measurement, 1 s
    /// slices.
    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::edge_scale()
            .named("ckpt-tiny")
            .flows(vec![FlowGroup::new(
                CcaKind::Reno,
                2,
                SimDuration::from_millis(20),
            )])
            .seed(seed);
        s.bottleneck = Bandwidth::from_mbps(10);
        s.buffer_bytes = 100_000;
        s.start_jitter = SimDuration::from_millis(100);
        s.warmup = SimDuration::from_secs(1);
        s.duration = SimDuration::from_secs(4);
        s.convergence = None;
        s
    }

    fn capture_at(s: &Scenario, at: SimTime) -> Result<Checkpoint, SimError> {
        Ok(RunRequest::new(s).checkpoint_at(at).capture()?)
    }

    fn resume(cp: &Checkpoint) -> crate::outcome::RunOutcome {
        RunRequest::resume(cp).execute().unwrap().outcome
    }

    #[test]
    fn resume_from_measurement_checkpoint_reproduces_the_run() {
        let s = tiny(3);
        let full = run(&s);
        let mid = SimTime::ZERO + s.warmup + SimDuration::from_secs(2);
        let cp = capture_at(&s, mid).unwrap();
        assert_eq!(cp.taken_at_nanos, mid.as_nanos());
        // Round-trip the container exactly as a file load would.
        let cp = Checkpoint::decode(&cp.encode()).unwrap();
        let resumed = resume(&cp);
        assert_eq!(full.to_json(), resumed.to_json());
        assert_eq!(full.digest(), resumed.digest());
        assert_eq!(full.events_processed, resumed.events_processed);
    }

    #[test]
    fn resume_from_warmup_checkpoint_reproduces_the_run() {
        // A 3 s warm-up leaves interior warm-up boundaries to probe.
        let mut s = tiny(5);
        s.warmup = SimDuration::from_secs(3);
        let full = run(&s);
        let cp = capture_at(&s, SimTime::from_secs(1)).unwrap();
        let resumed = resume(&cp);
        assert_eq!(full.to_json(), resumed.to_json());
    }

    #[test]
    fn capture_en_route_is_digest_inert() {
        let s = tiny(7);
        let plain = run(&s);
        let mid = SimTime::ZERO + s.warmup + SimDuration::from_secs(1);
        let report = RunRequest::new(&s).checkpoint_at(mid).execute().unwrap();
        assert_eq!(plain.to_json(), report.outcome.to_json());
        let cp = report
            .checkpoint
            .expect("boundary inside the horizon yields a checkpoint");
        assert_eq!(
            cp.state_digest(),
            capture_at(&s, mid).unwrap().state_digest()
        );
    }

    #[test]
    fn checkpoint_past_the_horizon_is_a_typed_error() {
        let s = tiny(1);
        let err = capture_at(&s, SimTime::from_secs(600)).unwrap_err();
        assert_eq!(err.class(), "resume");
    }

    #[test]
    fn boundaries_cover_warmup_and_measurement() {
        let s = tiny(1);
        let b = slice_boundaries(&s);
        assert_eq!(
            b,
            [1, 2, 3, 4, 5].map(SimTime::from_secs).to_vec(),
            "1 s warm-up + 4 s measurement at 1 s slices"
        );
    }

    #[test]
    fn bisect_reports_identical_runs_as_identical() {
        let mut probes = 0;
        let out = bisect_divergence(&tiny(2), &tiny(2), &mut |_, _, d| {
            probes += 1;
            assert!(!d);
        })
        .unwrap();
        assert!(out.first_divergence.is_none());
        assert_eq!(probes, 1, "identical runs need only the final probe");
    }

    #[test]
    fn bisect_pinpoints_the_first_divergent_slice() {
        // Different seeds draw different start jitter, so state diverges
        // at the very first slice boundary.
        let out = bisect_divergence(&tiny(1), &tiny(2), &mut |_, _, _| {}).unwrap();
        let d = out.first_divergence.expect("seeds differ");
        assert_eq!(d.slice, 0);
        assert_eq!(d.at, SimTime::from_secs(1));
        assert_ne!(d.digest_a, d.digest_b);
    }

    #[test]
    fn bisect_rejects_mismatched_slicing() {
        let a = tiny(1);
        let mut b = tiny(1);
        b.duration = SimDuration::from_secs(5);
        let err = bisect_divergence(&a, &b, &mut |_, _, _| {}).unwrap_err();
        assert_eq!(err.class(), "resume");
    }

    #[test]
    fn truncated_body_is_a_typed_error_not_a_panic() {
        // A small mixed body: BBR and Cubic through CoDel with ECN, a fault
        // plan whose injector holds a burst-loss model, and a flight
        // recorder with a tight budget, captured in the measurement phase.
        let mut s = tiny(4);
        s.flows = vec![
            FlowGroup::new(CcaKind::Bbr, 1, SimDuration::from_millis(20)),
            FlowGroup::new(CcaKind::Cubic, 1, SimDuration::from_millis(30)),
        ];
        s.aqm = ccsim_net::AqmKind::Codel;
        s.ecn = true;
        s.warmup = SimDuration::from_millis(500);
        s.trace = ccsim_trace::TraceConfig {
            max_bytes: 2048,
            ..ccsim_trace::TraceConfig::standard()
        };
        s.fault = ccsim_fault::FaultPlan::none()
            .blackout(SimTime::from_millis(300), SimDuration::from_millis(20))
            .burst_loss(SimTime::from_millis(600), 0.02, 0.5);
        let body = capture_at(&s, SimTime::from_secs(1)).unwrap().body;
        let restore = |bytes: &[u8]| {
            let mut net = crate::build::BuiltNetwork::try_build(&s).unwrap();
            let mut wd = Watchdog::new(s.watchdog);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                restore_into(&mut net, &mut wd, 0, bytes).is_ok()
            }))
        };
        assert_eq!(restore(&body).ok(), Some(true), "the intact body loads");
        let mut panicked = Vec::new();
        for cut in 0..body.len() {
            match restore(&body[..cut]) {
                Ok(loaded) => assert!(!loaded, "a body cut at {cut} loaded"),
                Err(_) => panicked.push(format!("cut at {cut}")),
            }
        }
        let mut flipped = body.clone();
        for at in 0..body.len() {
            flipped[at] ^= 0xFF;
            if restore(&flipped).is_err() {
                panicked.push(format!("flip at {at}"));
            }
            flipped[at] ^= 0xFF;
        }
        assert!(panicked.is_empty(), "restore panicked on: {panicked:?}");
    }

    #[test]
    fn flow_count_mismatch_is_a_typed_error() {
        let s = tiny(4);
        let cp = capture_at(&s, SimTime::from_secs(2)).unwrap();
        let mut other = tiny(4);
        other.flows = vec![FlowGroup::new(
            CcaKind::Reno,
            3,
            SimDuration::from_millis(20),
        )];
        let mut net = crate::build::BuiltNetwork::try_build(&other).unwrap();
        let mut wd = Watchdog::new(other.watchdog);
        let err = restore_into(&mut net, &mut wd, 0, &cp.body).unwrap_err();
        assert!(err.to_string().contains("flows"), "{err}");
    }
}
