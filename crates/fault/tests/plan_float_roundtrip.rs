//! Fault-plan float round-trip: loss/reorder/duplicate rates written by
//! `FaultPlan::to_json` (through `ccsim_sim::json::JsonWriter::f64`) come
//! back bit-exact, and a second encode is byte-identical to the first.
//! The writer-level property lives in
//! `crates/sim/tests/json_float_roundtrip.rs`.

use ccsim_fault::FaultPlan;
use ccsim_sim::SimTime;
use proptest::prelude::*;

/// Interpret arbitrary bits as f64, folding non-finite patterns onto
/// finite edge cases so every generated case exercises the real path.
fn finite_from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else if v.is_nan() {
        f64::MIN_POSITIVE // a normal-boundary value
    } else {
        f64::MAX.copysign(v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A fault plan whose loss/reorder/duplicate rates are arbitrary
    /// finite floats survives to_json → from_json bit-for-bit, and a
    /// second encode is byte-identical to the first.
    #[test]
    fn fault_plan_rates_round_trip(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let enter = finite_from_bits(a).abs();
        let exit = finite_from_bits(b).abs();
        let plan = FaultPlan::none()
            .burst_loss(SimTime::from_secs(1), enter, exit)
            .iid_loss(SimTime::from_secs(2), exit);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("plan JSON must parse");
        prop_assert_eq!(back.to_json(), json, "decode -> encode must be byte-identical");
    }
}

#[test]
fn non_finite_rates_degrade_to_valid_json() {
    // Non-finite floats must never corrupt a document: the writer
    // degrades them to 0 and the plan still parses.
    let plan = FaultPlan::none().iid_loss(SimTime::from_secs(1), f64::NAN);
    let json = plan.to_json();
    assert!(FaultPlan::from_json(&json).is_ok(), "emitted: {json}");
}
