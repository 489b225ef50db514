//! Codec-level float round-trip property: a scenario document written by
//! `ccsim_core::codec` and read back through `ccsim_sim::json` must
//! preserve its one float field (the convergence tolerance) bit-for-bit —
//! including -0.0, subnormals, and magnitudes whose positional expansion
//! would be hundreds of digits — and a second encode must be
//! byte-identical to the first.

use ccsim_core::codec::{scenario_from_json, scenario_to_json};
use ccsim_core::scenario::{ConvergenceRule, Scenario};
use proptest::prelude::*;

fn finite_from_bits(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else if v.is_nan() {
        5e-324 // smallest subnormal: a historical trouble spot
    } else {
        f64::MAX.copysign(v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tolerance_survives_encode_decode_bit_exact(bits in 0u64..u64::MAX) {
        let tolerance = finite_from_bits(bits);
        let mut s = Scenario::edge_scale();
        s.convergence = Some(ConvergenceRule {
            window_snapshots: 5,
            tolerance,
        });
        let json = scenario_to_json(&s);
        let back = scenario_from_json(&json).expect("codec output must parse");
        let got = back.convergence.as_ref().expect("rule present").tolerance;
        prop_assert_eq!(got.to_bits(), tolerance.to_bits(), "tolerance must be bit-exact");
        prop_assert_eq!(scenario_to_json(&back), json, "re-encode must be byte-identical");
    }
}

#[test]
fn non_finite_tolerance_still_produces_valid_json() {
    // The old `{:?}` formatting emitted the literal `inf`, which the
    // parser rejects — a crash bundle with a corrupted rule became
    // unreplayable. The JSON writer degrades it to 0 instead.
    let mut s = Scenario::edge_scale();
    s.convergence = Some(ConvergenceRule {
        window_snapshots: 3,
        tolerance: f64::INFINITY,
    });
    let json = scenario_to_json(&s);
    let back = scenario_from_json(&json).expect("document must stay parseable");
    assert_eq!(back.convergence.unwrap().tolerance, 0.0);
}
