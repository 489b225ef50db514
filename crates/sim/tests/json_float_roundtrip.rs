//! Float round-trip property of the JSON layer: every float
//! `ccsim_sim::json::JsonWriter::f64` emits must be (a) accepted by
//! `Json::parse`, (b) bit-exact after parsing, and (c) a byte-level
//! fixpoint under write → parse → write. Exercised over arbitrary bit
//! patterns so -0.0, subnormals, and huge-magnitude values are all
//! covered. (The schema-level float properties — fault-plan rates, the
//! scenario codec's tolerance — live with their crates:
//! `crates/fault/tests/plan_float_roundtrip.rs`,
//! `crates/core/tests/codec_float_roundtrip.rs`.)

use ccsim_sim::json::{Json, JsonWriter};
use proptest::prelude::*;

fn written(v: f64) -> String {
    let mut out = String::new();
    JsonWriter::compact(&mut out).f64(v);
    out
}

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

    /// write → parse → write is a byte-level fixpoint, and the parsed
    /// value is bit-exact, for arbitrary finite floats.
    #[test]
    fn format_parse_format_is_fixpoint(bits in 0u64..u64::MAX) {
        let x = finite_from_bits(bits);
        let mut doc = String::new();
        JsonWriter::compact(&mut doc).obj(|w| w.key("v").f64(x));
        let parsed = Json::parse(&doc).expect("writer output must be parseable");
        let y = parsed.req_f64("v").expect("numeric field");
        prop_assert_eq!(y.to_bits(), x.to_bits(), "parse must be bit-exact");
        prop_assert_eq!(written(y), written(x), "rewrite must be a fixpoint");
    }
}

#[test]
fn parser_accepts_edge_case_literals() {
    // The exact spellings the writer emits for the historical trouble
    // spots: negative zero, the smallest subnormal, and a magnitude whose
    // positional expansion would be 300+ digits.
    for (text, bits) in [
        ("-0.0", (-0.0f64).to_bits()),
        ("5e-324", 5e-324f64.to_bits()),
        ("1e300", 1e300f64.to_bits()),
        ("2.2250738585072014e-308", f64::MIN_POSITIVE.to_bits()),
    ] {
        assert_eq!(written(f64::from_bits(bits)), text);
        let doc = Json::parse(&format!("[{text}]")).unwrap();
        let v = doc.as_arr().unwrap()[0].as_f64().unwrap();
        assert_eq!(v.to_bits(), bits, "{text} must parse bit-exact");
    }
}
