//! One table of scenario settings.
//!
//! The knobs the paper sweeps — preset, fidelity, bandwidth, buffer, flow
//! groups, times, topology, AQM, ECN and the batching knobs — are each one
//! row of [`SETTINGS`]: a spec key, the CLI flag if there is one, a
//! metavar, a help line and one `apply` function that sets the value on a
//! [`Scenario`]. The CLI's scenario flags, the keys of a campaign spec's
//! compact `base` form and every campaign axis look their knob up here,
//! so a knob is spelled, parsed and documented in one place.
//!
//! Values reach `apply` as one [`Json`] value: a spec hands over what it
//! wrote, the CLI a flag's text as a string, a switch as `true` and a
//! repeatable flag's values as one array. Numbers are accepted as JSON
//! numbers or as their decimal text, and every time goes through
//! [`parse_time`].
//!
//! [`build`] applies rows in table order, whatever order they were given
//! in: `preset` first, then `fidelity`, then the rest, so an explicit time
//! wins over the fidelity's. Setting the warm-up caps the start jitter the
//! scenario had at the new warm-up; an explicit jitter applies after it
//! and is taken as given, so one longer than the warm-up fails
//! [`Scenario::validate`].

use crate::scenario::{Fidelity, FlowGroup, Scenario};
use ccsim_cca::CcaKind;
use ccsim_net::AqmKind;
use ccsim_sim::json::Json;
use ccsim_sim::{Bandwidth, SimDuration};
use ccsim_topo::TopologyKind;
use std::fmt;

/// Nanoseconds per unit of a time value.
pub const SECS: u64 = 1_000_000_000;
pub const MILLIS: u64 = 1_000_000;

/// Parse a time value given in units of `unit` nanoseconds. Whole numbers
/// convert exactly; fractions round to the nearest nanosecond exactly as
/// `SimDuration::from_secs_f64` does. Negative, non-finite and
/// nanosecond-overflowing values are `None`.
pub fn parse_time(text: &str, unit: u64) -> Option<SimDuration> {
    let nanos = match text.parse::<u64>() {
        Ok(whole) => whole.checked_mul(unit)?,
        Err(_) => {
            let secs = text.parse::<f64>().ok()? / (SECS / unit) as f64;
            let nanos = (secs * 1e9).round();
            // `u64::MAX as f64` is 2^64, the first value that overflows.
            if !(secs >= 0.0 && nanos < u64::MAX as f64) {
                return None;
            }
            nanos as u64
        }
    };
    Some(SimDuration::from_nanos(nanos))
}

/// Set one knob from a value, or say why the value does not fit.
type Apply = fn(&mut Scenario, &Json) -> Result<(), String>;

/// One scenario knob, as every front end spells it.
pub struct Setting {
    /// The key in a spec's compact `base` form and in an axis's `param`.
    pub key: &'static str,
    /// The `ccsim` run flag, for the knobs the CLI takes.
    pub flag: Option<&'static str>,
    /// What a value looks like; `None` for a CLI switch.
    pub metavar: Option<&'static str>,
    pub help: &'static str,
    /// A CLI flag that may repeat: its values reach `apply` as one array.
    pub many: bool,
    /// Sets more than its own knob (a preset, a fidelity, the flow
    /// groups), so it may not be an axis: axes apply on top of the built
    /// base and must not undo one another.
    pub overwrites: bool,
    apply: Apply,
}

const fn row(
    key: &'static str,
    flag: Option<&'static str>,
    metavar: Option<&'static str>,
    help: &'static str,
    apply: Apply,
) -> Setting {
    Setting {
        key,
        flag,
        metavar,
        help,
        many: false,
        overwrites: false,
        apply,
    }
}

impl Setting {
    const fn many(self) -> Setting {
        Setting { many: true, ..self }
    }

    const fn overwrites(self) -> Setting {
        Setting {
            overwrites: true,
            ..self
        }
    }

    /// The row spelled `key` in a spec.
    pub fn find(key: &str) -> Option<&'static Setting> {
        SETTINGS.iter().find(|s| s.key == key)
    }

    /// Set this knob on `scenario`.
    pub fn apply(&'static self, scenario: &mut Scenario, value: &Json) -> Result<(), SettingError> {
        (self.apply)(scenario, value).map_err(|reason| SettingError {
            setting: self,
            reason,
        })
    }
}

impl fmt::Debug for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Setting({})", self.key)
    }
}

/// Rows are compared by their key, which is unique in the table.
impl PartialEq for Setting {
    fn eq(&self, other: &Setting) -> bool {
        self.key == other.key
    }
}

impl Eq for Setting {}

/// A value that does not fit its setting.
#[derive(Debug)]
pub struct SettingError {
    pub setting: &'static Setting,
    /// What is wrong, quoting the value.
    pub reason: String,
}

impl fmt::Display for SettingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.setting.key, self.reason)
    }
}

/// Every scenario knob, in the order [`build`] applies them and the CLI's
/// help lists them. One row per line, so rustfmt leaves the table alone.
#[rustfmt::skip]
pub static SETTINGS: &[Setting] = &[
    row("preset", Some("--setting"), Some("edge|core|mega"), "EdgeScale (default), CoreScale or MegaScale preset", |s, v| {
        let presets = [Scenario::edge_scale, Scenario::core_scale, Scenario::mega_scale];
        choice(v, &["edge", "core", "mega"]).map(|i| *s = presets[i]())
    }).overwrites(),
    row("fidelity", Some("--fidelity"), Some("quick|standard|paper"), "jitter/warm-up/duration preset; explicit times win", |s, v| {
        let fidelities = [Fidelity::Quick, Fidelity::Standard, Fidelity::Paper];
        choice(v, &["quick", "standard", "paper"]).map(|i| *s = s.clone().fidelity(fidelities[i]))
    }).overwrites(),
    row("bw_mbps", Some("--bw"), Some("<mbps>"), "bottleneck rate", |s, v| number(v).map(|n| s.bottleneck = Bandwidth::from_mbps(n))),
    row("buffer_bytes", Some("--buffer"), Some("<bytes>"), "bottleneck buffer", |s, v| number(v).map(|n| s.buffer_bytes = n)),
    row("flows", Some("--flows"), Some("<cca>:<count>:<rtt_ms>"), "a flow group (repeatable)", |s, v| {
        let groups = v.as_arr().ok_or_else(|| format!("{} is not a list of flow groups", shown(v)))?;
        groups.iter().map(flow_group).collect::<Result<_, _>>().map(|flows| s.flows = flows)
    }).many().overwrites(),
    row("topology", Some("--topology"), Some("<topology>"), "single|dumbbell|parking_lot:<n>|dumbbell_asym", |s, v| parsed(v, "a topology", TopologyKind::parse).map(|t| s.topology = t)),
    row("aqm", Some("--aqm"), Some("droptail|red|codel|pie"), "queue discipline of every link", |s, v| parsed(v, "an AQM", AqmKind::parse).map(|a| s.aqm = a)),
    row("ecn", Some("--ecn"), None, "ECN marking and response", |s, v| switch(v).map(|on| s.ecn = on)),
    // A jitter inherited from a preset is capped at the new warm-up.
    row("warmup_s", Some("--warmup"), Some("<secs>"), "warm-up, excluded from measurement", |s, v| time(v, SECS).map(|t| (s.warmup, s.start_jitter) = (t, s.start_jitter.min(t)))),
    row("duration_s", Some("--duration"), Some("<secs>"), "measurement window", |s, v| time(v, SECS).map(|t| s.duration = t)),
    row("jitter_s", Some("--jitter"), Some("<secs>"), "flow start jitter (at most the warm-up)", |s, v| time(v, SECS).map(|t| s.start_jitter = t)),
    row("snapshot_ms", None, Some("<ms>"), "snapshot slice", |s, v| time(v, MILLIS).map(|t| s.snapshot_interval = t)),
    row("convergence", None, Some("true|false"), "false: measure the whole window", |s, v| switch(v).map(|on| s.convergence = s.convergence.filter(|_| on))),
    row("delack_segments", None, Some("<n>"), "full-size segments per ACK", |s, v| number(v).map(|n| s.tuning.delack_segments = n)),
    row("tx_burst", None, Some("<n>"), "packets a link serializes per event", |s, v| number(v).map(|n| s.tuning.tx_burst = n)),
    row("cca", None, Some("<cca>"), "the CCA of every flow group", |s, v| parsed(v, "a CCA", |t| t.parse().ok()).map(|cca| s.flows.iter_mut().for_each(|g| g.cca = cca))),
    row("flow_count", None, Some("<n>[+<n>...]"), "flows in every group, or in each group in turn", flow_counts),
    row("rtt_ms", None, Some("<ms>"), "base RTT of every flow group", |s, v| time(v, MILLIS).map(|rtt| s.flows.iter_mut().for_each(|g| g.base_rtt = rtt))),
];

/// The scenario `given` describes: EdgeScale with each row's value
/// applied, rows in table order (see the module docs).
pub fn build(given: &[(&'static Setting, Json)]) -> Result<Scenario, SettingError> {
    let mut scenario = Scenario::edge_scale();
    for row in SETTINGS {
        for (setting, value) in given.iter().filter(|(s, _)| *s == row) {
            setting.apply(&mut scenario, value)?;
        }
    }
    Ok(scenario)
}

/// `v` quoted for an error message.
fn shown(v: &Json) -> String {
    match text(v) {
        Some(t) => format!("\"{t}\""),
        None => v.render(),
    }
}

/// A string, or a number's decimal text.
fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(t) | Json::Num(t) => Some(t),
        _ => None,
    }
}

fn parsed<T>(v: &Json, what: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
    text(v)
        .and_then(parse)
        .ok_or_else(|| format!("{} is not {what}", shown(v)))
}

fn number<T: std::str::FromStr>(v: &Json) -> Result<T, String> {
    parsed(v, "a whole number", |t| t.parse().ok())
}

fn time(v: &Json, unit: u64) -> Result<SimDuration, String> {
    parsed(v, "a time", |t| parse_time(t, unit))
}

/// The index of `v` among `choices`.
fn choice(v: &Json, choices: &[&str]) -> Result<usize, String> {
    let what = format!("one of {}", choices.join(", "));
    parsed(v, &what, |t| choices.iter().position(|&c| c == t))
}

fn switch(v: &Json) -> Result<bool, String> {
    match v {
        Json::Bool(on) => Ok(*on),
        _ => parsed(v, "on/off/true/false/1/0", |t| match t {
            "on" | "true" | "1" => Some(true),
            "off" | "false" | "0" => Some(false),
            _ => None,
        }),
    }
}

/// One flow group: `{"cca": .., "count": .., "rtt_ms": ..}`, or the CLI's
/// `cca:count:rtt_ms`.
fn flow_group(v: &Json) -> Result<FlowGroup, String> {
    let parts: Vec<Json> = match v {
        Json::Str(t) => t.split(':').map(|p| Json::Str(p.into())).collect(),
        Json::Obj(_) => ["cca", "count", "rtt_ms"]
            .iter()
            .map(|k| v.get(k).cloned().unwrap_or(Json::Null))
            .collect(),
        _ => Vec::new(),
    };
    let [cca, count, rtt] = &parts[..] else {
        return Err(format!("{} is not <cca>:<count>:<rtt_ms>", shown(v)));
    };
    let cca = parsed(cca, "a CCA", |t| t.parse::<CcaKind>().ok())?;
    Ok(FlowGroup::new(cca, number(count)?, time(rtt, MILLIS)?))
}

/// One count for every group (`1000`), or one per group joined by `+`
/// (`1+1000`).
fn flow_counts(s: &mut Scenario, v: &Json) -> Result<(), String> {
    let bad = || format!("bad count {}", shown(v));
    let counts: Vec<u32> = text(v)
        .ok_or_else(bad)?
        .split('+')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    if counts.len() != 1 && counts.len() != s.flows.len() {
        return Err(format!(
            "{} names {} counts but the base has {} flow groups",
            shown(v),
            counts.len(),
            s.flows.len()
        ));
    }
    // A single count cycles onto every group.
    for (g, &count) in s.flows.iter_mut().zip(counts.iter().cycle()) {
        g.count = count;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_one(key: &str, value: Json) -> Result<Scenario, SettingError> {
        build(&[(Setting::find(key).expect("a row"), value)])
    }

    fn str(t: &str) -> Json {
        Json::Str(t.into())
    }

    #[test]
    fn keys_and_flags_are_unique() {
        for (i, a) in SETTINGS.iter().enumerate() {
            for b in &SETTINGS[i + 1..] {
                assert_ne!(a.key, b.key);
                assert!(a.flag.is_none() || a.flag != b.flag, "{}", a.key);
            }
        }
    }

    #[test]
    fn values_come_as_json_or_as_text_and_bad_ones_are_quoted() {
        for v in [Json::Num("25".into()), str("25")] {
            let s = build_one("bw_mbps", v).unwrap();
            assert_eq!(s.bottleneck, Bandwidth::from_mbps(25));
        }
        let object = Json::parse(r#"[{"cca": "bbr", "count": 3, "rtt_ms": 20.5}]"#).unwrap();
        for flows in [object, Json::Arr(vec![str("bbr:3:20.5")])] {
            let rtt = SimDuration::from_micros(20_500);
            let s = build_one("flows", flows).unwrap();
            assert_eq!(s.flows, [FlowGroup::new(CcaKind::Bbr, 3, rtt)]);
        }
        for on in [Json::Bool(true), str("on"), Json::Num("1".into())] {
            assert!(build_one("ecn", on).unwrap().ecn);
        }
        for (key, value, reason) in [
            ("warmup_s", str("-1"), "\"-1\" is not a time"),
            (
                "preset",
                str("huge"),
                "\"huge\" is not one of edge, core, mega",
            ),
            (
                "flows",
                str("reno:2:20"),
                "\"reno:2:20\" is not a list of flow groups",
            ),
            (
                "flows",
                Json::Arr(vec![str("reno:2")]),
                "\"reno:2\" is not <cca>:<count>:<rtt_ms>",
            ),
        ] {
            let err = build_one(key, value).unwrap_err();
            assert_eq!(err.to_string(), format!("{key}: {reason}"));
        }
    }
}
