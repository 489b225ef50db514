//! The assembled per-run [`Profile`]: event attribution cells, scheduler
//! internals, and memory gauges, with JSON round-trip, folded-stack
//! flamegraph export, and a human-readable table.
//!
//! The JSON document is a single compact line of **integers only** (no
//! floats), embedded verbatim in both manifest layouts and therefore in
//! every ledger line. Key names carry a `prof_` / `wheel_` / `pool`
//! prefix. Nothing needs that any more — it dates from a manifest reader
//! that extracted fields by first textual occurrence — but committed
//! ledgers and CI's `grep -o '"wheel_sends_now":…'` carry the names, so
//! they are the format.

use ccsim_sim::json::{Json, JsonError, JsonWriter};
use ccsim_sim::WheelStats;
use std::fmt::Write as _;

/// Event-attribution cells: exact counts and strided wall samples per
/// (component class × event kind), row-major `class × kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCells {
    /// Component class names (row labels).
    pub classes: Vec<String>,
    /// Event kind names (column labels).
    pub kinds: Vec<String>,
    /// Sampling stride in events (one `Instant` per `stride` dispatches).
    pub stride: u64,
    /// Exact events dispatched per cell.
    pub counts: Vec<u64>,
    /// Sampled wall nanoseconds charged per cell (non-deterministic).
    pub nanos: Vec<u64>,
    /// Samples charged per cell (deterministic given the event stream).
    pub samples: Vec<u64>,
}

impl EventCells {
    /// The cell index for (class, kind).
    fn cell(&self, class: usize, kind: usize) -> usize {
        class * self.kinds.len() + kind
    }

    /// Exact event count of one cell.
    pub fn count(&self, class: usize, kind: usize) -> u64 {
        self.counts[self.cell(class, kind)]
    }

    /// Total events across all cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Event counts per kind, summed over classes, in kind order.
    pub fn per_kind_counts(&self) -> Vec<(String, u64)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let n = (0..self.classes.len()).map(|c| self.count(c, k)).sum();
                (name.clone(), n)
            })
            .collect()
    }
}

/// Owned, serializable mirror of the engine's [`WheelStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WheelProfile {
    /// Per-level occupancy high-water marks.
    pub level_high_water: Vec<u64>,
    /// Higher-level slot drains (entries re-routed downward).
    pub cascades: u64,
    /// Live entries moved by those cascades.
    pub cascaded_entries: u64,
    /// log2 histogram of same-timestamp dispatch batch sizes.
    pub batch_hist: Vec<u64>,
    /// Cancellations that hit a live event.
    pub cancels: u64,
    /// Cancel calls on stale tokens (the null token is not counted).
    pub cancel_misses: u64,
    /// Events scheduled cancellable (rearmable timers).
    pub cancellable_scheduled: u64,
    /// Of those, re-arms that took over the key a cancel left in the queue.
    pub revived: u64,
    /// Same-instant sends that took the FIFO lane (every `Ctx::send`).
    pub sends_now: u64,
    /// Times the lane fell back to the overlay heap because another key
    /// shared its instant (under 1 % of sends on the CoreScale smoke).
    pub lane_merges: u64,
}

impl From<&WheelStats> for WheelProfile {
    fn from(s: &WheelStats) -> WheelProfile {
        WheelProfile {
            level_high_water: s.level_high_water.to_vec(),
            cascades: s.cascades,
            cascaded_entries: s.cascaded_entries,
            batch_hist: s.batch_hist.to_vec(),
            cancels: s.cancels,
            cancel_misses: s.cancel_misses,
            cancellable_scheduled: s.cancellable_scheduled,
            revived: s.revived,
            sends_now: s.sends_now,
            lane_merges: s.lane_merges,
        }
    }
}

/// One named memory gauge: a subsystem's bytes at collection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemGauge {
    /// Pool name (`subsystem/pool`).
    pub name: String,
    /// Bytes held.
    pub bytes: u64,
}

/// The complete per-run profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Event attribution cells.
    pub events: EventCells,
    /// Timer-wheel scheduler counters.
    pub wheel: WheelProfile,
    /// Subsystem memory gauges, sorted by name.
    pub memory: Vec<MemGauge>,
    /// Engine dispatch wall time for the whole run, nanoseconds
    /// (non-deterministic; the denominator of per-kind events/s).
    pub dispatch_nanos: u64,
    /// Flow count (the denominator of memory-per-flow).
    pub flows: u32,
}

impl Profile {
    /// Per-kind events per second of engine dispatch time. Empty when no
    /// dispatch time was recorded.
    pub fn per_kind_events_per_sec(&self) -> Vec<(String, f64)> {
        if self.dispatch_nanos == 0 {
            return Vec::new();
        }
        let secs = self.dispatch_nanos as f64 / 1e9;
        self.events
            .per_kind_counts()
            .into_iter()
            .map(|(k, n)| (k, ccsim_sim::safe_rate(n as f64, secs)))
            .collect()
    }

    /// Total accounted bytes across all memory gauges.
    pub fn memory_total_bytes(&self) -> u64 {
        self.memory.iter().map(|g| g.bytes).sum()
    }

    /// Accounted bytes per flow (`None` with zero flows).
    pub fn memory_per_flow(&self) -> Option<f64> {
        if self.flows == 0 {
            None
        } else {
            Some(self.memory_total_bytes() as f64 / self.flows as f64)
        }
    }

    /// A copy with every wall-clock nanosecond zeroed. Two same-seed runs
    /// produce byte-identical `normalized().to_json()` output — the
    /// profiler-determinism contract tested in `tests/integration_prof.rs`.
    pub fn normalized(&self) -> Profile {
        let mut p = self.clone();
        p.events.nanos.iter_mut().for_each(|n| *n = 0);
        p.dispatch_nanos = 0;
        p
    }

    /// Single-line JSON document (integers only; see module docs). The
    /// two lane counters are written together or — when both are zero,
    /// which is what a profile recorded before the same-instant lane
    /// parses to — not at all, so such ledger lines re-serialize
    /// byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        JsonWriter::compact(&mut out).obj(|w| {
            let u64s = |w: &mut JsonWriter<'_>, v: &[u64]| w.arr(v, |w, n| w.u64(*n));
            let strs = |w: &mut JsonWriter<'_>, v: &[String]| w.arr(v, |w, s| w.str(s));
            strs(w.key("prof_classes"), &self.events.classes);
            strs(w.key("prof_kinds"), &self.events.kinds);
            w.key("prof_stride").u64(self.events.stride);
            u64s(w.key("prof_counts"), &self.events.counts);
            u64s(w.key("prof_nanos"), &self.events.nanos);
            u64s(w.key("prof_samples"), &self.events.samples);
            u64s(w.key("wheel_high_water"), &self.wheel.level_high_water);
            w.key("wheel_cascades").u64(self.wheel.cascades);
            w.key("wheel_cascaded").u64(self.wheel.cascaded_entries);
            u64s(w.key("wheel_batch_hist"), &self.wheel.batch_hist);
            w.key("wheel_cancels").u64(self.wheel.cancels);
            w.key("wheel_cancel_misses").u64(self.wheel.cancel_misses);
            w.key("wheel_cancellable")
                .u64(self.wheel.cancellable_scheduled);
            if self.wheel.revived != 0 {
                w.key("wheel_revived").u64(self.wheel.revived);
            }
            if (self.wheel.sends_now, self.wheel.lane_merges) != (0, 0) {
                w.key("wheel_sends_now").u64(self.wheel.sends_now);
                w.key("wheel_lane_merges").u64(self.wheel.lane_merges);
            }
            w.key("mem_accounts").arr(&self.memory, |w, g| {
                w.obj(|w| {
                    w.key("pool").str(&g.name);
                    w.key("pool_bytes").u64(g.bytes);
                })
            });
            w.key("dispatch_nanos").u64(self.dispatch_nanos);
            w.key("prof_flows").u64(self.flows.into());
        });
        out
    }

    /// Parse a document produced by [`Profile::to_json`].
    pub fn from_json(text: &str) -> Result<Profile, JsonError> {
        Profile::from_value(&Json::parse(text)?)
    }

    /// Parse from an already-parsed JSON object (how the manifest and
    /// ledger readers hand the embedded profile down).
    pub fn from_value(v: &Json) -> Result<Profile, JsonError> {
        let memory = v.req_arr("mem_accounts")?.iter().map(|g| {
            Ok(MemGauge {
                name: g.req_str("pool")?.to_string(),
                bytes: g.req_u64("pool_bytes")?,
            })
        });
        Ok(Profile {
            events: EventCells {
                classes: v.req_strs("prof_classes")?,
                kinds: v.req_strs("prof_kinds")?,
                stride: v.req_u64("prof_stride")?,
                counts: v.req_u64s("prof_counts")?,
                nanos: v.req_u64s("prof_nanos")?,
                samples: v.req_u64s("prof_samples")?,
            },
            wheel: WheelProfile {
                level_high_water: v.req_u64s("wheel_high_water")?,
                cascades: v.req_u64("wheel_cascades")?,
                cascaded_entries: v.req_u64("wheel_cascaded")?,
                batch_hist: v.req_u64s("wheel_batch_hist")?,
                cancels: v.req_u64("wheel_cancels")?,
                cancel_misses: v.req_u64("wheel_cancel_misses")?,
                cancellable_scheduled: v.req_u64("wheel_cancellable")?,
                // Newer than the oldest profile a ledger may hold.
                revived: v.opt_u64("wheel_revived")?.unwrap_or(0),
                sends_now: v.opt_u64("wheel_sends_now")?.unwrap_or(0),
                lane_merges: v.opt_u64("wheel_lane_merges")?.unwrap_or(0),
            },
            memory: memory.collect::<Result<_, JsonError>>()?,
            dispatch_nanos: v.req_u64("dispatch_nanos")?,
            flows: v.req_u32("prof_flows")?,
        })
    }

    /// Folded-stack export for flamegraph tooling: one
    /// `ccsim;<class>;<kind> <weight>` line per nonzero cell. Weights are
    /// sampled nanoseconds when any were collected, otherwise exact event
    /// counts (so a zero-duration smoke run still renders).
    pub fn to_folded(&self) -> String {
        let use_nanos = self.events.nanos.iter().any(|&n| n > 0);
        let mut out = String::new();
        for (c, class) in self.events.classes.iter().enumerate() {
            for (k, kind) in self.events.kinds.iter().enumerate() {
                let cell = c * self.events.kinds.len() + k;
                let w = if use_nanos {
                    self.events.nanos[cell]
                } else {
                    self.events.counts[cell]
                };
                if w > 0 {
                    let _ = writeln!(out, "ccsim;{class};{kind} {w}");
                }
            }
        }
        out
    }

    /// Human-readable summary: the attribution matrix, the scheduler
    /// counters, and the memory accounts (the `ccsim perf` output).
    ///
    /// The matrix shows exact event counts only. The strided sample
    /// charges each gap between readings to whichever event happened to be
    /// sampled, so per-cell sampled time tracks the event share and is not
    /// printed as a clock.
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(1024);
        let total_events = self.events.total().max(1);
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>14} {:>8}",
            "class", "kind", "events", "ev%"
        );
        for (c, class) in self.events.classes.iter().enumerate() {
            for (k, kind) in self.events.kinds.iter().enumerate() {
                let n = self.events.counts[c * self.events.kinds.len() + k];
                if n == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<10} {:>6} {:>14} {:>7.2}%",
                    class,
                    kind,
                    n,
                    100.0 * n as f64 / total_events as f64,
                );
            }
        }
        let _ = writeln!(
            out,
            "total events {} in {:.3} s dispatch ({:.0} events/s)",
            self.events.total(),
            self.dispatch_nanos as f64 / 1e9,
            if self.dispatch_nanos > 0 {
                self.events.total() as f64 / (self.dispatch_nanos as f64 / 1e9)
            } else {
                0.0
            }
        );
        for (kind, eps) in self.per_kind_events_per_sec() {
            let _ = writeln!(out, "  {kind}: {eps:.0} events/s");
        }
        let _ = writeln!(
            out,
            "wheel: cascades {} ({} entries), cancels {} (misses {}), cancellable {} \
             (revived {}), sends at now {} (lane merges {})",
            self.wheel.cascades,
            self.wheel.cascaded_entries,
            self.wheel.cancels,
            self.wheel.cancel_misses,
            self.wheel.cancellable_scheduled,
            self.wheel.revived,
            self.wheel.sends_now,
            self.wheel.lane_merges
        );
        let hw: Vec<String> = self
            .wheel
            .level_high_water
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(out, "wheel level high-water: [{}]", hw.join(", "));
        let bh: Vec<String> = self.wheel.batch_hist.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "batch-size log2 hist:   [{}]", bh.join(", "));
        if !self.memory.is_empty() {
            let _ = writeln!(out, "memory accounts:");
            for g in &self.memory {
                let _ = writeln!(out, "  {:<20} {:>12} bytes", g.name, g.bytes);
            }
            let _ = write!(
                out,
                "  {:<20} {:>12} bytes",
                "total",
                self.memory_total_bytes()
            );
            match self.memory_per_flow() {
                Some(per) => {
                    let _ = writeln!(out, " ({per:.0} per flow, {} flows)", self.flows);
                }
                None => {
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Profile {
        Profile {
            events: EventCells {
                classes: vec!["link".into(), "sender".into()],
                kinds: vec!["data".into(), "ack".into(), "timer".into()],
                stride: 1024,
                counts: vec![100, 0, 5, 40, 60, 7],
                nanos: vec![900, 0, 10, 300, 500, 20],
                samples: vec![9, 0, 1, 3, 5, 1],
            },
            wheel: WheelProfile {
                level_high_water: vec![10, 4, 0, 1, 0, 0, 0, 0, 2],
                cascades: 12,
                cascaded_entries: 34,
                batch_hist: vec![50, 20, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                cancels: 8,
                cancel_misses: 2,
                cancellable_scheduled: 15,
                revived: 11,
                sends_now: 90,
                lane_merges: 1,
            },
            memory: vec![
                MemGauge {
                    name: "net/link_queues".into(),
                    bytes: 4096,
                },
                MemGauge {
                    name: "tcp/senders".into(),
                    bytes: 8192,
                },
            ],
            dispatch_nanos: 2_000_000,
            flows: 4,
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let p = sample();
        let json = p.to_json();
        let back = Profile::from_json(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json);
        // And through a generic parse → render cycle.
        let rendered = Json::parse(&json).unwrap().render();
        assert_eq!(rendered, json);
    }

    #[test]
    fn profiles_older_than_the_lane_round_trip_without_lane_counters() {
        let p = sample();
        let old = p
            .to_json()
            .replace(",\"wheel_revived\":11", "")
            .replace(",\"wheel_sends_now\":90,\"wheel_lane_merges\":1", "");
        assert!(!old.contains("wheel_sends_now") && !old.contains("wheel_revived"));
        let back = Profile::from_json(&old).unwrap();
        assert_eq!((back.wheel.sends_now, back.wheel.lane_merges), (0, 0));
        assert_eq!(back.wheel.revived, 0);
        assert_eq!(back.wheel.cancellable_scheduled, 15);
        // The legacy-line rule: what parsed without the keys writes
        // without them …
        assert_eq!(back.to_json(), old);
        // … and one nonzero counter is enough to write both (CI greps
        // both out of every fresh profile).
        let mut fresh = back;
        fresh.wheel.sends_now = 7;
        assert!(fresh
            .to_json()
            .contains(",\"wheel_sends_now\":7,\"wheel_lane_merges\":0,"));
    }

    #[test]
    fn mistyped_fields_are_errors_naming_the_key() {
        let json = sample().to_json();
        let bad = json.replace("\"wheel_cancels\":8", "\"wheel_cancels\":\"8\"");
        let err = Profile::from_json(&bad).unwrap_err();
        assert!(err.message.contains("wheel_cancels"), "{err}");
        let bad = json.replace("\"prof_counts\":[100,", "\"prof_counts\":[\"x\",");
        assert!(Profile::from_json(&bad).is_err());
    }

    #[test]
    fn normalized_zeroes_only_wall_time() {
        let p = sample();
        let n = p.normalized();
        assert!(n.events.nanos.iter().all(|&x| x == 0));
        assert_eq!(n.dispatch_nanos, 0);
        assert_eq!(n.events.counts, p.events.counts);
        assert_eq!(n.events.samples, p.events.samples);
        assert_eq!(n.wheel, p.wheel);
        assert_eq!(n.memory, p.memory);
    }

    #[test]
    fn per_kind_rollups() {
        let p = sample();
        let counts = p.events.per_kind_counts();
        assert_eq!(
            counts,
            vec![
                ("data".to_string(), 140),
                ("ack".to_string(), 60),
                ("timer".to_string(), 12)
            ]
        );
        let eps = p.per_kind_events_per_sec();
        // 140 events over 2 ms of dispatch = 70 000 events/s.
        assert!((eps[0].1 - 70_000.0).abs() < 1e-9);
        assert_eq!(p.events.total(), 212);
    }

    #[test]
    fn memory_rollups() {
        let p = sample();
        assert_eq!(p.memory_total_bytes(), 12_288);
        assert!((p.memory_per_flow().unwrap() - 3072.0).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_weight_by_nanos_with_count_fallback() {
        let p = sample();
        let folded = p.to_folded();
        assert!(folded.contains("ccsim;link;data 900\n"));
        assert!(folded.contains("ccsim;sender;ack 500\n"));
        // Zero-count cell stays out.
        assert!(!folded.contains("ccsim;link;ack"));

        let cold = p.normalized();
        let folded = cold.to_folded();
        assert!(folded.contains("ccsim;link;data 100\n"));
    }

    #[test]
    fn table_renders_all_sections() {
        let t = sample().render_table();
        assert!(t.contains("class"));
        // No clock column: sampled time per cell tracks the event share.
        assert!(!t.contains("time%") && !t.contains("sampled ms"), "{t}");
        assert!(t.contains("link"));
        assert!(t.contains("wheel: cascades 12"));
        assert!(t.contains("cancellable 15 (revived 11)"));
        assert!(t.contains("sends at now 90 (lane merges 1)"));
        assert!(t.contains("tcp/senders"));
        assert!(t.contains("3072 per flow"));
        assert!(t.contains("106000 events/s") || t.contains("events/s"));
    }
}
