//! Per-flow and per-bottleneck measurement records.

use ccsim_sim::json::{Json, JsonError, JsonWriter};
use serde::{Deserialize, Serialize};

/// Window-scoped measurements for one bottleneck link of a multi-hop
/// topology (or a single link running a non-default AQM/ECN config).
///
/// The outcome digest hashes the derived `Debug` text, which prints the
/// type name and the fields in this order: neither may change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BottleneckMetrics {
    /// Link index in the scenario's topology description.
    pub link: u32,
    /// The link's label ("bottleneck", "bn0", …).
    pub label: String,
    /// Link utilization over the window (transmitted bits / capacity).
    pub utilization: f64,
    /// Jain's Fairness Index across the flows traversing this link, if
    /// more than zero flows produced throughput.
    pub jfi: Option<f64>,
    /// Packet loss rate at this link's queue over the window.
    pub loss_rate: f64,
    /// Peak queue occupancy at this link in the window (bytes).
    pub max_queue_bytes: u64,
    /// Packets CE-marked by this link's AQM in the window.
    pub ce_marked_pkts: u64,
}

impl BottleneckMetrics {
    /// The full-precision object the run manifest and the campaign ledger
    /// both embed (the outcome JSON writes its own rounded copy).
    pub fn write(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.key("link").u64(self.link.into());
            w.key("label").str(&self.label);
            w.key("utilization").f64(self.utilization);
            w.key("jfi").opt(self.jfi, JsonWriter::f64);
            w.key("loss_rate").f64(self.loss_rate);
            w.key("max_queue_bytes").u64(self.max_queue_bytes);
            w.key("ce_marked").u64(self.ce_marked_pkts);
        });
    }

    /// Decode an object written by [`BottleneckMetrics::write`].
    pub fn from_value(b: &Json) -> Result<BottleneckMetrics, JsonError> {
        Ok(BottleneckMetrics {
            link: b.req_u32("link")?,
            label: b.req_str("label")?.to_string(),
            utilization: b.req_f64("utilization")?,
            jfi: b.opt_f64("jfi")?,
            loss_rate: b.req_f64("loss_rate")?,
            max_queue_bytes: b.req_u64("max_queue_bytes")?,
            ce_marked_pkts: b.req_u64("ce_marked")?,
        })
    }
}

/// Everything the analysis needs to know about one flow after a run.
///
/// Rates are computed over the measurement window (after warm-up
/// exclusion), matching the paper's methodology of discarding the first
/// minutes of each experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Flow index.
    pub flow: u32,
    /// CCA name ("reno", "cubic", "bbr").
    pub cca: String,
    /// Configured base RTT in seconds.
    pub base_rtt_secs: f64,
    /// Goodput over the measurement window, bytes/sec (receiver-side).
    pub throughput_bytes_per_sec: f64,
    /// Bytes delivered in the measurement window.
    pub delivered_bytes: u64,
    /// Data segments sent in the window (including retransmissions).
    pub data_pkts_sent: u64,
    /// Retransmitted segments in the window.
    pub retransmits: u64,
    /// Congestion events (fast recoveries + RTOs) in the window — the
    /// CWND-halving count.
    pub congestion_events: u64,
    /// RTOs in the window.
    pub rtos: u64,
    /// This flow's packets dropped at the bottleneck queue in the window.
    pub queue_drops: u64,
    /// This flow's packets that arrived at the bottleneck queue in the
    /// window.
    pub queue_arrivals: u64,
}

impl FlowMetrics {
    /// Packet loss rate at the bottleneck: drops / arrivals.
    pub fn loss_rate(&self) -> f64 {
        if self.queue_arrivals == 0 {
            0.0
        } else {
            self.queue_drops as f64 / self.queue_arrivals as f64
        }
    }

    /// CWND-halving rate: congestion events per *delivered* packet, the
    /// `p` interpretation the original Mathis paper prescribes for
    /// SACK-enabled TCP.
    pub fn halving_rate(&self, mss_bytes: u32) -> f64 {
        let delivered_pkts = self.delivered_bytes as f64 / mss_bytes as f64;
        if delivered_pkts <= 0.0 {
            0.0
        } else {
            self.congestion_events as f64 / delivered_pkts
        }
    }

    /// Throughput in Mbits/sec (for report tables).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bytes_per_sec * 8.0 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> FlowMetrics {
        FlowMetrics {
            flow: 0,
            cca: "reno".into(),
            base_rtt_secs: 0.02,
            throughput_bytes_per_sec: 1_250_000.0,
            delivered_bytes: 14_480_000,
            data_pkts_sent: 10_100,
            retransmits: 100,
            congestion_events: 20,
            rtos: 1,
            queue_drops: 120,
            queue_arrivals: 10_100,
        }
    }

    #[test]
    fn loss_rate_is_drops_over_arrivals() {
        let metrics = m();
        assert!((metrics.loss_rate() - 120.0 / 10_100.0).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_without_arrivals_is_zero() {
        let mut metrics = m();
        metrics.queue_arrivals = 0;
        assert_eq!(metrics.loss_rate(), 0.0);
    }

    #[test]
    fn halving_rate_is_events_per_delivered_packet() {
        let metrics = m();
        // 14_480_000 / 1448 = 10_000 delivered packets; 20 events.
        assert!((metrics.halving_rate(1448) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn halving_rate_without_delivery_is_zero() {
        let mut metrics = m();
        metrics.delivered_bytes = 0;
        assert_eq!(metrics.halving_rate(1448), 0.0);
    }

    #[test]
    fn mbps_conversion() {
        assert!((m().throughput_mbps() - 10.0).abs() < 1e-12);
    }
}
