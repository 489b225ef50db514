//! Export of a run's event-attribution [`ccsim_prof::Profile`] into a
//! Prometheus dump, so it rides in the same file as the run metrics.

use crate::prometheus::Exposition;

/// Append a run's [`ccsim_prof::Profile`] to `out`, so the per-component
/// attribution rides in the same Prometheus dump as the run metrics.
/// Families, in this order:
///
/// | family | kind | labels |
/// |---|---|---|
/// | `ccsim_prof_events_total` | counter | `class`, `kind` |
/// | `ccsim_prof_sampled_nanos_total` | counter | `class`, `kind` |
/// | `ccsim_wheel_level_high_water` | gauge | `level` |
/// | `ccsim_wheel_cascades_total` | counter | — |
/// | `ccsim_wheel_cascaded_entries_total` | counter | — |
/// | `ccsim_wheel_cancels_total` | counter | — |
/// | `ccsim_wheel_cancel_misses_total` | counter | — |
/// | `ccsim_mem_bytes` | gauge | `pool` |
/// | `ccsim_dispatch_nanos_total` | counter | — |
///
/// Zero-count cells and empty wheel levels are skipped, so a profiled
/// run's exposition stays proportional to the activity it actually saw.
pub fn export_profile_into(profile: &ccsim_prof::Profile, out: &mut Exposition) {
    let ev = &profile.events;
    // One pass per family, so each family's series form one group.
    for (family, help, values) in [
        (
            "ccsim_prof_events_total",
            "Engine events dispatched, by component class and event kind",
            &ev.counts,
        ),
        (
            "ccsim_prof_sampled_nanos_total",
            "Strided-sample wall nanoseconds attributed to the cell",
            &ev.nanos,
        ),
    ] {
        for (ci, class) in ev.classes.iter().enumerate() {
            for (ki, kind) in ev.kinds.iter().enumerate() {
                let idx = ci * ev.kinds.len() + ki;
                if ev.counts[idx] > 0 {
                    let labels = [("class", class.as_str()), ("kind", kind.as_str())];
                    out.counter(family, help, &labels, values[idx]);
                }
            }
        }
    }
    for (level, &hw) in profile.wheel.level_high_water.iter().enumerate() {
        if hw > 0 {
            out.gauge(
                "ccsim_wheel_level_high_water",
                "Peak live entries per timer-wheel level",
                &[("level", &level.to_string())],
                hw as f64,
            );
        }
    }
    let wheel = &profile.wheel;
    for (family, help, value) in [
        (
            "ccsim_wheel_cascades_total",
            "Timer-wheel higher-level bucket drains (cascades)",
            wheel.cascades,
        ),
        (
            "ccsim_wheel_cascaded_entries_total",
            "Entries re-filed to lower wheel levels by cascades",
            wheel.cascaded_entries,
        ),
        (
            "ccsim_wheel_cancels_total",
            "Timer cancellations that found a live entry",
            wheel.cancels,
        ),
        (
            "ccsim_wheel_cancel_misses_total",
            "Timer cancellations whose entry had already fired or died",
            wheel.cancel_misses,
        ),
    ] {
        out.counter(family, help, &[], value);
    }
    for g in &profile.memory {
        out.gauge(
            "ccsim_mem_bytes",
            "Approximate heap bytes held per subsystem pool",
            &[("pool", &g.name)],
            g.bytes as f64,
        );
    }
    out.counter(
        "ccsim_dispatch_nanos_total",
        "Wall nanoseconds spent inside engine dispatch",
        &[],
        profile.dispatch_nanos,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_export_emits_expected_families() {
        let p = ccsim_prof::Profile::from_json(
            "{\"prof_classes\":[\"link\",\"sender\"],\"prof_kinds\":[\"data\",\"ack\"],\
             \"prof_stride\":1024,\"prof_counts\":[5,0,7,8],\"prof_nanos\":[1,0,3,4],\
             \"prof_samples\":[1,0,1,1],\"wheel_high_water\":[9,2,0,0,0,0,0,0,0],\
             \"wheel_cascades\":2,\"wheel_cascaded\":3,\
             \"wheel_batch_hist\":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"wheel_cancels\":4,\
             \"wheel_cancel_misses\":5,\"wheel_cancellable\":6,\
             \"mem_accounts\":[{\"pool\":\"tcp/senders\",\"pool_bytes\":4096}],\
             \"dispatch_nanos\":1000000,\"prof_flows\":2}",
        )
        .unwrap();
        let mut out = Exposition::new();
        export_profile_into(&p, &mut out);
        // Three cells in each of two families, the two non-empty wheel
        // levels, four wheel counters, one pool, the dispatch clock.
        assert_eq!(out.series(), 3 + 3 + 2 + 4 + 1 + 1);
        let text = out.into_text();
        crate::validate_exposition(&text).unwrap();
        assert!(text.contains("ccsim_prof_events_total{class=\"link\",kind=\"data\"} 5"));
        // The zero-count (link, ack) cell is skipped.
        assert!(!text.contains("class=\"link\",kind=\"ack\""));
        assert!(text.contains("ccsim_wheel_level_high_water{level=\"1\"} 2"));
        assert!(text.contains("ccsim_mem_bytes{pool=\"tcp/senders\"} 4096"));
        assert!(text.contains("ccsim_dispatch_nanos_total 1000000"));
        // Three non-zero cells, yet one header per family.
        assert_eq!(text.matches("# TYPE ccsim_prof_events_total").count(), 1);
        assert_eq!(
            text.matches("# TYPE ccsim_prof_sampled_nanos_total")
                .count(),
            1
        );
    }
}
