//! Export of a run's event-attribution [`ccsim_prof::Profile`] into the
//! metric registry, so it rides in the same Prometheus dump as the run
//! metrics.

use crate::registry::Registry;

/// Register a run's [`ccsim_prof::Profile`] into `registry` so the
/// per-component attribution rides in the same Prometheus dump as the
/// run metrics. Families:
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
/// Zero-count cells are skipped so a profiled run's exposition stays
/// proportional to the activity it actually saw.
pub fn export_profile_into(profile: &ccsim_prof::Profile, registry: &Registry) {
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
                    registry
                        .counter_with(family, help, &[("class", class), ("kind", kind)])
                        .add(values[idx]);
                }
            }
        }
    }
    for (level, &hw) in profile.wheel.level_high_water.iter().enumerate() {
        if hw == 0 {
            continue;
        }
        let level = level.to_string();
        registry
            .gauge_with(
                "ccsim_wheel_level_high_water",
                "Peak live entries per timer-wheel level",
                &[("level", level.as_str())],
            )
            .set(hw as f64);
    }
    registry
        .counter(
            "ccsim_wheel_cascades_total",
            "Timer-wheel higher-level bucket drains (cascades)",
        )
        .add(profile.wheel.cascades);
    registry
        .counter(
            "ccsim_wheel_cascaded_entries_total",
            "Entries re-filed to lower wheel levels by cascades",
        )
        .add(profile.wheel.cascaded_entries);
    registry
        .counter(
            "ccsim_wheel_cancels_total",
            "Timer cancellations that found a live entry",
        )
        .add(profile.wheel.cancels);
    registry
        .counter(
            "ccsim_wheel_cancel_misses_total",
            "Timer cancellations whose entry had already fired or died",
        )
        .add(profile.wheel.cancel_misses);
    for g in &profile.memory {
        registry
            .gauge_with(
                "ccsim_mem_bytes",
                "Approximate heap bytes held per subsystem pool",
                &[("pool", g.name.as_str())],
            )
            .set(g.bytes as f64);
    }
    registry
        .counter(
            "ccsim_dispatch_nanos_total",
            "Wall nanoseconds spent inside engine dispatch",
        )
        .add(profile.dispatch_nanos);
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
        let r = Registry::new();
        export_profile_into(&p, &r);
        let text = crate::prometheus::write_exposition(&r);
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
