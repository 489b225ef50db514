//! The crate graph keeps observation out of the protocol components: no
//! crate that a link, a sender or a congestion controller is built from
//! may reach the telemetry crate, the timeline sampler or the profiler.
//! The harness (`ccsim-core`) reads the components' plain counters and
//! tallies straight into its Prometheus dumps, so "observation only
//! reads" holds by construction rather than by convention.

use std::collections::BTreeSet;
use std::path::Path;

/// The workspace crates (`ccsim-*`) a crate's manifest names in any
/// dependency section.
fn workspace_deps(krate: &str) -> BTreeSet<String> {
    let dir = krate.strip_prefix("ccsim-").expect("a workspace crate");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("crates/{dir}/Cargo.toml"));
    let manifest = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut in_deps = false;
    let mut deps = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line.ends_with("dependencies]");
        } else if in_deps && line.starts_with("ccsim-") {
            let name = line.split(['.', ' ', '=']).next().unwrap();
            deps.insert(name.to_string());
        }
    }
    deps
}

/// Every workspace crate reachable from `krate`, itself excluded.
fn closure(krate: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut todo = vec![krate.to_string()];
    while let Some(k) = todo.pop() {
        for dep in workspace_deps(&k) {
            if seen.insert(dep.clone()) {
                todo.push(dep);
            }
        }
    }
    seen
}

#[test]
fn protocol_crates_cannot_reach_the_observers() {
    for krate in ["ccsim-net", "ccsim-tcp", "ccsim-cca", "ccsim-topo"] {
        let reached = closure(krate);
        assert!(reached.contains("ccsim-sim"), "{krate}: {reached:?}");
        for observer in ["ccsim-telemetry", "ccsim-timeline", "ccsim-prof"] {
            assert!(
                !reached.contains(observer),
                "{krate} reaches {observer} through {reached:?}"
            );
        }
    }
}
