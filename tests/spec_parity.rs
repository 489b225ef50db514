//! Spec parity: every checked-in campaign spec expands to the same jobs.
//!
//! Each `examples/campaigns/*.json` is expanded and every job's name, axis
//! pairs and full scenario document (`scenario_to_json`) are hashed into
//! one digest per spec. The literals below were taken from the expansion
//! code before the scenario-settings table replaced it; a change to how a
//! spec's `base` keys or axes are read that moves any job shows up here as
//! a moved digest.

use ccsim::campaign::CampaignSpec;
use ccsim::experiments::scenario_to_json;
use ccsim::sim::Fnv1a;
use std::fmt::Write as _;
use std::path::Path;

/// `(spec file stem, job count, digest of every job)`.
const EXPECTED: [(&str, usize, u64); 23] = [
    ("ablation-buffer", 15, 0x4215f92774ebc576),
    ("ci-smoke", 4, 0xa593e9481a309705),
    ("desync", 24, 0x2e44c4c9104d4231),
    ("megascale", 1, 0xd67fb42a83fbb5d0),
    ("megascale-smoke", 1, 0xe6220f696164067d),
    ("paper-fig4-core", 45, 0x5875b47a53ce253a),
    ("paper-fig4-edge", 45, 0x463e9813a5090c08),
    ("paper-fig5-core", 45, 0x41f3c2280a4b6eb2),
    ("paper-fig5-edge", 45, 0x90b1ae44f975150e),
    ("paper-fig6-core", 45, 0x6c3859e0770225e0),
    ("paper-fig6-edge", 45, 0x2eb01e2823be8b62),
    ("paper-fig7-core", 45, 0x477f8b081e5272a8),
    ("paper-fig7-edge", 45, 0x45e03d8e08546ce0),
    ("paper-fig8a-core", 45, 0xf629b2d1f6ffe3ce),
    ("paper-fig8a-edge", 45, 0x2f2373ce7d1f3412),
    ("paper-fig8b-core", 45, 0x7a2a25eb28c1c832),
    ("paper-fig8b-edge", 45, 0x0749a56e3797bc90),
    ("paper-finding4-core", 90, 0xb45860ccc706f3d9),
    ("paper-finding4-edge", 90, 0xdf583776f4556513),
    ("paper-mathis-core", 15, 0x83a926671422645a),
    ("paper-mathis-edge", 15, 0x912436193b4356fe),
    ("perf-corescale", 1, 0x6ce739864da3f043),
    ("topo-smoke", 8, 0x8e0469e41fd09c3d),
];

/// Every spec's expansion, in file-stem order.
fn expansions() -> Vec<(String, usize, u64)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/campaigns");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let jobs = spec.jobs().unwrap_or_else(|e| panic!("{stem}: {e}"));
        let mut digest = Fnv1a::new();
        for job in &jobs {
            let _ = write!(digest, "{}\n{:?}\n", job.name, job.axis);
            let _ = writeln!(digest, "{}", scenario_to_json(&job.scenario));
        }
        out.push((stem, jobs.len(), digest.finish()));
    }
    out.sort();
    out
}

#[test]
fn every_checked_in_spec_expands_to_the_jobs_it_always_did() {
    let got = expansions();
    let listing: String = got
        .iter()
        .map(|(stem, n, d)| format!("    (\"{stem}\", {n}, 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, usize, u64)> = EXPECTED
        .iter()
        .map(|&(stem, n, d)| (stem.to_string(), n, d))
        .collect();
    assert_eq!(got, expected, "expansions now read:\n{listing}");
}
