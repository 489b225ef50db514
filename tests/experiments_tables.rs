//! EXPERIMENTS.md's verdict tables are `campaign report` output, pasted:
//! every verdict row the committed EdgeScale ledgers give must appear in
//! the file exactly. A regenerated ledger that flips a verdict, or moves a
//! measured figure, fails here until EXPERIMENTS.md changes with it.

use ccsim::campaign::{check_expectations, verdict_row, Ledger};
use std::path::Path;

#[test]
fn experiments_md_carries_every_edge_verdict_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let lines: Vec<&str> = doc.lines().collect();
    let (mut ledgers, mut rows, mut wrong) = (0, 0, Vec::new());
    for entry in std::fs::read_dir(root.join("baselines")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("paper-") && name.ends_with("-edge.ledger.jsonl")) {
            continue;
        }
        ledgers += 1;
        for r in check_expectations(&Ledger::load(&path).unwrap()) {
            let row = verdict_row(&r);
            rows += 1;
            if !lines.contains(&row.as_str()) {
                wrong.push(format!("{name}: {row}"));
            }
        }
    }
    assert_eq!(ledgers, 8, "expected the eight paper-*-edge ledgers");
    assert!(
        wrong.is_empty(),
        "{} of {rows} verdict rows are missing from EXPERIMENTS.md or differ there:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
