//! The legacy-line rule, proven on the committed files: every
//! `baselines/*.ledger.jsonl` must survive load → re-serialize byte for
//! byte — header and every entry — so a key added to a writer (or a
//! spacing change in the JSON layer) can never silently rewrite history
//! the next time a ledger is resumed or normalised.

use ccsim::campaign::ledger::{header_json, Ledger};
use std::path::Path;

#[test]
fn committed_baseline_ledgers_reserialize_byte_identically() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut ledgers = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".ledger.jsonl") {
            continue;
        }
        ledgers += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let ledger = Ledger::from_text(&text).unwrap();
        assert!(!ledger.truncated, "{name}: torn final line");
        let mut lines = text.lines();
        assert_eq!(
            header_json(&ledger.campaign, &ledger.tolerances, &ledger.expectations),
            lines.next().unwrap(),
            "{name}: header moved"
        );
        let mut entries = 0;
        for (entry, line) in ledger.entries.iter().zip(lines.by_ref()) {
            assert_eq!(entry.to_json(), line, "{name}: entry {} moved", entry.job);
            entries += 1;
        }
        assert_eq!(
            entries,
            ledger.entries.len(),
            "{name}: entries without a line"
        );
        assert_eq!(lines.next(), None, "{name}: lines without an entry");
    }
    assert!(
        ledgers >= 4,
        "expected the four committed baselines, found {ledgers}"
    );
}
