//! Input digests pinned for the seeds the baseline tables use. A later
//! change to `bao-workloads` (or to the stream selection here) then
//! fails the check instead of silently moving the baseline.

use bao_common::json::{self, Json};

const PINS: &str = include_str!("../pins.json");

/// The key of a workload's pins: quick runs have a shorter stream.
pub fn key(workload: &str, quick: bool) -> String {
    if quick {
        format!("{workload}.quick")
    } else {
        workload.to_string()
    }
}

pub fn lookup(workload: &str, quick: bool, seed: u64) -> Option<u64> {
    lookup_in(&json::parse(PINS).ok()?, workload, quick, seed)
}

fn lookup_in(pins: &Json, workload: &str, quick: bool, seed: u64) -> Option<u64> {
    let hex = pins
        .get(&key(workload, quick))?
        .get(&seed.to_string())?
        .as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_file_parses_and_lookup_reads_hex() {
        json::parse(PINS).expect("pins.json parses");
        let pins =
            json::parse(r#"{"w": {"42": "00000000000000ff"}, "w.quick": {"7": "10"}}"#).unwrap();
        assert_eq!(lookup_in(&pins, "w", false, 42), Some(255));
        assert_eq!(lookup_in(&pins, "w", true, 7), Some(16));
        assert_eq!(lookup_in(&pins, "w", false, 7), None);
        assert_eq!(lookup_in(&pins, "other", false, 42), None);
    }
}
