//! Hint sets: Bao's action space.
//!
//! A hint set is a pair of non-empty operator subsets — which join
//! algorithms and which scan strategies the optimizer may use — exactly as
//! in the paper's §6.1: "48 hint sets, which each use some subset of the
//! join operators {hash join, merge join, loop join} and some subset of the
//! scan operators {sequential, index, index only}".
//!
//! There are 7 × 7 = 49 such pairs, one of which (everything enabled) is
//! the unhinted optimizer. [`HintSet::family_49`] is the full family.

use bao_plan::{JoinAlgo, ScanKind};
use std::fmt;

/// All join algorithms, in canonical order.
pub const ALL_JOINS: [JoinAlgo; 3] = [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop];

/// All scan kinds, in canonical order.
pub const ALL_SCANS: [ScanKind; 3] = [ScanKind::Seq, ScanKind::Index, ScanKind::IndexOnly];

/// A set of enabled operators. Disabled operators are *discouraged* (via
/// `disable_cost`), not forbidden, mirroring PostgreSQL `enable_*` GUCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HintSet {
    pub hash_join: bool,
    pub merge_join: bool,
    pub nested_loop: bool,
    pub seq_scan: bool,
    pub index_scan: bool,
    pub index_only_scan: bool,
}

impl Default for HintSet {
    fn default() -> Self {
        HintSet::all_enabled()
    }
}

impl HintSet {
    /// The unhinted optimizer: everything enabled.
    pub fn all_enabled() -> Self {
        HintSet {
            hash_join: true,
            merge_join: true,
            nested_loop: true,
            seq_scan: true,
            index_scan: true,
            index_only_scan: true,
        }
    }

    /// Construct from join/scan subsets encoded as bitmasks over
    /// [`ALL_JOINS`] / [`ALL_SCANS`] (bit i = element i enabled).
    pub fn from_masks(join_mask: u8, scan_mask: u8) -> Self {
        HintSet {
            hash_join: join_mask & 1 != 0,
            merge_join: join_mask & 2 != 0,
            nested_loop: join_mask & 4 != 0,
            seq_scan: scan_mask & 1 != 0,
            index_scan: scan_mask & 2 != 0,
            index_only_scan: scan_mask & 4 != 0,
        }
    }

    pub fn join_enabled(&self, algo: JoinAlgo) -> bool {
        match algo {
            JoinAlgo::Hash => self.hash_join,
            JoinAlgo::Merge => self.merge_join,
            JoinAlgo::NestedLoop => self.nested_loop,
        }
    }

    pub fn scan_enabled(&self, kind: ScanKind) -> bool {
        match kind {
            ScanKind::Seq => self.seq_scan,
            ScanKind::Index => self.index_scan,
            ScanKind::IndexOnly => self.index_only_scan,
        }
    }

    /// This hint set as the plan verifier's hint description, paired with
    /// the cost model's `disable_cost` so the verifier can tell
    /// penalty-free plans from penalized ones.
    pub fn check(&self, disable_cost: f64) -> bao_plan::HintCheck {
        bao_plan::HintCheck {
            hash_join: self.hash_join,
            merge_join: self.merge_join,
            nested_loop: self.nested_loop,
            seq_scan: self.seq_scan,
            index_scan: self.index_scan,
            index_only_scan: self.index_only_scan,
            disable_cost,
        }
    }

    /// All 49 non-empty × non-empty hint sets. Index 0 is the unhinted
    /// optimizer (everything enabled).
    pub fn family_49() -> Vec<HintSet> {
        let mut out = vec![HintSet::all_enabled()];
        for join_mask in 1..8u8 {
            for scan_mask in 1..8u8 {
                let hs = HintSet::from_masks(join_mask, scan_mask);
                if hs != HintSet::all_enabled() {
                    out.push(hs);
                }
            }
        }
        out
    }

    /// The first `n` arms of a "good subset" ordering used by the Figure 12
    /// experiment (arm subsets selected ahead of time by observed benefit,
    /// per paper §6.2). Arm 0 is always the unhinted optimizer.
    ///
    /// The ordering follows the paper's §6.3 top-5 list: disable nested
    /// loop; disable index scan + merge join; disable nested loop + merge
    /// join + index scan; disable hash join; disable merge join.
    pub fn top_arms(n: usize) -> Vec<HintSet> {
        let mut out = vec![
            HintSet::all_enabled(),
            // disable nested loop join
            HintSet::from_masks(0b011, 0b111),
            // disable index scan & merge join
            HintSet::from_masks(0b101, 0b101),
            // disable nested loop & merge join & index scan
            HintSet::from_masks(0b001, 0b101),
            // disable hash join
            HintSet::from_masks(0b110, 0b111),
            // disable merge join
            HintSet::from_masks(0b101, 0b111),
        ];
        for hs in HintSet::family_49() {
            if !out.contains(&hs) {
                out.push(hs);
            }
        }
        out.truncate(n);
        out
    }

    /// The SQL a DBA would run to apply this hint set, PostgreSQL-style
    /// (shown by advisor mode, Figure 6).
    pub fn set_statements(&self) -> String {
        let mut stmts = Vec::new();
        let mut add = |flag: bool, guc: &str| {
            if !flag {
                stmts.push(format!("SET enable_{guc} TO off;"));
            }
        };
        add(self.hash_join, "hashjoin");
        add(self.merge_join, "mergejoin");
        add(self.nested_loop, "nestloop");
        add(self.seq_scan, "seqscan");
        add(self.index_scan, "indexscan");
        add(self.index_only_scan, "indexonlyscan");
        if stmts.is_empty() {
            "-- no hints (default optimizer)".to_string()
        } else {
            stmts.join(" ")
        }
    }
}

impl fmt::Display for HintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let joins: Vec<&str> =
            [(self.hash_join, "hash"), (self.merge_join, "merge"), (self.nested_loop, "loop")]
                .iter()
                .filter(|(b, _)| *b)
                .map(|&(_, n)| n)
                .collect();
        let scans: Vec<&str> =
            [(self.seq_scan, "seq"), (self.index_scan, "idx"), (self.index_only_scan, "idxonly")]
                .iter()
                .filter(|(b, _)| *b)
                .map(|&(_, n)| n)
                .collect();
        write!(f, "joins{{{}}} scans{{{}}}", joins.join(","), scans.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_sizes() {
        assert_eq!(HintSet::family_49().len(), 49);
        // all unique
        let mut f = HintSet::family_49();
        f.sort_by_key(|h| format!("{h}"));
        f.dedup();
        assert_eq!(f.len(), 49);
    }

    #[test]
    fn arm_zero_is_default() {
        assert_eq!(HintSet::family_49()[0], HintSet::all_enabled());
        assert_eq!(HintSet::top_arms(3)[0], HintSet::all_enabled());
    }

    #[test]
    fn every_family_member_has_join_and_scan() {
        for hs in HintSet::family_49() {
            assert!(hs.hash_join || hs.merge_join || hs.nested_loop, "{hs}");
            assert!(hs.seq_scan || hs.index_scan || hs.index_only_scan, "{hs}");
        }
    }

    #[test]
    fn masks_round_trip() {
        let hs = HintSet::from_masks(0b011, 0b100);
        assert!(hs.hash_join && hs.merge_join && !hs.nested_loop);
        assert!(!hs.seq_scan && !hs.index_scan && hs.index_only_scan);
        assert!(hs.join_enabled(JoinAlgo::Hash));
        assert!(!hs.join_enabled(JoinAlgo::NestedLoop));
        assert!(hs.scan_enabled(ScanKind::IndexOnly));
        assert!(!hs.scan_enabled(ScanKind::Seq));
    }

    #[test]
    fn set_statements_format() {
        let hs = HintSet::from_masks(0b011, 0b111);
        assert_eq!(hs.set_statements(), "SET enable_nestloop TO off;");
        assert_eq!(HintSet::all_enabled().set_statements(), "-- no hints (default optimizer)");
        let hs = HintSet::from_masks(0b001, 0b001);
        assert!(hs.set_statements().contains("enable_mergejoin"));
        assert!(hs.set_statements().contains("enable_indexonlyscan"));
    }

    #[test]
    fn top_arms_prefix_and_extension() {
        let top5 = HintSet::top_arms(5);
        assert_eq!(top5.len(), 5);
        // second arm is the paper's best single hint set: disable loop join
        assert!(!top5[1].nested_loop);
        assert!(top5[1].hash_join && top5[1].merge_join);
        let all = HintSet::top_arms(49);
        assert_eq!(all.len(), 49);
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 49);
    }

    #[test]
    fn display_compact() {
        let hs = HintSet::from_masks(0b101, 0b010);
        assert_eq!(format!("{hs}"), "joins{hash,loop} scans{idx}");
    }
}
