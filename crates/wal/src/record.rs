//! Logical WAL records and the recovery telemetry report.
//!
//! Every frame payload is the JSON encoding of one [`WalRecord`], tagged
//! by a `"kind"` field. JSON keeps the framing layer dumb (bytes in,
//! bytes out) while reusing the workspace's exact-round-trip number
//! lanes — an f32 weight checkpoint survives the log byte-for-byte,
//! which is what makes bit-identical recovery possible at all.

use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{BaoError, Result};
use bao_nn::FeatTree;

/// One logical WAL record. The write order per query is:
/// `ExperienceAppend` → (`ModelCheckpoint` → `RetrainBoundary`, on a
/// retrain boundary) → `QueryOutcome`. The `QueryOutcome` is the commit
/// record: recovery rolls back any trailing records past the last one.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First frame of every log: the run's seed and a fingerprint of the
    /// durability-independent run configuration, so recovery refuses to
    /// replay a log against a different workload setup.
    RunHeader { seed: u64, config_fp: u64 },
    /// One (plan-tree, reward) pair entering the experience window.
    /// `step` is the 0-based observation counter: the number of queries
    /// the run committed before this one, in dispatch order.
    ExperienceAppend { step: u64, tree: FeatTree, perf: f64 },
    /// A retrain completed; `version` is the post-increment model-version
    /// counter and `experience_size` the window size it trained on.
    RetrainBoundary { version: u64, experience_size: u64 },
    /// Full model weight snapshot (the model's own JSON serialization)
    /// keyed by the model-version counter it produced.
    ModelCheckpoint { version: u64, model: String },
    /// The per-query commit record: the harness's full `QueryRecord`
    /// JSON, opaque to this crate.
    QueryOutcome { record: Json },
}

impl WalRecord {
    /// The `"kind"` tag this record serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::RunHeader { .. } => "run_header",
            WalRecord::ExperienceAppend { .. } => "experience",
            WalRecord::RetrainBoundary { .. } => "retrain",
            WalRecord::ModelCheckpoint { .. } => "checkpoint",
            WalRecord::QueryOutcome { .. } => "outcome",
        }
    }

    /// Encode to the frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Decode from frame payload bytes; graceful `Err` on anything that
    /// is not a well-formed record.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| BaoError::Parse("wal record payload is not UTF-8".into()))?;
        WalRecord::from_json(&json::parse(text)?)
    }
}

impl ToJson for WalRecord {
    fn to_json(&self) -> Json {
        match self {
            WalRecord::RunHeader { seed, config_fp } => Json::obj([
                ("kind", Json::Str(self.kind().into())),
                ("seed", seed.to_json()),
                ("config_fp", config_fp.to_json()),
            ]),
            WalRecord::ExperienceAppend { step, tree, perf } => Json::obj([
                ("kind", Json::Str(self.kind().into())),
                ("step", step.to_json()),
                ("tree", tree.to_json()),
                ("perf", perf.to_json()),
            ]),
            WalRecord::RetrainBoundary { version, experience_size } => Json::obj([
                ("kind", Json::Str(self.kind().into())),
                ("version", version.to_json()),
                ("experience_size", experience_size.to_json()),
            ]),
            WalRecord::ModelCheckpoint { version, model } => Json::obj([
                ("kind", Json::Str(self.kind().into())),
                ("version", version.to_json()),
                ("model", model.to_json()),
            ]),
            WalRecord::QueryOutcome { record } => {
                Json::obj([("kind", Json::Str(self.kind().into())), ("record", record.clone())])
            }
        }
    }
}

impl FromJson for WalRecord {
    fn from_json(j: &Json) -> Result<WalRecord> {
        let kind: String = json::field(j, "kind")?;
        match kind.as_str() {
            "run_header" => Ok(WalRecord::RunHeader {
                seed: json::field(j, "seed")?,
                config_fp: json::field(j, "config_fp")?,
            }),
            "experience" => Ok(WalRecord::ExperienceAppend {
                step: json::field(j, "step")?,
                tree: json::field(j, "tree")?,
                perf: json::field(j, "perf")?,
            }),
            "retrain" => Ok(WalRecord::RetrainBoundary {
                version: json::field(j, "version")?,
                experience_size: json::field(j, "experience_size")?,
            }),
            "checkpoint" => Ok(WalRecord::ModelCheckpoint {
                version: json::field(j, "version")?,
                model: json::field(j, "model")?,
            }),
            "outcome" => Ok(WalRecord::QueryOutcome { record: json::field(j, "record")? }),
            other => Err(BaoError::Parse(format!("unknown wal record kind {other:?}"))),
        }
    }
}

/// What a recovery scan found: how much of the log was valid, how the
/// tail ended, and the per-kind record census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Segment files visited, in order.
    pub segments_scanned: u64,
    /// Checksum-valid, decodable frames accepted.
    pub frames_valid: u64,
    /// Bytes of the log (headers + frames) that survived validation.
    pub bytes_valid: u64,
    /// Bytes discarded past the valid prefix (torn/corrupt tail).
    pub bytes_truncated: u64,
    /// The scan ended on an incomplete (torn) frame.
    pub torn_tail: bool,
    /// The scan ended on a checksum-failing or undecodable frame.
    pub corrupt_tail: bool,
    /// Valid frames discarded because they trail the last commit record.
    pub frames_rolled_back: u64,
    /// Census of replayable records, by kind.
    pub experience_appends: u64,
    pub retrain_boundaries: u64,
    pub model_checkpoints: u64,
    pub query_outcomes: u64,
    /// The workload step the recovered run resumes at (= committed
    /// query outcomes).
    pub resumed_at_step: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> FeatTree {
        FeatTree::new(
            3,
            vec![vec![0.5, 1.0, 0.25], vec![1.5, 0.0, 0.125]],
            vec![1, -1],
            vec![-1, -1],
        )
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::RunHeader { seed: 42, config_fp: 0xDEAD_BEEF_CAFE },
            WalRecord::ExperienceAppend { step: 7, tree: sample_tree(), perf: 12.3456789 },
            WalRecord::RetrainBoundary { version: 2, experience_size: 100 },
            WalRecord::ModelCheckpoint { version: 2, model: "{\"weights\":[1.5]}".into() },
            WalRecord::QueryOutcome {
                record: Json::obj([("idx", 3u64.to_json()), ("perf", 1.25f64.to_json())]),
            },
        ]
    }

    #[test]
    fn record_json_round_trip() {
        for rec in samples() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(rec, back, "round trip for kind {:?}", rec.kind());
            // And the JSON text itself is stable across a second pass.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn decode_rejects_garbage_gracefully() {
        assert!(WalRecord::decode(b"\xFF\xFE not utf8").is_err());
        assert!(WalRecord::decode(b"not json").is_err());
        assert!(WalRecord::decode(b"{\"kind\":\"martian\"}").is_err());
        assert!(WalRecord::decode(b"{\"no_kind\":1}").is_err());
        // A retired kind: plan-cache invalidations are no longer logged.
        assert!(WalRecord::decode(
            b"{\"kind\":\"invalidation\",\"version\":2,\"reason\":\"drift_shed\"}"
        )
        .is_err());
        // Trailing garbage after a valid JSON document is a parse error
        // (the workspace parser rejects it), not a silent accept.
        assert!(WalRecord::decode(b"{\"kind\":\"retrain\",\"version\":1,\"experience_size\":2} x")
            .is_err());
        // Right kind, missing field.
        assert!(WalRecord::decode(b"{\"kind\":\"checkpoint\",\"version\":1}").is_err());
    }

    #[test]
    #[expect(clippy::excessive_precision, reason = "a literal no f64 holds exactly, on purpose")]
    fn perf_round_trips_exactly() {
        // The f64 lane must preserve awkward values bit-for-bit.
        for perf in [1.0 / 3.0, 1e-300, 123456789.123456789, f64::MIN_POSITIVE] {
            let rec = WalRecord::ExperienceAppend { step: 0, tree: sample_tree(), perf };
            match WalRecord::decode(&rec.encode()).unwrap() {
                WalRecord::ExperienceAppend { perf: p, .. } => {
                    assert_eq!(p.to_bits(), perf.to_bits());
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
