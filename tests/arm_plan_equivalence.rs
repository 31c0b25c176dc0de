//! The TCNN's paths on real workload plans, where no absolute pin
//! reaches: the scorer against the batched training forward to the bit
//! on every arm plan of three IMDb queries, a fitted model's forest
//! prediction against one tree at a time, and training bit-identical
//! across worker-thread counts.

use bao_bench::{build_workload, WorkloadName};
use bao_core::Featurizer;
use bao_models::{TcnnModel, ValueModel};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeBatch, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;

/// Featurized plans for every arm in the 49-family over `n_queries` real
/// IMDb queries — the tree set `Bao::evaluate_arms` scores.
fn workload_arm_trees(n_queries: usize, seed: u64) -> Vec<FeatTree> {
    let (db, wl) = build_workload(WorkloadName::Imdb, 0.03, n_queries, seed).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, seed);
    let opt = Optimizer::postgres();
    let featurizer = Featurizer::new(false);
    let arms = HintSet::family_49();
    let mut trees = Vec::new();
    for step in wl.steps.iter().take(n_queries) {
        for &arm in &arms {
            let out = opt.plan(&step.query, &db, &cat, arm).unwrap();
            trees.push(featurizer.featurize(&out.root, &step.query, &db, None));
        }
    }
    trees
}

/// `score` equals the batched training forward bit for bit on forests of
/// four or more trees (`crates/nn/src/infer.rs`); here on the 147 arm
/// plans `Bao::evaluate_arms` scores for three real queries, many of them
/// duplicates, on a net trained a few epochs (a fresh net's all-zero
/// biases hide accumulation-order differences).
#[test]
fn score_matches_forward_batch_bit_for_bit_on_workload_arms() {
    let trees = workload_arm_trees(3, 11);
    assert_eq!(trees.len(), 3 * 49);
    let mut net = TreeCnn::new(TcnnConfig::small(trees[0].feat_dim), 11);
    let targets: Vec<f32> = (0..trees.len()).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
    train(&mut net, &trees, &targets, &TrainConfig { max_epochs: 2, ..TrainConfig::default() });
    let refs: Vec<&FeatTree> = trees.iter().collect();
    let scored = net.score(&refs, &mut ScoreScratch::new());
    let (taped, _) = net.forward_batch(&TreeBatch::pack(refs.iter().copied()));
    assert_eq!(scored.len(), trees.len());
    for (i, (s, t)) in scored.iter().zip(&taped).enumerate() {
        assert_eq!(s.to_bits(), t.to_bits(), "tree {i}: score {s} vs batched forward {t}");
    }
}

#[test]
fn model_predict_batch_matches_per_tree_after_fit() {
    let trees = workload_arm_trees(2, 13);
    let targets: Vec<f64> = (0..trees.len()).map(|i| 1.0 + (i % 17) as f64).collect();
    let train_cfg = TrainConfig { max_epochs: 3, ..TrainConfig::default() };
    let mut model = TcnnModel::new(TcnnConfig::tiny(trees[0].feat_dim), train_cfg);
    model.fit(&trees, &targets, 13);
    assert!(model.is_fitted());
    let refs: Vec<&FeatTree> = trees.iter().collect();
    let batched = model.predict_batch(&refs).unwrap();
    for (i, t) in trees.iter().enumerate() {
        // `predict` is a batch of one: same engine, same bits.
        let alone = model.predict(t).unwrap();
        assert_eq!(batched[i].to_bits(), alone.to_bits(), "tree {i}: {} vs {alone}", batched[i]);
    }
}

fn weight_bits(net: &mut TreeCnn) -> Vec<u32> {
    let mut bits = Vec::new();
    net.for_each_param(|p| bits.extend(p.w.iter().map(|w| w.to_bits())));
    bits
}

#[test]
fn training_is_thread_count_invariant() {
    let trees = workload_arm_trees(1, 19);
    let targets: Vec<f32> = (0..trees.len()).map(|i| (i % 10) as f32 / 10.0).collect();
    let cfg = TrainConfig {
        max_epochs: 3,
        patience: 4,
        seed: 19,
        batch_size: 16,
        shard_size: 4,
        ..TrainConfig::default()
    };
    let mut one = TreeCnn::new(TcnnConfig::tiny(trees[0].feat_dim), 19);
    let mut four = one.clone();
    let rep1 = train(&mut one, &trees, &targets, &TrainConfig { threads: 1, ..cfg });
    let rep4 = train(&mut four, &trees, &targets, &TrainConfig { threads: 4, ..cfg });
    assert_eq!(rep1.loss_history, rep4.loss_history, "loss must not depend on thread count");
    assert_eq!(
        weight_bits(&mut one),
        weight_bits(&mut four),
        "weights must be bit-identical across thread counts"
    );
}
