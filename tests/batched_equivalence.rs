//! Equivalence tests for the TCNN's production paths against the scalar
//! per-tree reference, on real workload plans: the scoring engine within
//! float tolerance (and to the bit against itself, whatever the batch),
//! the batched trainer along the same loss trajectory, and bit-identically
//! across worker-thread counts.

use bao_bench::{build_workload, WorkloadName};
use bao_core::Featurizer;
use bao_models::{TcnnModel, ValueModel};
use bao_nn::{train, train_reference, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
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

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-6)
}

/// Within `tol`, relative to the reference's scale (absolute for
/// references below 1, relative above — raw relative error explodes on
/// near-zero untrained-net outputs).
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

#[test]
fn predict_batch_matches_per_tree_on_workload_arms() {
    let trees = workload_arm_trees(3, 11);
    assert_eq!(trees.len(), 3 * 49);
    let net = TreeCnn::new(TcnnConfig::small(trees[0].feat_dim), 11);
    let refs: Vec<&FeatTree> = trees.iter().collect();
    let batched = net.score(&refs, &mut ScoreScratch::new());
    assert_eq!(batched.len(), trees.len());
    for (i, t) in trees.iter().enumerate() {
        let scalar = net.forward(t).0 as f64;
        assert!(
            close(batched[i] as f64, scalar, 1e-5),
            "tree {i}: engine {} vs scalar reference {scalar}",
            batched[i]
        );
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

#[test]
fn batched_training_tracks_reference_loss_trajectory() {
    let trees = workload_arm_trees(2, 17);
    let targets: Vec<f32> = (0..trees.len()).map(|i| ((i * 31) % 50) as f32 / 50.0).collect();
    // The preset configs run with dropout 0.0, so the batched path
    // differs from the reference only by GEMM summation order.
    let cfg = TrainConfig {
        max_epochs: 4,
        patience: 5,
        seed: 17,
        batch_size: 16,
        shard_size: 8,
        ..TrainConfig::default()
    };
    let mut a = TreeCnn::new(TcnnConfig::tiny(trees[0].feat_dim), 17);
    let mut b = a.clone();
    let rep_ref = train_reference(&mut a, &trees, &targets, &cfg);
    let rep_bat = train(&mut b, &trees, &targets, &cfg);
    assert_eq!(rep_ref.loss_history.len(), rep_bat.loss_history.len());
    for (e, (lr, lb)) in
        rep_ref.loss_history.iter().zip(rep_bat.loss_history.iter()).enumerate()
    {
        let err = rel_err(*lb, *lr);
        assert!(err <= 1e-3, "epoch {e}: batched loss {lb} vs reference {lr} (rel {err})");
    }
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
    for t in &trees {
        assert_eq!(
            one.forward(t).0,
            four.forward(t).0,
            "weights must be bit-identical across thread counts"
        );
    }
}
