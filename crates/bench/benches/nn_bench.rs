//! Microbenchmarks of the TCNN substrate: inference (Bao predicts 49
//! plans per query) and training (one Thompson resample), at both the
//! experiment widths and the paper's full widths, plus each tree
//! convolution kernel alone at the `small` net's layer shapes and one
//! trainer slot's whole shard pass.

use bao_bench::timing::{bench_function, Group};
use bao_common::{rng_from_seed, Rng};
use bao_nn::layers::{
    tree_conv_backward_batch_input, tree_conv_backward_batch_params, tree_conv_forward_batch,
    TreeConvParams,
};
use bao_nn::param::KernelScratch;
use bao_nn::{
    train, BatchTape, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeBatch, TreeCnn,
};

fn plan_like_tree(rng: &mut impl Rng, dim: usize, nodes: usize) -> FeatTree {
    // A left-deep strict binary tree, like a binarized join plan.
    let n = nodes | 1; // odd
    let mut feats = Vec::with_capacity(n);
    let mut left = vec![-1i32; n];
    let mut right = vec![-1i32; n];
    for _ in 0..n {
        let mut v = vec![0.0f32; dim];
        v[rng.gen_range(0..dim.min(9))] = 1.0;
        if dim > 9 {
            v[9] = rng.gen_range(0.0..1.0);
        }
        if dim > 10 {
            v[10] = rng.gen_range(0.0..1.0);
        }
        feats.push(v);
    }
    let mut next = 1i32;
    let mut cur = 0usize;
    while (next as usize) + 1 < n {
        left[cur] = next;
        right[cur] = next + 1;
        cur = next as usize;
        next += 2;
    }
    FeatTree::new(dim, feats, left, right)
}

fn bench_inference() {
    let mut rng = rng_from_seed(3);
    let dim = 12;
    let tree = plan_like_tree(&mut rng, dim, 21);
    let g = Group::new("tcnn_predict_21_nodes", 10);
    for (name, cfg) in
        [("small", TcnnConfig::small(dim)), ("paper_256_128_64", TcnnConfig::paper(dim))]
    {
        let net = TreeCnn::new(cfg, 1);
        let mut scratch = ScoreScratch::new();
        g.bench(name, || {
            std::hint::black_box(net.score(&[&tree], &mut scratch));
        });
    }
}

fn bench_training() {
    let mut rng = rng_from_seed(4);
    let dim = 12;
    let trees: Vec<FeatTree> = (0..128).map(|_| plan_like_tree(&mut rng, dim, 15)).collect();
    let ys: Vec<f32> = (0..trees.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    bench_function("tcnn_train_128x5_epochs_small", 10, || {
        let mut net = TreeCnn::new(TcnnConfig::small(dim), 2);
        train(&mut net, &trees, &ys, &TrainConfig { max_epochs: 5, ..TrainConfig::default() });
    });
}

/// The three batched tree-convolution kernels of the `small` net, one
/// layer at a time, over one training shard's worth of node rows (8
/// plan-like trees of 9 nodes). `sparse` rows are what each layer sees
/// in training — one-hot plan features at layer 0, ReLU outputs with
/// about half their entries zero after it; `dense` rows have no zeros.
/// Times are per call; divide by the 72 node rows for a per-node figure.
fn bench_conv_kernels() {
    let dim = 13;
    let trees = training_shard(dim);
    let batch = TreeBatch::pack(trees.iter());
    let mut ks = KernelScratch::default();
    let (mut y, mut dx) = (Vec::new(), Vec::new());
    let mut rng = rng_from_seed(6);
    let n = batch.total_nodes();
    let g = Group::new("tcnn_conv_kernels_72_nodes", 10);
    for (layer, (in_c, out_c)) in [(dim, 64), (64, 32), (32, 16)].into_iter().enumerate() {
        let mut p = TreeConvParams::new(in_c, out_c, 7 + layer as u64);
        let dense_rows = |rng: &mut _, c: usize| -> Vec<f32> {
            (0..n * c).map(|_| Rng::gen_range(rng, 0.1f32..1.0)).collect()
        };
        let half_zero = |rng: &mut _, v: &[f32]| -> Vec<f32> {
            let mut keep = || Rng::gen_range(rng, 0.0f32..1.0) >= 0.5;
            v.iter().map(|&v| if keep() { v } else { 0.0 }).collect()
        };
        let (x_dense, dy_dense) = (dense_rows(&mut rng, in_c), dense_rows(&mut rng, out_c));
        let x_sparse = if layer == 0 { batch.feats.clone() } else { half_zero(&mut rng, &x_dense) };
        let dy_sparse = half_zero(&mut rng, &dy_dense);
        for (rows, x, dy) in [("sparse", &x_sparse, &dy_sparse), ("dense", &x_dense, &dy_dense)] {
            let case = format!("layer{layer}_{in_c}x{out_c}_{rows}");
            let (left, right) = (&batch.left, &batch.right);
            g.bench(&format!("{case}/forward"), || {
                tree_conv_forward_batch(&p, left, right, x, &mut y, &mut ks);
                std::hint::black_box(&y);
            });
            // The weight gradient compacts `x`; its `dy` is the dense
            // layer-norm gradient in training.
            g.bench(&format!("{case}/weight_grad"), || {
                tree_conv_backward_batch_params(&mut p, left, right, x, &dy_dense, &mut ks);
                std::hint::black_box(&p.top.g);
            });
            g.bench(&format!("{case}/input_grad"), || {
                tree_conv_backward_batch_input(&p, left, right, dy, &mut dx, &mut ks);
                std::hint::black_box(&dx);
            });
        }
    }
}

/// One training shard: 8 plan-like trees of 9 nodes (72 node rows) of
/// 13 features, the shape of an IMDb shard (real plans average 7.8
/// nodes).
fn training_shard(dim: usize) -> Vec<FeatTree> {
    let mut rng = rng_from_seed(5);
    (0..8).map(|_| plan_like_tree(&mut rng, dim, 9)).collect()
}

/// One trainer slot's shard pass at the `small` net — zero the gradient,
/// pack, batched forward with tape, batched backward — the way `train`
/// runs it: `first_call` builds the packed batch and the workspace afresh
/// (`TreeBatch::pack`, `forward_train_batch`), `warm` reuses one of each
/// (`repack`, `forward_batch_into`). Prints ns per node row, the unit of
/// DESIGN.md §8's per-kernel table.
fn bench_shard_pass() {
    let dim = 13;
    let trees = training_shard(dim);
    let d_outs: Vec<f32> = (0..trees.len()).map(|i| 0.1 * i as f32 - 0.3).collect();
    let mut net = TreeCnn::new(TcnnConfig::small(dim), 8);
    let mut warm_net = net.clone();
    let mut batch = TreeBatch::pack(trees.iter());
    let rows = batch.total_nodes() as f64;
    let mut tape = BatchTape::default();
    let mut first_call = || {
        net.zero_grad();
        let batch = TreeBatch::pack(trees.iter());
        let (_, mut tape) = net.forward_train_batch(&batch, &mut rng_from_seed(1));
        net.backward_batch(&batch, &mut tape, &d_outs);
        std::hint::black_box(&net);
    };
    let mut warm = || {
        warm_net.zero_grad();
        batch.repack(trees.iter());
        warm_net.forward_batch_into(&batch, Some(&mut rng_from_seed(1)), &mut tape);
        warm_net.backward_batch(&batch, &mut tape, &d_outs);
        std::hint::black_box(&warm_net);
    };
    let g = Group::new("train_shard_pass_small_8_trees", 2000);
    let stats = g.bench_interleaved(&mut [
        ("train_shard_pass_first_call", &mut first_call),
        ("train_shard_pass_warm", &mut warm),
    ]);
    for (label, s) in ["first_call", "warm"].iter().zip(&stats) {
        println!("train_shard_pass_{label}: {:.1} ns per node row (median)", s.median * 1e9 / rows);
    }
}

fn main() {
    bench_inference();
    bench_training();
    bench_conv_kernels();
    bench_shard_pass();
}
