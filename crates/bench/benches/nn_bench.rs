//! Microbenchmarks of the TCNN substrate: inference (Bao predicts 49
//! plans per query) and training (one Thompson resample), at both the
//! experiment widths and the paper's full widths.

use bao_bench::timing::{bench_function, Group};
use bao_common::{rng_from_seed, Rng};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};

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
    for (name, cfg) in [
        ("small", TcnnConfig::small(dim)),
        ("paper_256_128_64", TcnnConfig::paper(dim)),
    ] {
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

fn main() {
    bench_inference();
    bench_training();
}
