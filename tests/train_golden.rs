//! Absolute pins on `bao_nn::train`.
//!
//! `thread_count_does_not_change_numerics` and `arm_plan_equivalence`
//! compare two runs of the same trainer to each other, which says
//! nothing once both sides are rewritten. These digests pin the whole loss history and every weight
//! bit after training on a fixed dataset, at every thread setting, so a
//! change to the minibatch-gradient step that moves any bit fails here.
//!
//! At shards of 8 a minibatch has at most two shards, and the reduce
//! `0 + a + b` gives the same bits in either order, so only the loss sum
//! could see the shards reduced out of order. The shards-of-4 case gives
//! a minibatch four shards and up to three helpers, so a reduce that
//! follows completion order instead of shard order moves weight bits.
//!
//! Each case also pins `TreeCnn::score` over the whole dataset on the
//! trained net: the scorer is otherwise compared only with the batched
//! training forward (`crates/nn/src/infer.rs`), so a change that moved
//! both the same way would pass there and fail here.
//!
//! A digest moves only when the numerics move. When that is intended,
//! re-pin from the assertion message and say why in CHANGES.md.

use bao_common::{rng_from_seed, Rng};
use bao_nn::{train, FeatTree, Param, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use bao_wal::fnv64;

/// One-hot operator (3 join kinds, 2 scan kinds) + 4 numeric features,
/// two of which are often exactly zero (like the cache features of a
/// cold plan) so the kernels' zero-skips are exercised.
const FEAT_DIM: usize = 9;
const BATCH_SIZE: usize = 16;
const SHARD_SIZE: usize = 8;
/// `16k + 9`: the last minibatch of every epoch is one full shard plus a
/// one-tree shard.
const N_TREES: usize = 16 * 4 + 9;
const TRAIN_SEED: u64 = 29;

fn node_feats(rng: &mut impl Rng, leaf: bool) -> Vec<f32> {
    let mut f = vec![0.0f32; FEAT_DIM];
    let op = if leaf { 3 + rng.gen_index(2) } else { rng.gen_index(3) };
    f[op] = 1.0;
    f[5] = rng.gen_range(0.0f32..1.0);
    f[6] = rng.gen_range(0.0f32..1.0);
    if rng.gen_bool(0.4) {
        f[7] = rng.gen_range(0.0f32..1.0);
    }
    if leaf && rng.gen_bool(0.5) {
        f[8] = rng.gen_range(0.0f32..1.0);
    }
    f
}

/// Append a random strict binary subtree of `n_nodes` (odd) in pre-order;
/// returns its root index.
fn grow(
    rng: &mut impl Rng,
    n_nodes: usize,
    nodes: &mut Vec<Vec<f32>>,
    left: &mut Vec<i32>,
    right: &mut Vec<i32>,
) -> i32 {
    let me = nodes.len();
    nodes.push(node_feats(rng, n_nodes == 1));
    left.push(-1);
    right.push(-1);
    if n_nodes > 1 {
        // Split the remaining (even) node budget into two odd halves.
        let pairs = (n_nodes - 1) / 2;
        let l_nodes = 2 * rng.gen_index(pairs) + 1;
        left[me] = grow(rng, l_nodes, nodes, left, right);
        right[me] = grow(rng, n_nodes - 1 - l_nodes, nodes, left, right);
    }
    me as i32
}

/// Plan-shaped trees (every node has zero or two children) of 1 to 15
/// nodes; a third of them are 1- or 3-node trees, below
/// `Param::MATMUL_MIN_BATCH` node rows when they land in a one-tree shard.
fn dataset() -> (Vec<FeatTree>, Vec<f32>) {
    let mut rng = rng_from_seed(0x7ee5);
    let mut trees = Vec::with_capacity(N_TREES);
    let mut ys = Vec::with_capacity(N_TREES);
    for i in 0..N_TREES {
        let n_nodes = match i % 6 {
            0 => 1,
            1 => 3,
            _ => 2 * rng.gen_index(6) + 5,
        };
        let (mut nodes, mut left, mut right) = (Vec::new(), Vec::new(), Vec::new());
        grow(&mut rng, n_nodes, &mut nodes, &mut left, &mut right);
        let y = nodes.iter().map(|f| f[5] * (1.0 + f[0]) - 0.5 * f[6] * f[3]).sum::<f32>()
            / n_nodes as f32;
        trees.push(FeatTree::new(FEAT_DIM, nodes, left, right));
        ys.push(y);
    }
    (trees, ys)
}

fn train_cfg(max_epochs: usize, shard_size: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        max_epochs,
        batch_size: BATCH_SIZE,
        shard_size,
        seed: TRAIN_SEED,
        threads,
        ..TrainConfig::default()
    }
}

/// Two FNV-1a digests after training: the loss history's bits, then
/// every parameter's weight bits in `for_each_param` order; and the bits
/// of `score` over every tree of the dataset, in dataset order.
fn digests_after_train(
    net_cfg: TcnnConfig,
    max_epochs: usize,
    shard_size: usize,
    threads: usize,
) -> [u64; 2] {
    let (trees, ys) = dataset();
    let mut net = TreeCnn::new(net_cfg, 41);
    let report = train(&mut net, &trees, &ys, &train_cfg(max_epochs, shard_size, threads));
    assert_eq!(report.epochs_run, max_epochs, "fixed work: no early stop expected");
    let mut bytes = Vec::new();
    for l in &report.loss_history {
        bytes.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    net.for_each_param(|p| {
        for w in &p.w {
            bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    });
    let refs: Vec<&FeatTree> = trees.iter().collect();
    let scores = net.score(&refs, &mut ScoreScratch::new());
    let score_bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_bits().to_le_bytes()).collect();
    [fnv64(&bytes), fnv64(&score_bytes)]
}

fn assert_pinned_at_every_width(
    what: &str,
    net_cfg: TcnnConfig,
    max_epochs: usize,
    shard_size: usize,
    want: u64,
    want_score: u64,
) {
    for threads in [0, 1, 2, 3, 4] {
        let [got, got_score] = digests_after_train(net_cfg, max_epochs, shard_size, threads);
        assert_eq!(got, want, "{what}, threads {threads}: digest {got:#018x}, pinned {want:#018x}");
        assert_eq!(
            got_score, want_score,
            "{what}, threads {threads}: score digest {got_score:#018x}, pinned {want_score:#018x}"
        );
    }
}

/// The dataset must actually reach the shapes the pins are meant to
/// cover: replay the trainer's shuffle stream and check that some epoch
/// ends in a one-tree shard below the GEMM row threshold (the matvec
/// fallback) and some epoch in one at or above it.
#[test]
fn dataset_reaches_the_tail_shard_shapes() {
    let (trees, _) = dataset();
    assert_eq!(N_TREES % BATCH_SIZE, SHARD_SIZE + 1);
    let mut rng = rng_from_seed(TRAIN_SEED);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    let (mut below, mut at_or_above) = (0, 0);
    for _ in 0..6 {
        rng.shuffle(&mut order);
        let tail = &trees[*order.last().unwrap()];
        if tail.n_nodes() < Param::MATMUL_MIN_BATCH {
            below += 1;
        } else {
            at_or_above += 1;
        }
    }
    assert!(below > 0 && at_or_above > 0, "tail shards: {below} small, {at_or_above} large");
}

#[test]
fn small_net_without_dropout_matches_pinned_digest() {
    assert_pinned_at_every_width(
        "small, no dropout",
        TcnnConfig::small(FEAT_DIM),
        6,
        SHARD_SIZE,
        0x0a66fcbea77ee911,
        0x31fbf057ebd127c2,
    );
}

#[test]
fn tiny_net_with_dropout_matches_pinned_digest() {
    assert_pinned_at_every_width(
        "tiny, dropout 0.2",
        TcnnConfig::tiny(FEAT_DIM).with_dropout(0.2),
        12,
        SHARD_SIZE,
        0xba54934bb54afd7e,
        0x3a215f50b8a3a405,
    );
}

#[test]
fn small_net_at_four_shards_per_minibatch_matches_pinned_digest() {
    assert_pinned_at_every_width(
        "small, no dropout, shards of 4",
        TcnnConfig::small(FEAT_DIM),
        6,
        4,
        0x151da305a43fb157,
        0xfe64c5c7abcac379,
    );
}
