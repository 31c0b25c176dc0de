//! Minibatch training loop with the paper's stopping rule.
//!
//! §6.1: "Training is performed with Adam using a batch size of 16, and
//! is ran until either 100 epochs elapsed or convergence (decrease in
//! training loss of less than 1% over 10 epochs) is reached."
//!
//! The minibatch gradient runs through the batched TCNN kernels: each
//! minibatch is split into fixed-size *shards*, every shard is packed
//! into a [`TreeBatch`] and pushed through
//! [`TreeCnn::forward_train_batch`] / [`TreeCnn::backward_batch`], and
//! shard gradients are reduced into the master net **in shard-index
//! order**, by one step per parameter tensor that sums the slots from
//! `+0.0` and applies Adam ([`Adam::step`]).
//!
//! What defines the numerics: `shard_size` (shard boundaries are GEMM
//! boundaries), `batch_size`, `seed` (the shuffle stream, and through
//! each shard's global counter its dropout stream) and the reduction
//! order. What does not: `threads`, the host's core count, and which
//! thread computes which shard — the loss history and every weight bit
//! are the same at any width (`tests/train_golden.rs` pins them).
//!
//! What runs where: every shard slot of a minibatch owns one workspace
//! for the whole run — a weight copy refreshed per minibatch, gradient
//! buffers, the packed shard and every buffer of the batched forward and
//! backward — sized once when the slot is built, so nothing inside the
//! epoch loop clones a net or grows a buffer. The calling thread is the
//! coordinator and one of the `width` compute threads. A minibatch's
//! shards are ranked by node rows (ties by index) and the coordinator
//! takes ranks 0, `width`, `2·width`, …, so the largest shard runs on the
//! thread that never waits to be woken; `width - 1` persistent helpers
//! take the rest, each slot moving to its helper and back over a pair of
//! channels. At width 1 — one core, or one shard per minibatch — no
//! thread, channel or lock exists.
//!
//! The old one-tree-at-a-time loop survives as [`train_reference`] for
//! equivalence tests.

use crate::adam::{Adam, AdamConfig};
use crate::net::{BatchTape, TreeCnn};
use crate::tree::{FeatTree, TreeBatch};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::pool::resolve_width;
use bao_common::{rng_from_seed, split_seed, Result, Rng};
use std::cmp::Reverse;
use std::sync::mpsc;

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub max_epochs: usize,
    pub batch_size: usize,
    pub adam: AdamConfig,
    /// Convergence window (epochs) and required relative improvement.
    pub patience: usize,
    pub min_improvement: f64,
    pub seed: u64,
    /// Threads computing minibatch gradient shards, the coordinator
    /// included: `0` (the default) is auto — one per available core —
    /// and `1` runs every shard inline. Whatever is asked for is capped at
    /// the shards a minibatch has, and resolved inside [`train`] on every
    /// call, so a serialized config never records the host. Width never
    /// affects numerics; explicit values exist for the width-invariance
    /// pins and `inference_bench`'s inline-vs-auto ratio.
    pub threads: usize,
    /// Trees per gradient shard. Smaller shards expose more parallelism;
    /// larger shards amortize packing. Numerics depend on this value
    /// (shard GEMM boundaries), so it is part of the config, not a
    /// runtime autodetect.
    pub shard_size: usize,
}

impl ToJson for TrainConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("max_epochs", self.max_epochs.to_json()),
            ("batch_size", self.batch_size.to_json()),
            ("adam", self.adam.to_json()),
            ("patience", self.patience.to_json()),
            ("min_improvement", self.min_improvement.to_json()),
            ("seed", self.seed.to_json()),
            ("threads", self.threads.to_json()),
            ("shard_size", self.shard_size.to_json()),
        ])
    }
}

impl FromJson for TrainConfig {
    fn from_json(j: &Json) -> Result<TrainConfig> {
        Ok(TrainConfig {
            max_epochs: json::field(j, "max_epochs")?,
            batch_size: json::field(j, "batch_size")?,
            adam: json::field(j, "adam")?,
            patience: json::field(j, "patience")?,
            min_improvement: json::field(j, "min_improvement")?,
            seed: json::field(j, "seed")?,
            // Absent in models serialized before the batched trainer.
            threads: json::field(j, "threads").unwrap_or(1),
            shard_size: json::field(j, "shard_size").unwrap_or(8),
        })
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 100,
            batch_size: 16,
            adam: AdamConfig::default(),
            patience: 10,
            min_improvement: 0.01,
            seed: 0,
            threads: 0,
            shard_size: 8,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub loss_history: Vec<f64>,
}

/// One shard slot of a minibatch: the shard's description plus the
/// persistent workspace its gradient is computed in. `net` carries a
/// private copy of the weights (refreshed from the master every
/// minibatch) and, in its `.g` buffers, the shard gradient; `batch`,
/// `tape` and `d_outs` are the packed shard, the forward/backward
/// workspace and the output gradients. Slots are built once per [`train`]
/// call and then only moved — to a helper and back — never cloned, and
/// after the first shard nothing in them reallocates.
struct ShardSlot {
    net: TreeCnn,
    batch: TreeBatch,
    tape: BatchTape,
    d_outs: Vec<f32>,
    idxs: Vec<usize>,
    drop_seed: u64,
    scale: f32,
    /// The shard's summed squared error, set by [`ShardSlot::run`].
    loss: f64,
}

impl ShardSlot {
    /// A slot whose workspace is sized up front by one pass over the
    /// largest shard `trees` can form — its `shard_size` largest trees,
    /// which hold the most node rows — so every buffer already has the
    /// capacity any later shard needs. The pass's gradient is discarded:
    /// [`ShardSlot::run`] zeroes it.
    fn new(master: &TreeCnn, trees: &[FeatTree], targets: &[f32], shard_size: usize) -> ShardSlot {
        let mut net = master.clone();
        // A workspace never takes an optimizer step.
        net.for_each_param(|p| {
            p.m = Vec::new();
            p.v = Vec::new();
        });
        let mut largest: Vec<usize> = (0..trees.len()).collect();
        largest.sort_by_key(|&i| Reverse(trees[i].n_nodes()));
        largest.truncate(shard_size);
        let mut slot = ShardSlot {
            net,
            batch: TreeBatch::pack([]),
            tape: BatchTape::default(),
            d_outs: Vec::new(),
            idxs: largest,
            drop_seed: 0,
            scale: 0.0,
            loss: 0.0,
        };
        slot.run(trees, targets);
        slot
    }

    /// Point the slot at one shard of the current minibatch: the master's
    /// weights by copy, and the shard's examples, dropout seed and loss
    /// scale.
    fn load(&mut self, master: &TreeCnn, idxs: &[usize], drop_seed: u64, scale: f32) {
        self.net.for_each_param_pair(master, |p, q| p.w.copy_from_slice(&q.w));
        self.idxs.clear();
        self.idxs.extend_from_slice(idxs);
        self.drop_seed = drop_seed;
        self.scale = scale;
    }

    /// Gradient of the loaded shard: pack, batched forward, MSE error,
    /// batched backward into the workspace's gradient buffers (zeroed
    /// here, by the thread that fills them).
    fn run(&mut self, trees: &[FeatTree], targets: &[f32]) {
        self.net.zero_grad();
        self.batch.repack(self.idxs.iter().map(|&i| &trees[i]));
        let mut rng = rng_from_seed(self.drop_seed);
        let preds = self.net.forward_batch_into(&self.batch, Some(&mut rng), &mut self.tape);
        self.loss = 0.0;
        self.d_outs.clear();
        for (&pred, &i) in preds.iter().zip(&self.idxs) {
            let err = pred - targets[i];
            self.loss += (err * err) as f64;
            self.d_outs.push(2.0 * err * self.scale);
        }
        self.net.backward_batch(&self.batch, &mut self.tape, &self.d_outs);
    }
}

/// The coordinator's two channel ends to one helper thread. A helper
/// returns slots in the order it received them.
struct Helper {
    jobs: mpsc::Sender<ShardSlot>,
    results: mpsc::Receiver<ShardSlot>,
}

/// The epoch/minibatch loop, run by the coordinator at width
/// `helpers.len() + 1`. A minibatch's shards are ranked by node rows,
/// largest first (ties by index), and rank `r` belongs to thread
/// `r % width`, thread 0 being the coordinator itself: it never waits to
/// be woken, so it takes the largest shard. With no helpers every shard
/// runs inline and no channel is touched. Whoever computes shard `s`, its
/// gradient lands in slot `s`, and the slots reduce into the master **in
/// shard-index order** — which is what makes the result independent of
/// width, ranking and scheduling.
fn train_loop(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
    helpers: &[Helper],
    mut after_minibatch: impl FnMut(&[Option<ShardSlot>]),
) -> TrainReport {
    let mut adam = Adam::new(cfg.adam);
    let mut rng = rng_from_seed(cfg.seed);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    let mut history: Vec<f64> = Vec::with_capacity(cfg.max_epochs);
    let batch_size = cfg.batch_size.max(1);
    let shard_size = cfg.shard_size.max(1);
    // Dropout streams are decoupled from the shuffle stream so that the
    // shard decomposition cannot perturb example ordering.
    let drop_stream = split_seed(cfg.seed, 0x9d70);
    let mut step: u64 = 0;

    let width = helpers.len() + 1;
    let helper_of = |rank: usize| (rank % width).checked_sub(1).map(|h| &helpers[h]);
    // `None` only while a helper holds the slot: never between waves.
    let mut slots: Vec<Option<ShardSlot>> = (0..max_shards(trees.len(), cfg))
        .map(|_| Some(ShardSlot::new(net, trees, targets, shard_size)))
        .collect();
    let mut ranked: Vec<usize> = Vec::with_capacity(slots.len());

    for epoch in 0..cfg.max_epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(batch_size) {
            let scale = 1.0 / batch.len() as f32;
            let n_shards = batch.len().div_ceil(shard_size);
            let wave = &mut slots[..n_shards];
            let shard = |s: usize| &batch[s * shard_size..batch.len().min((s + 1) * shard_size)];
            let rows = |s: usize| shard(s).iter().map(|&i| trees[i].n_nodes()).sum::<usize>();
            ranked.clear();
            ranked.extend(0..n_shards);
            ranked.sort_unstable_by_key(|&s| (Reverse(rows(s)), s));
            let load = |slot: &mut ShardSlot, master: &TreeCnn, s: usize| {
                slot.load(master, shard(s), split_seed(drop_stream, step + s as u64), scale);
            };
            // Helpers get their shards before the coordinator starts on
            // its own. A helper that is gone hands the slot straight back,
            // and the coordinator computes it with the rest of its share.
            for (r, &s) in ranked.iter().enumerate() {
                let Some(mut job) = wave[s].take() else { continue };
                load(&mut job, net, s);
                wave[s] = match helper_of(r) {
                    Some(helper) => helper.jobs.send(job).err().map(|mpsc::SendError(job)| job),
                    None => Some(job),
                };
            }
            for slot in wave.iter_mut().flatten() {
                slot.run(trees, targets);
            }
            // Each helper's slots come back in the rank order they were
            // sent in, so slot `s` receives the shard sent for `s`.
            for (r, &s) in ranked.iter().enumerate() {
                let Some(helper) = helper_of(r) else { continue };
                if wave[s].is_none() {
                    wave[s] = Some(match helper.results.recv() {
                        Ok(done) => done,
                        // The helper died holding the slot (its panic
                        // surfaces when the scope joins): compute the
                        // shard here on a fresh workspace — same inputs,
                        // same kernels, same bits.
                        Err(_) => {
                            let mut fresh = ShardSlot::new(net, trees, targets, shard_size);
                            load(&mut fresh, net, s);
                            fresh.run(trees, targets);
                            fresh
                        }
                    });
                }
            }
            step += n_shards as u64;

            for slot in wave.iter().flatten() {
                epoch_loss += slot.loss;
            }
            adam.begin_step();
            for (i, p) in net.params_mut().enumerate() {
                let grads = wave.iter().flatten().map(|slot| slot.net.params().nth(i));
                adam.step(p, grads.map(|q| q.expect("same config").g.as_slice()));
            }
            after_minibatch(&slots);
        }
        epoch_loss /= trees.len() as f64;
        history.push(epoch_loss);

        // Convergence: less than `min_improvement` relative decrease over
        // the last `patience` epochs.
        if epoch >= cfg.patience {
            let then = history[epoch - cfg.patience];
            if epoch_loss > then * (1.0 - cfg.min_improvement) {
                break;
            }
        }
    }
    TrainReport {
        epochs_run: history.len(),
        loss_history: history,
    }
}

/// Shards in the largest minibatch of a run over `n_trees` examples.
fn max_shards(n_trees: usize, cfg: &TrainConfig) -> usize {
    cfg.batch_size.max(1).min(n_trees).div_ceil(cfg.shard_size.max(1))
}

/// Train `net` on `(trees, targets)` with MSE loss. Targets should be
/// pre-normalized by the caller (Bao's model layer normalizes log-scale
/// latencies).
///
/// Each minibatch gradient is computed through the batched kernels in
/// `shard_size`-tree shards, at a width of `cfg.threads` (`0`: one per
/// available core) capped at the shards a minibatch has. The coordinator
/// is one of those threads: it computes the largest shard (and every
/// `width`-th after it in size order) itself, and `width - 1` helpers —
/// spawned once, alive for the whole run, fed over channels — compute the
/// rest. At width 1 nothing is spawned and no channel exists. Shard
/// boundaries and per-shard dropout seeds depend only on the config, and
/// shard gradients reduce in shard-index order, so results are identical
/// at any width.
pub fn train(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
) -> TrainReport {
    train_observed(net, trees, targets, cfg, |_| {})
}

/// [`train`], calling `after_minibatch` on the coordinator with every
/// slot at home after each minibatch's step.
fn train_observed(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
    after_minibatch: impl FnMut(&[Option<ShardSlot>]),
) -> TrainReport {
    assert_eq!(trees.len(), targets.len());
    if trees.is_empty() {
        return TrainReport { epochs_run: 0, loss_history: vec![] };
    }
    let width = resolve_width(cfg.threads).min(max_shards(trees.len(), cfg));
    if width <= 1 {
        return train_loop(net, trees, targets, cfg, &[], after_minibatch);
    }
    std::thread::scope(|scope| {
        let helpers: Vec<Helper> = (1..width)
            .map(|_| {
                let (jobs, job_rx) = mpsc::channel::<ShardSlot>();
                let (res_tx, results) = mpsc::channel();
                scope.spawn(move || {
                    // A closed job channel means training finished; a
                    // closed result channel means the coordinator is gone.
                    for mut slot in job_rx {
                        slot.run(trees, targets);
                        if res_tx.send(slot).is_err() {
                            break;
                        }
                    }
                });
                Helper { jobs, results }
            })
            .collect();
        // `helpers` drops when this closure returns, which closes the job
        // channels; the helpers drain and exit, and the scope joins them.
        train_loop(net, trees, targets, cfg, &helpers, after_minibatch)
    })
}

/// One-tree-at-a-time trainer: the pre-batching implementation, kept as
/// the numerical reference for equivalence tests (nothing but tests
/// calls it). Ignores `threads`/`shard_size`.
pub fn train_reference(
    net: &mut TreeCnn,
    trees: &[FeatTree],
    targets: &[f32],
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(trees.len(), targets.len());
    if trees.is_empty() {
        return TrainReport { epochs_run: 0, loss_history: vec![] };
    }
    let mut adam = Adam::new(cfg.adam);
    let mut rng = rng_from_seed(cfg.seed);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    let mut history: Vec<f64> = Vec::with_capacity(cfg.max_epochs);

    for epoch in 0..cfg.max_epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            net.zero_grad();
            let scale = 1.0 / batch.len() as f32;
            for &i in batch {
                let (pred, tape) = net.forward_train(&trees[i], &mut rng);
                let err = pred - targets[i];
                epoch_loss += (err * err) as f64;
                net.backward(&trees[i], &tape, 2.0 * err * scale);
            }
            adam.begin_step();
            net.for_each_param(|p| adam.update(p));
        }
        epoch_loss /= trees.len() as f64;
        history.push(epoch_loss);

        // Convergence: less than `min_improvement` relative decrease over
        // the last `patience` epochs.
        if epoch >= cfg.patience {
            let then = history[epoch - cfg.patience];
            if epoch_loss > then * (1.0 - cfg.min_improvement) {
                break;
            }
        }
    }
    TrainReport {
        epochs_run: history.len(),
        loss_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TcnnConfig;

    /// Trees whose target is a simple function of their features: the net
    /// must be able to fit it.
    fn dataset(n: usize, seed: u64) -> (Vec<FeatTree>, Vec<f32>) {
        let mut rng = rng_from_seed(seed);
        let mut trees = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            let root = vec![a, 0.3, -0.1];
            let l = vec![b, -0.4, 0.2];
            let r = vec![a * b, 0.1, 0.9];
            trees.push(FeatTree::new(3, vec![root, l, r], vec![1, -1, -1], vec![2, -1, -1]));
            ys.push(0.8 * a - 0.5 * b + 0.3 * a * b);
        }
        (trees, ys)
    }

    #[test]
    fn loss_decreases() {
        let (trees, ys) = dataset(64, 3);
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 17);
        let cfg = TrainConfig {
            max_epochs: 60,
            seed: 5,
            adam: AdamConfig { lr: 0.01, ..AdamConfig::default() },
            ..TrainConfig::default()
        };
        let report = train(&mut net, &trees, &ys, &cfg);
        assert!(report.epochs_run >= 10);
        let first = report.loss_history[0];
        let last = report.loss_history[report.loss_history.len() - 1];
        assert!(last < first * 0.5, "loss should halve: {first} -> {last}");
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        // Targets uncorrelated with the features: the tiny net hits its
        // noise floor quickly, after which relative improvement stalls and
        // the patience rule must stop training well before max_epochs.
        let (trees, _) = dataset(64, 4);
        let mut rng = rng_from_seed(40);
        let ys: Vec<f32> = (0..trees.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 2);
        let cfg = TrainConfig {
            max_epochs: 100,
            seed: 6,
            adam: AdamConfig { lr: 0.01, ..AdamConfig::default() },
            ..TrainConfig::default()
        };
        let report = train(&mut net, &trees, &ys, &cfg);
        assert!(report.epochs_run < 100, "ran {} epochs", report.epochs_run);
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 2);
        let report = train(&mut net, &[], &[], &TrainConfig::default());
        assert_eq!(report.epochs_run, 0);
    }

    #[test]
    fn training_is_deterministic() {
        let (trees, ys) = dataset(32, 8);
        let cfg = TrainConfig { max_epochs: 5, seed: 9, ..TrainConfig::default() };
        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let mut b = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let ra = train(&mut a, &trees, &ys, &cfg);
        let rb = train(&mut b, &trees, &ys, &cfg);
        assert_eq!(ra.loss_history, rb.loss_history);
        assert_eq!(a.forward(&trees[0]).0, b.forward(&trees[0]).0);
    }

    #[test]
    fn thread_count_does_not_change_numerics() {
        let (trees, ys) = dataset(48, 11);
        let base = TrainConfig {
            max_epochs: 4,
            seed: 13,
            shard_size: 4,
            ..TrainConfig::default()
        };
        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 7);
        let mut b = a.clone();
        let ra = train(&mut a, &trees, &ys, &TrainConfig { threads: 1, ..base });
        let rb = train(&mut b, &trees, &ys, &TrainConfig { threads: 4, ..base });
        assert_eq!(ra.loss_history, rb.loss_history, "loss must be thread-count invariant");
        assert_eq!(a.forward(&trees[0]).0, b.forward(&trees[0]).0);
    }

    #[test]
    fn batched_tracks_reference_trajectory() {
        // With dropout off, the batched path differs from the per-tree
        // reference only by GEMM summation order, so the two loss
        // trajectories must stay within float-reassociation distance.
        let (trees, ys) = dataset(48, 21);
        let mut cfg_net = TcnnConfig::tiny(3);
        cfg_net.dropout = 0.0;
        let cfg = TrainConfig { max_epochs: 8, seed: 17, ..TrainConfig::default() };
        let mut a = TreeCnn::new(cfg_net.clone(), 5);
        let mut b = a.clone();
        let ra = train(&mut a, &trees, &ys, &cfg);
        let rb = train_reference(&mut b, &trees, &ys, &cfg);
        assert_eq!(ra.epochs_run, rb.epochs_run);
        for (la, lb) in ra.loss_history.iter().zip(rb.loss_history.iter()) {
            let denom = lb.abs().max(1e-6);
            assert!(
                (la - lb).abs() / denom < 1e-3,
                "trajectories diverged: {} vs {}",
                la,
                lb
            );
        }
    }

    #[test]
    fn config_json_roundtrip_tolerates_missing_batch_fields() {
        let cfg = TrainConfig { threads: 3, shard_size: 5, ..TrainConfig::default() };
        let j = cfg.to_json();
        assert_eq!(TrainConfig::from_json(&j).unwrap(), cfg);
        // A config serialized before the batched trainer lacks the new
        // fields; decoding must fall back to the sequential defaults.
        let legacy = Json::obj([
            ("max_epochs", 100usize.to_json()),
            ("batch_size", 16usize.to_json()),
            ("adam", AdamConfig::default().to_json()),
            ("patience", 10usize.to_json()),
            ("min_improvement", 0.01f64.to_json()),
            ("seed", 0u64.to_json()),
        ]);
        let decoded = TrainConfig::from_json(&legacy).unwrap();
        assert_eq!(decoded.threads, 1);
        assert_eq!(decoded.shard_size, 8);
    }

    impl ShardSlot {
        /// Capacity and data pointer of every buffer of the slot's
        /// workspace (the allocation guard below).
        fn buffers(&self) -> Vec<(usize, usize)> {
            use crate::param::tests::buf;
            let b = &self.batch;
            let mut out = vec![buf(&b.feats), buf(&b.left), buf(&b.right), buf(&b.offsets)];
            out.extend([buf(&self.d_outs), buf(&self.idxs)]);
            out.extend(self.tape.buffers());
            out
        }
    }

    /// After the first minibatch of a 3-epoch `train` call no workspace
    /// buffer grows or moves, inline and with a helper, on trees of 1 to
    /// 19 nodes (shards from a few node rows to over a hundred) under
    /// dropout, whose masks are workspace buffers too.
    #[test]
    fn workspaces_never_reallocate_after_the_first_minibatch() {
        let dim = 4;
        let mut rng = rng_from_seed(12);
        let trees: Vec<FeatTree> =
            (0..40).map(|i| crate::net::tests::sized_tree(&mut rng, dim, i * 7 % 10)).collect();
        let ys: Vec<f32> = (0..trees.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for threads in [1, 2] {
            let cfg = TrainConfig { max_epochs: 3, patience: 100, threads, ..Default::default() };
            let mut net = TreeCnn::new(TcnnConfig::tiny(dim).with_dropout(0.2), 4);
            let mut first: Option<Vec<Vec<(usize, usize)>>> = None;
            let mut minibatches = 0;
            train_observed(&mut net, &trees, &ys, &cfg, |slots| {
                let now: Vec<_> =
                    slots.iter().map(|s| s.as_ref().expect("home").buffers()).collect();
                minibatches += 1;
                let what = format!("threads {threads}, minibatch {minibatches}");
                match &first {
                    None => first = Some(now),
                    Some(first) => assert_eq!(first, &now, "{what}"),
                }
            });
            assert_eq!(minibatches, 3 * 3, "threads {threads}");
        }
    }

    /// Train one epoch at width 2 (shards of 4, so four shards per
    /// minibatch) on a dataset whose tree `bad` has the wrong feature
    /// width, after replaying the trainer's shuffle and its size ranking
    /// to check that `owner` (0: the coordinator, 1: the helper) is the
    /// thread that packs it. Every third tree is a one-node leaf, so the
    /// shards differ in node rows and the ranking, not the shard index,
    /// decides the owner: the coordinator takes ranks 0 and 2, the helper
    /// 1 and 3. Whoever packs the bad tree panics; `train` must unwind
    /// with that panic, not wait for a slot that will never come back.
    fn train_with_bad_tree(bad: usize, owner: usize) {
        let (mut trees, ys) = dataset(32, 5);
        for i in (0..trees.len()).step_by(3) {
            trees[i] = FeatTree::leaf(vec![0.5, -0.5, 0.25]);
        }
        trees[bad] = FeatTree::leaf(vec![1.0, 2.0]);
        let cfg = TrainConfig { max_epochs: 1, shard_size: 4, threads: 2, ..TrainConfig::default() };
        let mut order: Vec<usize> = (0..trees.len()).collect();
        rng_from_seed(cfg.seed).shuffle(&mut order);
        let at = order.iter().position(|&i| i == bad).expect("every tree is in the order");
        let minibatch = order.chunks(cfg.batch_size).nth(at / cfg.batch_size).expect("in range");
        let rows: Vec<usize> = minibatch
            .chunks(cfg.shard_size)
            .map(|shard| shard.iter().map(|&i| trees[i].n_nodes()).sum())
            .collect();
        let mut ranked: Vec<usize> = (0..rows.len()).collect();
        ranked.sort_by(|&a, &b| rows[b].cmp(&rows[a]).then(a.cmp(&b)));
        let shard = at % cfg.batch_size / cfg.shard_size;
        let rank = ranked.iter().position(|&s| s == shard).expect("every shard is ranked");
        assert_eq!(rank % 2, owner, "tree {bad}: shard {shard} of rows {rows:?}, rank {rank}");
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 1);
        train(&mut net, &trees, &ys, &cfg);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn a_panicking_shard_unwinds_instead_of_hanging() {
        // The helper dies holding the slot: the coordinator finds its
        // result channel closed, recomputes the shard inline on a fresh
        // workspace and meets the same panic on its own thread. Tree 2
        // sits in shard 0, the smallest of its minibatch (rank 3), so
        // shard-index routing would have kept it on the coordinator.
        train_with_bad_tree(2, 1);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn a_panicking_coordinator_shard_unwinds() {
        // Tree 9 sits in shard 1 at rank 2: the coordinator's by size,
        // the helper's by shard index.
        train_with_bad_tree(9, 0);
    }
}
