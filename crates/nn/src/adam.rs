//! The Adam optimizer (Kingma & Ba), as used for all paper training runs.

use crate::param::Param;
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::Result;

/// Adam hyperparameters; defaults match the paper's training setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

impl ToJson for AdamConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lr", self.lr.to_json()),
            ("beta1", self.beta1.to_json()),
            ("beta2", self.beta2.to_json()),
            ("eps", self.eps.to_json()),
        ])
    }
}

impl FromJson for AdamConfig {
    fn from_json(j: &Json) -> Result<AdamConfig> {
        Ok(AdamConfig {
            lr: json::field(j, "lr")?,
            beta1: json::field(j, "beta1")?,
            beta2: json::field(j, "beta2")?,
            eps: json::field(j, "eps")?,
        })
    }
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Optimizer state: the step counter (per-parameter moments live inside
/// each [`Param`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Adam {
    pub cfg: AdamConfig,
    t: u64,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Adam {
        Adam { cfg, t: 0 }
    }

    /// Update one parameter tensor from its accumulated gradient. Call
    /// once per tensor after bumping with [`Adam::begin_step`]. The loop
    /// runs over zipped slices, so it has no bounds checks and can
    /// vectorize; IEEE `sqrt` and `/` round the same in every lane.
    pub(crate) fn update(&self, p: &mut Param) {
        debug_assert!(self.t > 0, "call begin_step before update");
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (lr, eps) = (self.cfg.lr, self.cfg.eps);
        let moments = p.m.iter_mut().zip(p.v.iter_mut());
        for ((w, &g), (m, v)) in p.w.iter_mut().zip(&p.g).zip(moments) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// One minibatch step on one tensor: its gradient becomes the sum of
    /// `grads`, added element by element to `+0.0` in the order given
    /// (the trainer passes shard gradients in shard-index order), then
    /// [`Adam::update`] applies it — the reduce and the update in one
    /// visit of the tensor.
    pub fn step<'a>(&self, p: &mut Param, grads: impl Iterator<Item = &'a [f32]>) {
        p.g.fill(0.0);
        for g in grads {
            for (acc, &gv) in p.g.iter_mut().zip(g) {
                *acc += gv;
            }
        }
        self.update(p);
    }

    /// Start a new optimizer step (one per minibatch).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::{rng_from_seed, Rng};

    /// `Adam::update` as it was before the zipped rewrite, kept as the
    /// oracle of the fused step.
    fn update_oracle(adam: &Adam, p: &mut Param) {
        let b1 = adam.cfg.beta1;
        let b2 = adam.cfg.beta2;
        let bc1 = 1.0 - b1.powi(adam.t as i32);
        let bc2 = 1.0 - b2.powi(adam.t as i32);
        for i in 0..p.w.len() {
            let g = p.g[i];
            p.m[i] = b1 * p.m[i] + (1.0 - b1) * g;
            p.v[i] = b2 * p.v[i] + (1.0 - b2) * g * g;
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            p.w[i] -= adam.cfg.lr * mhat / (vhat.sqrt() + adam.cfg.eps);
        }
    }

    /// The trainer's fused step — reduce from `+0.0` in shard order, then
    /// the zipped update — against what it replaced: `zero_grad`, an
    /// ordered add of every shard gradient, the indexed update. `to_bits`
    /// on weights, moments and the reduced gradient, over 1–4 shards with
    /// `-0.0` entries, an all-zero shard (first or last), stale gradient
    /// left in the tensor, and step counts 1 and 1000.
    #[test]
    fn fused_step_matches_zero_grad_ordered_add_and_the_old_update() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = rng_from_seed(30);
        let draw = |rng: &mut bao_common::Xoshiro256| match rng.gen_range(0..4u32) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        };
        for shards in 1..=4usize {
            for zero_shard in [None, Some(0), Some(shards - 1)] {
                for steps in [1u64, 1000] {
                    let what = format!("{shards} shards, zero shard {zero_shard:?}, step {steps}");
                    let n = 45;
                    let mut p = Param::he(n, 1, shards as u64);
                    p.m = (0..n).map(|_| draw(&mut rng)).collect();
                    p.v = (0..n).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                    p.g = (0..n).map(|_| draw(&mut rng)).collect();
                    let mut shard_grad = |s| -> Vec<f32> {
                        let zero = zero_shard == Some(s);
                        (0..n).map(|_| if zero { 0.0 } else { draw(&mut rng) }).collect()
                    };
                    let grads: Vec<Vec<f32>> = (0..shards).map(&mut shard_grad).collect();
                    let mut adam = Adam::new(AdamConfig { lr: 0.01, ..AdamConfig::default() });
                    (0..steps).for_each(|_| adam.begin_step());

                    let mut q = p.clone();
                    adam.step(&mut p, grads.iter().map(|g| g.as_slice()));
                    q.zero_grad();
                    for g in &grads {
                        for (qv, &gv) in q.g.iter_mut().zip(g) {
                            *qv += gv;
                        }
                    }
                    update_oracle(&adam, &mut q);
                    let pairs = [(&p.w, &q.w), (&p.m, &q.m), (&p.v, &q.v), (&p.g, &q.g)];
                    for ((a, b), name) in pairs.into_iter().zip(["w", "m", "v", "g"]) {
                        assert_eq!(bits(a), bits(b), "{name}, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn descends_a_quadratic() {
        // minimize (w - 3)^2 for a single scalar parameter
        let mut p = Param::from_weights(1, 1, vec![0.0]);
        let mut adam = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() });
        for _ in 0..200 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            adam.begin_step();
            adam.update(&mut p);
        }
        assert!((p.w[0] - 3.0).abs() < 0.1, "w={}", p.w[0]);
        assert_eq!(adam.t, 200);
    }

    #[test]
    fn zero_grad_is_noop_update_direction() {
        let mut p = Param::from_weights(1, 1, vec![1.0]);
        let mut adam = Adam::new(AdamConfig::default());
        adam.begin_step();
        adam.update(&mut p);
        // zero gradient, zero moments: weight unchanged
        assert_eq!(p.w[0], 1.0);
    }

    #[test]
    fn larger_gradient_moves_faster_initially() {
        let mk = |g: f32| {
            let mut p = Param::from_weights(1, 1, vec![0.0]);
            p.g[0] = g;
            let mut adam = Adam::new(AdamConfig::default());
            adam.begin_step();
            adam.update(&mut p);
            p.w[0].abs()
        };
        // Adam normalizes by the second moment, so first-step sizes are
        // equal regardless of gradient magnitude — a property worth
        // pinning down.
        assert!((mk(0.1) - mk(10.0)).abs() < 1e-6);
    }
}
