//! Bao's experience buffer: the sliding window of (plan tree, observed
//! performance) pairs the value model trains on (paper §3.2's bounded
//! |E| with the `k` most recent experiences).

use bao_nn::FeatTree;
use std::collections::VecDeque;

/// Sliding-window experience store.
#[derive(Debug, Clone)]
pub struct Experience {
    window: usize,
    entries: VecDeque<(FeatTree, f64)>,
}

impl Experience {
    /// Window of the `window` most recent experiences (paper default
    /// k = 2000).
    pub fn new(window: usize) -> Experience {
        Experience { window: window.max(1), entries: VecDeque::new() }
    }

    pub fn window(&self) -> usize {
        self.window
    }

    /// Record one observation, evicting the oldest beyond the window.
    pub fn add(&mut self, tree: FeatTree, perf: f64) {
        self.entries.push_back((tree, perf));
        while self.entries.len() > self.window {
            self.entries.pop_front();
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot as parallel training vectors.
    pub fn training_data(&self) -> (Vec<FeatTree>, Vec<f64>) {
        let trees = self.entries.iter().map(|(t, _)| t.clone()).collect();
        let ys = self.entries.iter().map(|&(_, y)| y).collect();
        (trees, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(v: f32) -> FeatTree {
        FeatTree::leaf(vec![v])
    }

    #[test]
    fn add_and_snapshot() {
        let mut e = Experience::new(10);
        e.add(tree(1.0), 100.0);
        e.add(tree(2.0), 200.0);
        let (ts, ys) = e.training_data();
        assert_eq!(ts.len(), 2);
        assert_eq!(ys, vec![100.0, 200.0]);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut e = Experience::new(3);
        for i in 0..5 {
            e.add(tree(i as f32), i as f64);
        }
        assert_eq!(e.len(), 3);
        let (_, ys) = e.training_data();
        assert_eq!(ys, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let mut e = Experience::new(0);
        e.add(tree(1.0), 1.0);
        e.add(tree(2.0), 2.0);
        assert_eq!(e.len(), 1);
    }
}
