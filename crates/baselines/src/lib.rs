//! Learned-optimizer baselines for Figure 14: Neo-like and DQ-like
//! *unrestricted* learned optimizers, built on the same substrates as Bao.
//!
//! Both search the full plan space (join orders × operators × access
//! paths) instead of Bao's small hint-set action space, and both learn
//! purely from their own executions:
//!
//! * **Neo-like** ([`LearnedOptimizer::neo`]): candidate plans scored by a
//!   tree convolutional value network over the same plan featurization Bao
//!   uses — the paper's "Neo uses tree convolution, but fully builds query
//!   execution plans on its own".
//! * **DQ-like** ([`LearnedOptimizer::dq`]): the same search, but the value
//!   model sees only a *flat* hand-crafted featurization (a fully
//!   connected network's view — the "poor inductive bias" the paper blames
//!   for DQ's slower convergence).
//!
//! Until its first training both bootstrap from the traditional
//! optimizer's plan (as Neo bootstraps from PostgreSQL), after which they
//! pick among sampled candidate plans by predicted latency, with decaying
//! ε-greedy exploration.

#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod learned;
pub mod planspace;

pub use learned::{LearnedKind, LearnedOptimizer};
pub use planspace::random_plan;
