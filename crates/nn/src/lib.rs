//! From-scratch neural network substrate for Bao's value model.
//!
//! The paper trains its tree convolutional neural network (Figure 5) in
//! PyTorch on a GPU; mature tree-CNN crates do not exist in Rust, so this
//! crate implements the full stack directly: parameter tensors, tree
//! convolution over binarized plan trees (Mou et al. [57], as simplified
//! for plan trees by Neo [51]), layer normalization, ReLU, dynamic max
//! pooling, fully connected layers, mean-squared-error loss, exact manual
//! backpropagation, and the Adam optimizer.
//!
//! Architecture (paper Figure 5): three tree-convolution layers →
//! dynamic pooling → two fully connected layers, with ReLU activations
//! and layer normalization between layers. Channel widths are
//! configurable; the paper's 256/128/64 + 32 is [`TcnnConfig::paper`],
//! and a reduced-width default keeps full experiment sweeps fast on CPU.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

mod adam;
pub mod infer;
pub mod layers;
pub mod net;
pub mod param;
pub mod train;
pub mod tree;

pub use adam::AdamConfig;
pub use infer::ScoreScratch;
pub use net::{BatchTape, TcnnConfig, TreeCnn};
pub use param::Param;
pub use train::{train, TrainConfig, TrainReport};
pub use tree::{FeatTree, TreeBatch};
