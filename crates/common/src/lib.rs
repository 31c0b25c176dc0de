//! Shared primitives for the Bao reproduction: error type, deterministic
//! RNG construction, simulated-time units, and small numeric utilities used
//! across every crate in the workspace.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod error;
pub mod hash;
pub mod json;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{BaoError, Result};
pub use json::{FromJson, Json, ToJson};
pub use rng::{rng_from_seed, split_seed, Rng, RngCore, Xoshiro256};
pub use time::SimDuration;
