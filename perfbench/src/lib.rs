//! Seeded, seconds-long symbolic-test workloads for the Gillian engine,
//! with an outside-in split of exploration time across the engine's
//! layers.
//!
//! See `README.md` in this package for the workloads, the metrics and
//! how to run them.

pub mod gen;
pub mod run;
pub mod stats;
pub mod wrap;
