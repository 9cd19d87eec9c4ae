//! The end-to-end half of the repo benchmark.
//!
//! This crate depends on nothing in the repo. It drives the two stable
//! public surfaces — the `julienne` CLI as a child process and the
//! line-JSON wire protocol over TCP — so refactors behind those surfaces
//! cannot break it. `bench-layers`, which does link the repo crates, reuses
//! the workload definitions and statistics from here.

pub mod check;
pub mod json;
pub mod proc;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod workloads;
