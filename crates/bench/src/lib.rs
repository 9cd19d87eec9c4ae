//! Shared harness for the paper's tables and figures.
//!
//! * [`micro`] — the Section 3.4 bucket-structure microbenchmark behind
//!   Figure 1,
//! * [`mapped`] — the internal-map bucket structure Section 3.3 rejected,
//!   kept here (not in the library) for ablation A1b,
//! * [`suite`] — the synthetic input suite standing in for Table 2's graphs,
//! * [`sweep`] — thread-count sweeps via per-run Rayon pools (Figures 2–5),
//! * [`timing`] — wall-clock helpers.
//!
//! Binaries (`cargo run -p julienne-bench --release --bin <name>`):
//! `fig1`, `fig2`, `fig3`, `fig4`, `fig5`, `table1_workcheck`, `table2`,
//! `table3` regenerate the corresponding paper artifacts; see EXPERIMENTS.md.

pub mod mapped;
pub mod micro;
pub mod report;
pub mod suite;
pub mod sweep;
pub mod timing;
