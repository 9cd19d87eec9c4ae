//! Bucketing-based graph algorithms (Section 4) and their baselines
//! (Section 5 comparators).
//!
//! Each Julienne application follows the paper's pseudocode closely and is
//! paired with the comparators used in Table 3:
//!
//! | problem | Julienne (work-efficient) | baselines |
//! |---------|---------------------------|-----------|
//! | coreness | [`kcore::coreness`] | Ligra-style work-inefficient ([`kcore::coreness_ligra`]), sequential Batagelj–Zaversnik ([`kcore::coreness_bz_seq`]) |
//! | SSSP | [`delta_stepping::sssp`] / [`delta_stepping::wbfs`] | Ligra Bellman–Ford ([`bellman_ford`]), sequential Dijkstra ([`dijkstra`]), GAP-style bin Δ-stepping ([`gap_delta`]) |
//! | set cover | [`setcover::cover`] | PBBS-style non-rebucketing ([`setcover_baselines::set_cover_pbbs_style`]), sequential greedy ([`setcover_baselines::set_cover_greedy_seq`]) |
//!
//! [`bfs`] provides the plain frontier-based BFS (the one-bucket special
//! case) and [`stats`] the workload statistics (peeling complexity ρ,
//! the eccentricity of vertex 0) reported in Table 2.
//!
//! [`registry`] is the single dispatch table (algorithm id → typed params
//! → report) that both the CLI and the query server route through. Beyond
//! the table above, the crate holds only what a registered query runs
//! ([`components`], [`degeneracy`]'s densest subgraph, [`triangles`],
//! [`ktruss`], [`clustering`], [`pagerank`]), the dynamic path
//! ([`dynamic`]), Dial's bucket queue ([`dial`], a Table 3 row), and the
//! sequential references the tests compare against.

pub mod bellman_ford;
pub mod bfs;
pub mod clustering;
pub mod components;
pub mod degeneracy;
pub mod delta_stepping;
pub mod dial;
pub mod dijkstra;
pub mod dynamic;
pub mod gap_delta;
pub mod kcore;
pub mod ktruss;
pub mod pagerank;
pub mod registry;
pub mod setcover;
pub mod setcover_baselines;
pub mod stats;
pub mod triangles;

/// Distance value for unreachable vertices.
pub const INF: u64 = u64::MAX;
