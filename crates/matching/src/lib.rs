//! Bipartite-matching substrate.
//!
//! Both sequential fair-center baselines reduce center selection to a
//! bipartite matching question:
//!
//! * **ChenEtAl** (matroid center): given cluster heads pairwise `> 2r`,
//!   decide whether each head's ball `B(head, r)` can be assigned a
//!   *distinct color slot* — a matching between heads and colors where
//!   color `i` has capacity `k_i`;
//! * **Jones** (fair k-center via maximum matching): the same question for
//!   Gonzalez pivot prefixes and a distance threshold `τ`, answered for
//!   every prefix at once by [`prefix_thresholds`].
//!
//! This crate implements [`hopcroft_karp`] (maximum-cardinality matching
//! in `O(E√V)`) for one-to-one instances, and [`capacitated`] matching
//! (left nodes to colored slots with per-color capacities) which is the
//! form the solvers actually consume. A brute-force reference
//! implementation backs the property tests.

pub mod brute;
pub mod capacitated;
pub mod hopcroft_karp;

pub use capacitated::{max_capacitated_matching, prefix_thresholds, CapacitatedMatching};
pub use hopcroft_karp::{max_bipartite_matching, BipartiteMatching};
