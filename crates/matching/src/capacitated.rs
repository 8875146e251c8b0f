//! Capacitated bipartite matching: left nodes to colors with budgets.
//!
//! This is the exact primitive inside both sequential fair-center
//! solvers: left nodes are cluster heads / pivots, right nodes are the
//! `ℓ` colors, and color `i` may absorb up to `k_i` heads. Conceptually
//! it is maximum matching in the graph where color `i` is exploded into
//! `k_i` copies; implementing the capacities directly avoids the blow-up
//! and keeps augmenting paths short (the right side has only `ℓ` nodes).
//!
//! One augmenting-path search serves two entry points:
//! [`max_capacitated_matching`] runs it once per left node over a fixed
//! adjacency, and [`prefix_thresholds`] grows the adjacency edge weight by
//! edge weight between the searches, to find the smallest threshold at
//! which each prefix of the left nodes matches perfectly.

/// Result of a capacitated matching computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacitatedMatching {
    /// `assigned[u] = Some(c)` iff left node `u` is assigned color `c`.
    pub assigned: Vec<Option<usize>>,
    /// Per-color occupancy (`load[c] <= caps[c]`).
    pub load: Vec<usize>,
    /// Number of assigned left nodes.
    pub size: usize,
}

impl CapacitatedMatching {
    /// Whether every left node got a color ("perfect" on the left side).
    pub fn is_left_perfect(&self) -> bool {
        self.size == self.assigned.len()
    }
}

/// Computes a maximum assignment of left nodes to colors where left node
/// `u` may use any color in `adj[u]` and color `c` has capacity `caps[c]`.
///
/// Kuhn's algorithm with capacity-aware augmenting paths: a path may
/// terminate at any color with spare capacity. With `L` left nodes,
/// `ℓ` colors and `E` edges, the cost is `O(L · E)` — tiny in our use
/// (`L ≤ k`, `ℓ ≤` number of colors).
pub fn max_capacitated_matching(caps: &[usize], adj: &[Vec<usize>]) -> CapacitatedMatching {
    debug_assert!(
        adj.iter().all(|nb| nb.iter().all(|&c| c < caps.len())),
        "color out of range"
    );
    let mut kuhn = Kuhn::new(caps, adj.len());
    let size = (0..adj.len()).filter(|&u| kuhn.augment(u, adj)).count();
    CapacitatedMatching {
        load: kuhn.occupants.iter().map(Vec::len).collect(),
        assigned: kuhn.assigned,
        size,
    }
}

/// For every prefix `0..=j` of `rows` left nodes, the smallest threshold
/// `τ` at which the prefix matches perfectly when node `v` may take color
/// `c` iff `weight(v, c) <= τ`.
///
/// The candidate thresholds are the finite weights, so `±∞` and NaN never
/// become edges. Perfect matchability is monotone in `τ` (edges only get
/// added) and in `j` (a perfect matching of `0..=j` restricts to one of
/// `0..j`), so the list is non-decreasing and stops at the first prefix
/// that no candidate matches: no longer prefix can match either. Of equal
/// weights (`0.0` and `-0.0`) an entry is the first in row-major order.
///
/// One pass: the finite `(weight, node, color)` triples are sorted once
/// (stably, so ties keep their row-major order), then each node runs one
/// augmenting search at the current threshold. With the earlier nodes
/// matched, a path from the new node exists iff its prefix matches
/// perfectly (Berge), so while the search fails the threshold steps to
/// the next distinct weight, whose edges join the adjacency, and the
/// search runs again.
pub fn prefix_thresholds(
    caps: &[usize],
    rows: usize,
    weight: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let mut edges: Vec<(f64, usize, usize)> = (0..rows)
        .flat_map(|v| (0..caps.len()).map(move |c| (v, c)))
        .map(|(v, c)| (weight(v, c), v, c))
        .filter(|e| e.0.is_finite())
        .collect();
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

    let mut kuhn = Kuhn::new(caps, rows);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); rows];
    let mut taus = Vec::with_capacity(rows);
    let (mut next, mut tau) = (0, f64::NAN);
    for u in 0..rows {
        while !kuhn.augment(u, &adj) {
            let Some(&(w, _, _)) = edges.get(next) else {
                return taus;
            };
            tau = w;
            while let Some(&(_, v, c)) = edges.get(next).filter(|e| e.0 == tau) {
                adj[v].push(c);
                next += 1;
            }
        }
        taus.push(tau);
    }
    taus
}

/// Kuhn's augmenting-path search over a capacitated matching that grows
/// one left node at a time.
struct Kuhn<'a> {
    caps: &'a [usize],
    /// `occupants[c]` = left nodes currently assigned to color `c`.
    occupants: Vec<Vec<usize>>,
    assigned: Vec<Option<usize>>,
    /// Colors explored by the current search.
    visited: Vec<bool>,
}

impl<'a> Kuhn<'a> {
    fn new(caps: &'a [usize], n_left: usize) -> Self {
        Kuhn {
            caps,
            occupants: vec![Vec::new(); caps.len()],
            assigned: vec![None; n_left],
            visited: vec![false; caps.len()],
        }
    }

    /// One search from the unassigned node `u`: whether `u` got a color,
    /// possibly by moving assigned nodes to other colors. A failed search
    /// changes nothing.
    fn augment(&mut self, u: usize, adj: &[Vec<usize>]) -> bool {
        self.visited.fill(false);
        self.try_assign(u, adj)
    }

    /// Depth-first augmentation: returns true if `u` got (re)assigned.
    fn try_assign(&mut self, u: usize, adj: &[Vec<usize>]) -> bool {
        for &c in &adj[u] {
            if self.visited[c] {
                continue;
            }
            self.visited[c] = true;
            if self.occupants[c].len() < self.caps[c] {
                self.occupants[c].push(u);
                self.assigned[u] = Some(c);
                return true;
            }
            // Color full: try to relocate one of its occupants.
            for slot in 0..self.occupants[c].len() {
                let w = self.occupants[c][slot];
                if self.try_assign(w, adj) {
                    // w moved elsewhere (try_assign pushed w onto its new
                    // color); remove w's stale slot here and take it.
                    let pos = self.occupants[c]
                        .iter()
                        .position(|&x| x == w)
                        .expect("stale occupant present");
                    self.occupants[c].swap_remove(pos);
                    self.occupants[c].push(u);
                    self.assigned[u] = Some(c);
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_capacitated_size;
    use proptest::prelude::*;

    /// The per-prefix threshold search that [`super::prefix_thresholds`]
    /// replaced, kept as its oracle: for each prefix, the sorted distinct
    /// finite weights of its rows, binary-searched with a from-scratch
    /// matching, up to the first prefix that even its largest weight
    /// cannot match.
    mod reference {
        use crate::max_capacitated_matching;

        pub(super) fn prefix_thresholds(caps: &[usize], rows: usize, weights: &[f64]) -> Vec<f64> {
            let ncolors = caps.len();
            let mut taus = Vec::new();
            let mut cands: Vec<f64> = Vec::new();
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); rows];
            for j in 1..=rows {
                cands.extend(
                    weights[(j - 1) * ncolors..j * ncolors]
                        .iter()
                        .copied()
                        .filter(|d| d.is_finite()),
                );
                cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                cands.dedup();
                if cands.is_empty() {
                    break;
                }
                let mut feasible = |tau: f64| -> bool {
                    for (p, row) in adj[..j].iter_mut().enumerate() {
                        row.clear();
                        row.extend(
                            weights[p * ncolors..(p + 1) * ncolors]
                                .iter()
                                .enumerate()
                                .filter(|(_, &d)| d <= tau)
                                .map(|(c, _)| c),
                        );
                    }
                    max_capacitated_matching(caps, &adj[..j]).is_left_perfect()
                };
                if !feasible(*cands.last().expect("non-empty")) {
                    break;
                }
                let (mut lo, mut hi) = (0usize, cands.len() - 1);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if feasible(cands[mid]) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                taus.push(cands[lo]);
            }
            taus
        }
    }

    fn check_valid(m: &CapacitatedMatching, caps: &[usize], adj: &[Vec<usize>]) {
        let mut load = vec![0usize; caps.len()];
        let mut n = 0;
        for (u, a) in m.assigned.iter().enumerate() {
            if let Some(c) = a {
                assert!(adj[u].contains(c), "assigned color {c} not allowed for {u}");
                load[*c] += 1;
                n += 1;
            }
        }
        assert_eq!(n, m.size);
        assert_eq!(load, m.load);
        for (c, (&l, &cap)) in load.iter().zip(caps).enumerate() {
            assert!(l <= cap, "color {c} over capacity");
        }
    }

    #[test]
    fn trivial_cases() {
        let m = max_capacitated_matching(&[], &[]);
        assert_eq!(m.size, 0);
        let m = max_capacitated_matching(&[2], &[vec![0], vec![0], vec![0]]);
        assert_eq!(m.size, 2);
    }

    #[test]
    fn relocation_needed() {
        // Color caps [1,1]; u0 can use both, u1 only color 0.
        // Greedy might give u0 color 0; augmentation must relocate it.
        let caps = [1usize, 1];
        let adj = vec![vec![0, 1], vec![0]];
        let m = max_capacitated_matching(&caps, &adj);
        assert_eq!(m.size, 2);
        assert_eq!(m.assigned[1], Some(0));
        assert_eq!(m.assigned[0], Some(1));
        check_valid(&m, &caps, &adj);
    }

    #[test]
    fn chain_relocation() {
        // caps [1,1,1]; u0:{0}, u1:{0,1}, u2:{1,2}. Insert in order
        // u1,u2,u0 conceptually — but our insertion order is index order;
        // ensure a length-2 augmenting chain works: u0:{0,1}, u1:{1,2},
        // u2:{0} with caps[all]=1.
        let caps = [1usize, 1, 1];
        let adj = vec![vec![0, 1], vec![1, 2], vec![0]];
        let m = max_capacitated_matching(&caps, &adj);
        assert_eq!(m.size, 3);
        check_valid(&m, &caps, &adj);
    }

    #[test]
    fn infeasible_left_perfect() {
        let caps = [1usize];
        let adj = vec![vec![0], vec![0]];
        let m = max_capacitated_matching(&caps, &adj);
        assert_eq!(m.size, 1);
        assert!(!m.is_left_perfect());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_brute_force(
            caps in proptest::collection::vec(0usize..3, 1..4),
            adj_raw in proptest::collection::vec(
                proptest::collection::vec(0usize..4, 0..4), 0..6),
        ) {
            let n_colors = caps.len();
            let adj: Vec<Vec<usize>> = adj_raw
                .into_iter()
                .map(|nb| {
                    let mut v: Vec<usize> =
                        nb.into_iter().filter(|&c| c < n_colors).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let m = max_capacitated_matching(&caps, &adj);
            check_valid(&m, &caps, &adj);
            let brute = brute_force_capacitated_size(&caps, &adj);
            prop_assert_eq!(m.size, brute);
        }

        #[test]
        fn prefix_thresholds_match_the_reference_search(
            caps in proptest::collection::vec(0usize..4, 1..7),
            // A small grid makes ties; the rest are the non-finite
            // weights and both zeros.
            raw in proptest::collection::vec(
                prop_oneof![
                    (0u32..5).prop_map(f64::from),
                    Just(f64::INFINITY),
                    Just(f64::NAN),
                    Just(0.0),
                    Just(-0.0),
                ],
                0..96,
            ),
        ) {
            let ncolors = caps.len();
            let rows = (raw.len() / ncolors).min(16);
            let weights = &raw[..rows * ncolors];
            let got = prefix_thresholds(&caps, rows, |v, c| weights[v * ncolors + c]);
            let want = reference::prefix_thresholds(&caps, rows, weights);
            prop_assert_eq!(
                got.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
