//! Matroid intersection: maximum common independent set of two matroids.
//!
//! The original Chen–Li–Liang–Wang matroid-center algorithm asks, for a
//! radius guess `r`, whether an independent set of the *constraint*
//! matroid can hit every head's ball — a maximum common independent set
//! between the constraint matroid and the (partition) matroid of disjoint
//! balls. Our fair-center solvers shortcut this to capacitated bipartite
//! matching (valid exactly because the constraint is a partition
//! matroid); this module provides the general algorithm so the library
//! also solves matroid center under *laminar*, *transversal* or any other
//! user-supplied matroid (see [`crate::laminar`], [`crate::transversal`]
//! and `fairsw-sequential`'s generic solver).
//!
//! Implementation: the classical exchange-graph augmenting-path scheme
//! (Lawler). Starting from `S = ∅`, build the directed exchange graph
//!
//! * `x ∈ S → y ∉ S` when `S − x + y` is independent in `M₁`,
//! * `y ∉ S → x ∈ S` when `S − x + y` is independent in `M₂`,
//!
//! with sources `X₁ = {y ∉ S : S + y ∈ I₁}` and sinks
//! `X₂ = {y ∉ S : S + y ∈ I₂}`; a shortest source→sink path is an
//! augmenting sequence whose symmetric difference with `S` is a common
//! independent set one larger. No augmenting path ⇒ `S` is maximum
//! (Lawler's theorem).
//!
//! One ascending greedy pass first adds every element free in both
//! matroids. Because a dependent set stays dependent in every superset,
//! it adds exactly the elements that repeated length-0 augmentations
//! ("the first element of `X₁ ∩ X₂`") would, in the same order. Each
//! search then finds a shortest path, and augmenting along shortest paths
//! never shortens the next one (Cunningham, SIAM J. Comput. 1986), so
//! `X₁ ∩ X₂` stays empty. Loops of either matroid are never a source, a
//! sink or inside a path, so they are dropped up front. With `m`
//! non-loop elements and `|S| ≤ r`, a search makes `O(m·r)` oracle calls
//! on sets of at most `r + 1` elements, and at most `r + 1` searches run.

use crate::Matroid;
use std::collections::VecDeque;

/// Whether `S − remove + add` is independent in `m`. `s` lists `S` in
/// ascending order; the set handed to the oracle keeps that order with
/// `add` last and is staged in the reused `buf`.
fn exchange_independent<M: Matroid<usize>>(
    m: &M,
    s: &[usize],
    remove: Option<usize>,
    add: usize,
    buf: &mut Vec<usize>,
) -> bool {
    buf.clear();
    buf.extend(s.iter().copied().filter(|&e| Some(e) != remove));
    buf.push(add);
    m.is_independent(buf)
}

/// Computes a maximum common independent set (as element indices
/// `0..n`, ascending) of two matroids given by independence oracles over
/// index subsets.
pub fn max_common_independent<M1, M2>(n: usize, m1: &M1, m2: &M2) -> Vec<usize>
where
    M1: Matroid<usize>,
    M2: Matroid<usize>,
{
    let live: Vec<usize> = (0..n)
        .filter(|&e| m1.is_independent(&[e]) && m2.is_independent(&[e]))
        .collect();
    let mut in_s = vec![false; n];
    let mut s: Vec<usize> = Vec::new();
    let mut buf: Vec<usize> = Vec::new();
    let mut sink = vec![false; n];
    let mut sources: Vec<usize> = Vec::new();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();

    // Greedy phase: every element free in both matroids, ascending.
    for &y in &live {
        if exchange_independent(m1, &s, None, y, &mut buf)
            && exchange_independent(m2, &s, None, y, &mut buf)
        {
            in_s[y] = true;
            s.push(y);
        }
    }

    loop {
        // Sources and sinks; no element is both (see the module docs).
        sources.clear();
        for &y in &live {
            if !in_s[y] {
                sink[y] = exchange_independent(m2, &s, None, y, &mut buf);
                if exchange_independent(m1, &s, None, y, &mut buf) {
                    debug_assert!(!sink[y], "element {y} is free in both matroids");
                    sources.push(y);
                }
            }
        }

        // BFS over the exchange graph from all of X1, looking for X2.
        prev.fill(None);
        seen.fill(false);
        queue.clear();
        for &y in &sources {
            seen[y] = true;
            queue.push_back(y);
        }
        let mut found: Option<usize> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            if !in_s[u] {
                // u ∉ S: edges u → x ∈ S when S − x + u ∈ I₂.
                for &x in &s {
                    if !seen[x] && exchange_independent(m2, &s, Some(x), u, &mut buf) {
                        seen[x] = true;
                        prev[x] = Some(u);
                        queue.push_back(x);
                    }
                }
            } else {
                // u ∈ S: edges u → y ∉ S when S − u + y ∈ I₁.
                for &y in &live {
                    if !in_s[y] && !seen[y] && exchange_independent(m1, &s, Some(u), y, &mut buf) {
                        seen[y] = true;
                        prev[y] = Some(u);
                        if sink[y] {
                            found = Some(y);
                            break 'bfs;
                        }
                        queue.push_back(y);
                    }
                }
            }
        }

        // No augmenting path: S is maximum.
        let Some(mut v) = found else { break };
        // Symmetric difference along the path toggles membership.
        loop {
            in_s[v] = !in_s[v];
            match prev[v] {
                Some(p) => v = p,
                None => break,
            }
        }
        s.clear();
        s.extend(live.iter().copied().filter(|&i| in_s[i]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Group, LaminarMatroid, OverColors, PartitionMatroid, TransversalMatroid, UniformMatroid,
    };
    use proptest::prelude::*;

    /// Intersection without the greedy phase: every length-0 augmentation
    /// recomputes all sources and sinks, loops included. Kept verbatim as
    /// the oracle that [`super::max_common_independent`] must reproduce
    /// element for element.
    mod reference {
        use crate::Matroid;
        use std::collections::VecDeque;

        pub(super) fn max_common_independent<M1, M2>(n: usize, m1: &M1, m2: &M2) -> Vec<usize>
        where
            M1: Matroid<usize>,
            M2: Matroid<usize>,
        {
            let mut in_s = vec![false; n];

            loop {
                let s: Vec<usize> = (0..n).filter(|&i| in_s[i]).collect();

                // Membership-toggled independence test: S with x removed, y added.
                let indep_with = |m: &dyn Fn(&[usize]) -> bool,
                                  remove: Option<usize>,
                                  add: Option<usize>|
                 -> bool {
                    let mut set: Vec<usize> =
                        s.iter().copied().filter(|&e| Some(e) != remove).collect();
                    if let Some(a) = add {
                        set.push(a);
                    }
                    m(&set)
                };
                let i1 = |set: &[usize]| m1.is_independent(set);
                let i2 = |set: &[usize]| m2.is_independent(set);

                // Sources and sinks.
                let x1: Vec<usize> = (0..n)
                    .filter(|&y| !in_s[y] && indep_with(&i1, None, Some(y)))
                    .collect();
                let x2: Vec<usize> = (0..n)
                    .filter(|&y| !in_s[y] && indep_with(&i2, None, Some(y)))
                    .collect();

                // Immediate win: an element free in both matroids.
                if let Some(&y) = x1.iter().find(|y| x2.contains(y)) {
                    in_s[y] = true;
                    continue;
                }

                // BFS over the exchange graph from all of X1, looking for X2.
                let mut prev: Vec<Option<usize>> = vec![None; n];
                let mut seen = vec![false; n];
                let mut queue = VecDeque::new();
                for &y in &x1 {
                    seen[y] = true;
                    queue.push_back(y);
                }
                let mut found: Option<usize> = None;
                'bfs: while let Some(u) = queue.pop_front() {
                    if !in_s[u] {
                        // u ∉ S: edges u → x ∈ S when S − x + u ∈ I₂.
                        if x2.contains(&u) && prev[u].is_some() {
                            // (Handled below at enqueue time; kept for clarity.)
                        }
                        for x in 0..n {
                            if in_s[x] && !seen[x] && indep_with(&i2, Some(x), Some(u)) {
                                seen[x] = true;
                                prev[x] = Some(u);
                                queue.push_back(x);
                            }
                        }
                    } else {
                        // u ∈ S: edges u → y ∉ S when S − u + y ∈ I₁.
                        for y in 0..n {
                            if !in_s[y] && !seen[y] && indep_with(&i1, Some(u), Some(y)) {
                                seen[y] = true;
                                prev[y] = Some(u);
                                if x2.contains(&y) {
                                    found = Some(y);
                                    break 'bfs;
                                }
                                queue.push_back(y);
                            }
                        }
                    }
                }
                // A source that is itself a sink was handled above; otherwise a
                // source in X2 with no path step means direct augmentation too.
                if found.is_none() {
                    if let Some(&y) = x1.iter().find(|y| x2.contains(y)) {
                        found = Some(y);
                    }
                }

                match found {
                    None => break, // no augmenting path: S is maximum
                    Some(mut v) => {
                        // Symmetric difference along the path toggles membership.
                        loop {
                            in_s[v] = !in_s[v];
                            match prev[v] {
                                Some(p) => v = p,
                                None => break,
                            }
                        }
                    }
                }
            }

            (0..n).filter(|&i| in_s[i]).collect()
        }
    }

    /// One matroid over element indices, drawn from the shapes the solvers
    /// meet; each shape can have loops.
    enum Shape {
        /// Per-color caps over colors `0..3`; color 3 has no budget.
        Partition(Vec<u32>, PartitionMatroid),
        /// Nested caps; a zero cap on `{0}` makes color 0 a loop.
        Laminar(Vec<u32>, LaminarMatroid),
        /// Slots `0..3`; an element with no slot is a loop.
        Transversal(TransversalMatroid),
        /// Rank 0 makes every element a loop.
        Uniform(UniformMatroid),
        /// `matroid_center`'s disjoint balls: at most one element per
        /// ball; an element in no ball is a loop.
        Balls(Vec<Option<usize>>),
    }

    impl Shape {
        /// Builds shape `kind` over `n` elements from the random words `r`.
        fn new(kind: usize, n: usize, r: &[u32]) -> Self {
            let colors = || r[3..3 + n].iter().map(|&w| w % 4).collect::<Vec<u32>>();
            match kind {
                0 => Shape::Partition(
                    colors(),
                    PartitionMatroid::new(r[..3].iter().map(|&w| 1 + w as usize % 2).collect())
                        .unwrap(),
                ),
                1 => Shape::Laminar(
                    colors(),
                    LaminarMatroid::new(vec![
                        Group::new(vec![0], r[0] as usize % 2),
                        Group::new(vec![0, 1], 1 + r[1] as usize % 2),
                        Group::new(vec![0, 1, 2], 1 + r[2] as usize % 3),
                    ])
                    .unwrap(),
                ),
                2 => Shape::Transversal(TransversalMatroid::new(
                    r[3..3 + n]
                        .iter()
                        .map(|&w| (0..3).filter(|s| w >> s & 1 == 1).collect())
                        .collect(),
                    3,
                )),
                3 => Shape::Uniform(UniformMatroid::new(r[0] as usize % 4)),
                _ => Shape::Balls(
                    r[3..3 + n]
                        .iter()
                        .map(|&w| Some(w as usize % 4).filter(|&b| b < 3))
                        .collect(),
                ),
            }
        }
    }

    impl Matroid<usize> for Shape {
        fn is_independent(&self, set: &[usize]) -> bool {
            match self {
                Shape::Partition(colors, m) => OverColors::new(colors, m).is_independent(set),
                Shape::Laminar(colors, m) => OverColors::new(colors, m).is_independent(set),
                Shape::Transversal(m) => m.is_independent(set),
                Shape::Uniform(m) => m.is_independent(set),
                Shape::Balls(ball_of) => {
                    let mut used = [false; 3];
                    set.iter().all(|&e| match ball_of[e] {
                        Some(b) => !std::mem::replace(&mut used[b], true),
                        None => false,
                    })
                }
            }
        }

        fn rank(&self) -> usize {
            match self {
                Shape::Partition(_, m) => m.rank(),
                Shape::Laminar(_, m) => m.rank(),
                Shape::Transversal(m) => m.rank(),
                Shape::Uniform(m) => Matroid::<usize>::rank(m),
                Shape::Balls(_) => 3,
            }
        }
    }

    /// Adapter: a matroid over indices given per-index colors and a
    /// color-level partition matroid.
    struct Colored<'a> {
        colors: &'a [u32],
        inner: PartitionMatroid,
    }

    impl Matroid<usize> for Colored<'_> {
        fn is_independent(&self, set: &[usize]) -> bool {
            self.inner
                .colors_independent(set.iter().map(|&i| self.colors[i]))
        }
        fn rank(&self) -> usize {
            self.inner.rank()
        }
    }

    /// Brute-force maximum common independent set size.
    fn brute<M1: Matroid<usize>, M2: Matroid<usize>>(n: usize, m1: &M1, m2: &M2) -> usize {
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if m1.is_independent(&set) && m2.is_independent(&set) && set.len() > best {
                best = set.len();
            }
        }
        best
    }

    #[test]
    fn uniform_uniform() {
        let a = UniformMatroid::new(3);
        let b = UniformMatroid::new(2);
        let s = max_common_independent(5, &a, &b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn partition_vs_partition_needs_augmentation() {
        // Elements 0..4 with colors in two different partitions; greedy
        // without augmentation under-fills.
        let colors_a = [0u32, 0, 1, 1];
        let colors_b = [0u32, 1, 0, 1];
        let ma = Colored {
            colors: &colors_a,
            inner: PartitionMatroid::new(vec![1, 1]).unwrap(),
        };
        let mb = Colored {
            colors: &colors_b,
            inner: PartitionMatroid::new(vec![1, 1]).unwrap(),
        };
        let s = max_common_independent(4, &ma, &mb);
        // Max = 2 (e.g. {0, 3}: colors a = {0,1}, colors b = {0,1}).
        assert_eq!(s.len(), brute(4, &ma, &mb));
        assert!(ma.is_independent(&s) && mb.is_independent(&s));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_brute_force(
            n in 1usize..8,
            colors_a in proptest::collection::vec(0u32..3, 8),
            colors_b in proptest::collection::vec(0u32..3, 8),
            caps_a in proptest::collection::vec(1usize..3, 3),
            caps_b in proptest::collection::vec(1usize..3, 3),
        ) {
            let ma = Colored {
                colors: &colors_a[..n],
                inner: PartitionMatroid::new(caps_a).unwrap(),
            };
            let mb = Colored {
                colors: &colors_b[..n],
                inner: PartitionMatroid::new(caps_b).unwrap(),
            };
            let s = max_common_independent(n, &ma, &mb);
            prop_assert!(ma.is_independent(&s));
            prop_assert!(mb.is_independent(&s));
            prop_assert_eq!(s.len(), brute(n, &ma, &mb));
        }

        #[test]
        fn uniform_intersection_is_min_rank(
            n in 0usize..10,
            ka in 0usize..6,
            kb in 0usize..6,
        ) {
            let a = UniformMatroid::new(ka);
            let b = UniformMatroid::new(kb);
            let s = max_common_independent(n, &a, &b);
            prop_assert_eq!(s.len(), n.min(ka).min(kb));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn greedy_phase_matches_the_reference_element_for_element(
            n in 0usize..14,
            kind_a in 0usize..5,
            kind_b in 0usize..5,
            ra in proptest::collection::vec(0u32..1024, 17),
            rb in proptest::collection::vec(0u32..1024, 17),
        ) {
            let (a, b) = (Shape::new(kind_a, n, &ra), Shape::new(kind_b, n, &rb));
            let s = max_common_independent(n, &a, &b);
            prop_assert_eq!(&s, &reference::max_common_independent(n, &a, &b));
            prop_assert!(a.is_independent(&s) && b.is_independent(&s));
        }
    }
}
