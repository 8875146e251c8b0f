//! Randomized matroid-axiom coverage for the oracles this crate ships.
//!
//! The `axioms` module provides exhaustive checkers (empty-set
//! independence, downward closure / heredity, augmentation / exchange)
//! but until now only the partition and uniform matroids ran them under
//! random inputs. This suite extends the randomized coverage to
//! [`AnyMatroid`] (all three runtime-selected shapes), [`LaminarMatroid`]
//! (random chains and a capped tree), [`TransversalMatroid`] (random
//! bipartite slot systems), and the matroid-intersection oracle
//! (answers verified against brute-force enumeration on heterogeneous
//! matroid pairs).

use fairsw_matroid::axioms::check_all;
use fairsw_matroid::{
    max_common_independent, AnyMatroid, ColorCounter, Group, LaminarMatroid, Matroid, OverColors,
    PartitionMatroid, TransversalMatroid, UniformMatroid, INLINE_LEN,
};
use proptest::prelude::*;

/// A random laminar *chain*: groups are the color prefixes
/// `{0}, {0,1}, …` with the given caps — always a valid laminar family.
fn chain(caps: &[usize]) -> LaminarMatroid {
    let groups: Vec<Group> = caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| Group::new((0..=i as u32).collect::<Vec<_>>(), cap))
        .collect();
    LaminarMatroid::new(groups).expect("prefix chains are laminar")
}

/// Restricts a random color list to the matroid's color range.
fn clamp_colors(ground: Vec<u32>, num_colors: usize) -> Vec<u32> {
    ground
        .into_iter()
        .filter(|&c| (c as usize) < num_colors)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_matroid_satisfies_the_axioms(
        kind in 0u8..3,
        caps in proptest::collection::vec(1usize..3, 1..4),
        ground in proptest::collection::vec(0u32..4, 0..9),
    ) {
        let ncolors = caps.len();
        let m: AnyMatroid = match kind {
            0 => PartitionMatroid::new(caps).unwrap().into(),
            1 => chain(&caps).into(),
            _ => UniformMatroid::new(caps.iter().sum()).into(),
        };
        let ground = clamp_colors(ground, ncolors);
        prop_assert!(check_all(&m, &ground).is_ok(), "axioms failed for kind {kind}");
    }

    #[test]
    fn laminar_chains_satisfy_the_axioms(
        caps in proptest::collection::vec(1usize..4, 1..4),
        ground in proptest::collection::vec(0u32..4, 0..9),
    ) {
        let m = chain(&caps);
        let ground = clamp_colors(ground, caps.len());
        prop_assert!(check_all(&m, &ground).is_ok());
    }

    #[test]
    fn laminar_tree_satisfies_the_axioms(
        cap_left in 1usize..3,
        cap_right in 1usize..3,
        cap_root in 1usize..5,
        ground in proptest::collection::vec(0u32..4, 0..9),
    ) {
        // Two disjoint subtrees under a capped root: {0,1}, {2,3}, all.
        let m = LaminarMatroid::new(vec![
            Group::new(vec![0, 1], cap_left),
            Group::new(vec![2, 3], cap_right),
            Group::new(vec![0, 1, 2, 3], cap_root),
        ])
        .unwrap();
        prop_assert!(check_all(&m, &ground).is_ok());
    }

    #[test]
    fn transversal_satisfies_the_axioms(
        n in 1usize..6,
        num_slots in 1usize..4,
        edges in proptest::collection::vec((0usize..6, 0usize..4), 0..14),
    ) {
        let mut adj = vec![Vec::new(); n];
        for (e, s) in edges {
            if e < n && s < num_slots && !adj[e].contains(&s) {
                adj[e].push(s);
            }
        }
        let m = TransversalMatroid::new(adj, num_slots);
        let ground: Vec<usize> = (0..n).collect();
        prop_assert!(check_all(&m, &ground).is_ok());
    }
}

/// Partition matroid lifted to element indices through a color list
/// (the shape the intersection oracle consumes).
struct ByColor<'a> {
    colors: &'a [u32],
    inner: PartitionMatroid,
}

impl Matroid<usize> for ByColor<'_> {
    fn is_independent(&self, set: &[usize]) -> bool {
        let mut sorted = set.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        self.inner
            .colors_independent(set.iter().map(|&i| self.colors[i]))
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
}

/// Brute-force maximum common independent set size over all subsets.
fn brute_common<M1: Matroid<usize>, M2: Matroid<usize>>(n: usize, m1: &M1, m2: &M2) -> usize {
    let mut best = 0;
    for mask in 0u32..(1 << n) {
        let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        if set.len() > best && m1.is_independent(&set) && m2.is_independent(&set) {
            best = set.len();
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn intersection_oracle_on_transversal_vs_partition(
        n in 1usize..6,
        num_slots in 1usize..4,
        edges in proptest::collection::vec((0usize..6, 0usize..4), 0..14),
        colors in proptest::collection::vec(0u32..3, 6),
        caps in proptest::collection::vec(1usize..3, 3),
    ) {
        let mut adj = vec![Vec::new(); n];
        for (e, s) in edges {
            if e < n && s < num_slots && !adj[e].contains(&s) {
                adj[e].push(s);
            }
        }
        let trans = TransversalMatroid::new(adj, num_slots);
        let part = ByColor {
            colors: &colors[..n],
            inner: PartitionMatroid::new(caps).unwrap(),
        };
        let s = max_common_independent(n, &trans, &part);
        prop_assert!(trans.is_independent(&s), "oracle answer not independent in M1");
        prop_assert!(part.is_independent(&s), "oracle answer not independent in M2");
        prop_assert_eq!(s.len(), brute_common(n, &trans, &part));
    }

    #[test]
    fn intersection_oracle_on_laminar_pairs(
        n in 1usize..7,
        caps_a in proptest::collection::vec(1usize..3, 1..4),
        caps_b in proptest::collection::vec(1usize..3, 1..4),
        colors_a in proptest::collection::vec(0u32..3, 7),
        colors_b in proptest::collection::vec(0u32..3, 7),
    ) {
        // Laminar chains lifted through two different colorings of the
        // same elements: a heterogeneous pair the partition shortcut
        // does not cover.
        let lift = |caps: &[usize], colors: &[u32]| {
            let m = chain(caps);
            let colors: Vec<u32> = colors
                .iter()
                .map(|&c| c.min(caps.len() as u32 - 1))
                .collect();
            (m, colors)
        };
        let (ma, cols_a) = lift(&caps_a, &colors_a[..n]);
        let (mb, cols_b) = lift(&caps_b, &colors_b[..n]);
        struct Lifted<'a> {
            colors: &'a [u32],
            inner: &'a LaminarMatroid,
        }
        impl Matroid<usize> for Lifted<'_> {
            fn is_independent(&self, set: &[usize]) -> bool {
                let mut sorted = set.to_vec();
                sorted.sort_unstable();
                if sorted.windows(2).any(|w| w[0] == w[1]) {
                    return false;
                }
                self.inner
                    .colors_independent(set.iter().map(|&i| self.colors[i]))
            }
            fn rank(&self) -> usize {
                self.inner.rank()
            }
        }
        let m1 = Lifted { colors: &cols_a, inner: &ma };
        let m2 = Lifted { colors: &cols_b, inner: &mb };
        let s = max_common_independent(n, &m1, &m2);
        prop_assert!(m1.is_independent(&s) && m2.is_independent(&s));
        prop_assert_eq!(s.len(), brute_common(n, &m1, &m2));
    }
}

// The oracles keep their per-call buffers inline up to `INLINE_LEN`
// and on the heap above it. Each must answer exactly like the allocating
// code it replaced (kept below as references), on both sides of that
// bound: sizes run to twice it. Each case tests a random set (out-of-
// range colors and indices included), a set that meets every cap
// exactly, and that set plus one element of a random color, which
// breaks the first cap covering that color.

/// Sizes on both sides of the inline bound.
const SIZES: std::ops::Range<usize> = 1..2 * INLINE_LEN + 8;

/// The allocating partition oracle: one fresh counter per call.
fn partition_reference(m: &PartitionMatroid, colors: &[u32]) -> bool {
    let mut counter = ColorCounter::new(m.num_colors());
    colors.iter().all(|&c| counter.try_add(c, m))
}

/// The allocating laminar oracle: one fresh load vector per call.
fn laminar_reference(m: &LaminarMatroid, colors: &[u32]) -> bool {
    let mut loads = vec![0usize; m.groups().len()];
    for &c in colors {
        for (gi, g) in m.groups().iter().enumerate() {
            if g.colors.contains(&c) {
                loads[gi] += 1;
                if loads[gi] > g.cap {
                    return false;
                }
            }
        }
    }
    true
}

/// Color `c` repeated `mult[c]` times, for every `c`, then `extra`.
fn built(mult: &[usize], extra: Option<u32>) -> Vec<u32> {
    (0..mult.len() as u32)
        .flat_map(|c| std::iter::repeat_n(c, mult[c as usize]))
        .chain(extra)
        .collect()
}

/// `n` per-color steps in `1..4`, a color below `n`, and a random color
/// list that reaches two colors past `n`.
fn sized_case() -> impl Strategy<Value = (Vec<usize>, u32, Vec<u32>)> {
    SIZES.prop_flat_map(|n| {
        (
            proptest::collection::vec(1usize..4, n),
            0u32..n as u32,
            proptest::collection::vec(0u32..n as u32 + 2, 0..2 * INLINE_LEN + 8),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partition_oracle_matches_the_allocating_reference(case in sized_case()) {
        let (caps, extra, random) = case;
        let m = PartitionMatroid::new(caps.clone()).unwrap();
        for set in [random, built(&caps, None), built(&caps, Some(extra))] {
            prop_assert_eq!(m.is_independent(&set), partition_reference(&m, &set));
        }
    }

    #[test]
    fn laminar_oracle_matches_the_allocating_reference(case in sized_case()) {
        // A chain of prefixes `{0..=i}` whose caps grow by `steps[i]`:
        // the tight set fills every prefix to its cap, and the extra
        // color `c` first breaks the cap of prefix `c`.
        let (steps, extra, random) = case;
        let caps: Vec<usize> = steps
            .iter()
            .scan(0, |total, &s| {
                *total += s;
                Some(*total)
            })
            .collect();
        let m = chain(&caps);
        for set in [random, built(&steps, None), built(&steps, Some(extra))] {
            prop_assert_eq!(m.is_independent(&set), laminar_reference(&m, &set));
        }
    }

    #[test]
    fn over_colors_matches_collecting_the_colors(case in sized_case(), kind in 0u8..2) {
        // Index sets over `n` elements of three colors. The caps are the
        // color counts of `tight`, `over` appends one more element, and
        // the random set reaches two indices past the end.
        let (steps, extra, random) = case;
        let n = steps.len();
        let colors: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let tight: Vec<usize> = (0..n).filter(|&i| steps[i] > 1).collect();
        let mut counts = [0usize; 3];
        for &i in &tight {
            counts[colors[i] as usize] += 1;
        }
        let [a, b, c] = counts.map(|c| c.max(1));
        let inner: AnyMatroid = match kind {
            0 => PartitionMatroid::new(vec![a, b, c]).unwrap().into(),
            _ => chain(&[a, a + b, a + b + c]).into(),
        };
        let lifted = OverColors::new(&colors, &inner);
        let reference = |set: &[usize]| {
            set.iter().all(|&i| i < colors.len())
                && inner.is_independent(&set.iter().map(|&i| colors[i]).collect::<Vec<u32>>())
        };
        let mut over = tight.clone();
        over.push(extra as usize);
        let random: Vec<usize> = random.iter().map(|&i| i as usize).collect();
        for set in [random, tight, over] {
            prop_assert_eq!(lifted.is_independent(&set), reference(&set));
        }
    }
}
