//! Laminar matroids: hierarchical fairness budgets.
//!
//! The partition matroid caps each color independently. Real fairness
//! policies are often *nested*: "at most 2 centers per ethnicity, at most
//! 3 from all minority ethnicities combined, at most 5 under-30s
//! overall". A family of color groups is **laminar** when any two groups
//! are disjoint or nested; capping each group yields a laminar matroid —
//! still a matroid, so every guarantee in this workspace (greedy
//! maximality, matroid intersection, the generic matroid-center solver)
//! carries over unchanged.

use crate::{with_buffer, Matroid};
use std::fmt;

/// A capped group of colors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The colors belonging to this group.
    pub colors: Vec<u32>,
    /// Maximum number of selected elements whose color is in the group.
    pub cap: usize,
}

impl Group {
    /// Convenience constructor.
    pub fn new(colors: impl Into<Vec<u32>>, cap: usize) -> Self {
        Group {
            colors: colors.into(),
            cap,
        }
    }

    fn contains(&self, color: u32) -> bool {
        self.colors.contains(&color)
    }
}

/// Errors raised when validating a laminar family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaminarError {
    /// Two groups overlap without nesting.
    NotLaminar {
        /// Indices of the offending groups.
        a: usize,
        /// Second group index.
        b: usize,
    },
    /// A group has no colors.
    EmptyGroup(usize),
    /// No groups were given.
    NoGroups,
    /// A color below the largest grouped color belongs to no group, so
    /// it would be selectable without bound.
    UncoveredColor(u32),
}

impl fmt::Display for LaminarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaminarError::NotLaminar { a, b } => {
                write!(f, "groups {a} and {b} overlap without nesting")
            }
            LaminarError::EmptyGroup(i) => write!(f, "group {i} has no colors"),
            LaminarError::NoGroups => write!(f, "at least one group is required"),
            LaminarError::UncoveredColor(c) => {
                write!(
                    f,
                    "color {c} is below the largest grouped color but in no group"
                )
            }
        }
    }
}

impl std::error::Error for LaminarError {}

/// The laminar matroid over colored elements: a set is independent iff
/// every group's cap is respected by the multiset of selected colors.
///
/// Colors above the largest grouped color are unconstrained (wrap
/// everything in a top group to cap the total); every color below it
/// must belong to some group.
#[derive(Clone, Debug)]
pub struct LaminarMatroid {
    groups: Vec<Group>,
    rank: usize,
    num_colors: usize,
}

impl LaminarMatroid {
    /// Validates laminarity (any two groups disjoint or nested) and
    /// builds the matroid.
    pub fn new(groups: Vec<Group>) -> Result<Self, LaminarError> {
        if groups.is_empty() {
            return Err(LaminarError::NoGroups);
        }
        for (i, g) in groups.iter().enumerate() {
            if g.colors.is_empty() {
                return Err(LaminarError::EmptyGroup(i));
            }
        }
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let (a, b) = (&groups[i], &groups[j]);
                let common = a.colors.iter().filter(|c| b.contains(**c)).count();
                let nested = common == a.colors.len() || common == b.colors.len();
                if common > 0 && !nested {
                    return Err(LaminarError::NotLaminar { a: i, b: j });
                }
            }
        }
        // Every color up to the largest grouped one must be capped by
        // some group, or the rank below would be unbounded.
        let covered: std::collections::BTreeSet<u32> = groups
            .iter()
            .flat_map(|g| g.colors.iter().copied())
            .collect();
        let max_color = covered.last().copied().unwrap_or(0);
        if covered.len() as u64 != max_color as u64 + 1 {
            let missing = (0..=max_color).find(|c| !covered.contains(c)).unwrap_or(0);
            return Err(LaminarError::UncoveredColor(missing));
        }
        // Rank = maximum selectable elements, computed greedily color by
        // color (sound because this laminar structure is a matroid:
        // greedy achieves the rank). Loads only grow, so each color takes
        // as many copies as its tightest group still admits, once.
        let mut loads = vec![0usize; groups.len()];
        let mut rank = 0usize;
        for c in 0..=max_color {
            let containing = || groups.iter().enumerate().filter(|(_, g)| g.contains(c));
            let take = containing()
                .map(|(gi, g)| g.cap - loads[gi])
                .min()
                .unwrap_or(0);
            for (gi, _) in containing() {
                loads[gi] += take;
            }
            rank = rank.saturating_add(take);
        }
        Ok(LaminarMatroid {
            groups,
            rank,
            num_colors: max_color as usize + 1,
        })
    }

    /// The constituent groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The number of colors the groups name: `0..num_colors()`, each in
    /// some group.
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// Independence of a color multiset. Allocation-free up to
    /// [`INLINE_LEN`](crate::INLINE_LEN) groups.
    pub fn colors_independent(&self, colors: impl IntoIterator<Item = u32>) -> bool {
        with_buffer(self.groups.len(), |loads: &mut [usize]| {
            colors.into_iter().all(|c| {
                self.groups.iter().zip(loads.iter_mut()).all(|(g, load)| {
                    !g.contains(c) || {
                        *load += 1;
                        *load <= g.cap
                    }
                })
            })
        })
    }
}

impl Matroid<u32> for LaminarMatroid {
    fn is_independent(&self, set: &[u32]) -> bool {
        self.colors_independent(set.iter().copied())
    }

    fn rank(&self) -> usize {
        self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::check_all;
    use proptest::prelude::*;

    fn nested() -> LaminarMatroid {
        // Colors: 0,1 = minority ethnicities, 2 = majority.
        // ≤1 of color 0, ≤2 of color 1, ≤2 minorities total, ≤4 overall.
        LaminarMatroid::new(vec![
            Group::new(vec![0], 1),
            Group::new(vec![1], 2),
            Group::new(vec![0, 1], 2),
            Group::new(vec![0, 1, 2], 4),
        ])
        .unwrap()
    }

    #[test]
    fn validation_rejects_crossing_groups() {
        let err = LaminarMatroid::new(vec![Group::new(vec![0, 1], 1), Group::new(vec![1, 2], 1)])
            .unwrap_err();
        assert_eq!(err, LaminarError::NotLaminar { a: 0, b: 1 });
        assert!(LaminarMatroid::new(vec![]).is_err());
        assert!(matches!(
            LaminarMatroid::new(vec![Group::new(vec![], 1)]),
            Err(LaminarError::EmptyGroup(0))
        ));
        // A gap below the largest grouped color has no cap at all.
        assert_eq!(
            LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![2], 1)]).unwrap_err(),
            LaminarError::UncoveredColor(1)
        );
    }

    #[test]
    fn nested_caps_enforced() {
        let m = nested();
        assert_eq!(m.num_colors(), 3);
        assert!(m.is_independent(&[0, 1, 2, 2]));
        // Two minorities of color 1 hit the minority cap with color 0.
        assert!(m.is_independent(&[1, 1, 2, 2]));
        assert!(!m.is_independent(&[0, 1, 1])); // minorities > 2
        assert!(!m.is_independent(&[0, 0])); // color 0 > 1
        assert!(!m.is_independent(&[2, 2, 2, 2, 2])); // total > 4
    }

    #[test]
    fn rank_accounts_for_nesting() {
        let m = nested();
        // Best selection: 2 minorities + 2 majority = 4 (total cap).
        assert_eq!(Matroid::<u32>::rank(&m), 4);
        // Without the total cap the rank would be 2 + unlimited color 2 —
        // check a family whose binding cap is the middle group.
        let m2 =
            LaminarMatroid::new(vec![Group::new(vec![0], 5), Group::new(vec![0, 1], 3)]).unwrap();
        // Color 1 unconstrained individually but capped at 3 with 0...
        // and color 1 has no individual group: rank counts colors 0..=1:
        // any 3 of {0,1} fill group 2; rank = 3.
        assert_eq!(Matroid::<u32>::rank(&m2), 3);
    }

    #[test]
    fn axioms_hold_on_small_ground_sets() {
        let m = nested();
        let ground: Vec<u32> = vec![0, 0, 1, 1, 2, 2, 2];
        check_all(&m, &ground).unwrap();
    }

    #[test]
    fn partition_is_a_special_case() {
        // Disjoint singleton groups == partition matroid.
        let lam =
            LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![1], 2)]).unwrap();
        let part = crate::PartitionMatroid::new(vec![1, 2]).unwrap();
        for set in [
            vec![],
            vec![0],
            vec![0, 0],
            vec![0, 1, 1],
            vec![1, 1, 1],
            vec![0, 1],
        ] {
            assert_eq!(
                lam.is_independent(&set),
                part.is_independent(&set),
                "disagree on {set:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_nested_families_are_matroids(
            cap0 in 1usize..3,
            cap1 in 1usize..3,
            cap_top in 1usize..4,
            ground in proptest::collection::vec(0u32..3, 0..8),
        ) {
            let m = LaminarMatroid::new(vec![
                Group::new(vec![0], cap0),
                Group::new(vec![1], cap1),
                Group::new(vec![0, 1, 2], cap_top),
            ]).unwrap();
            prop_assert!(check_all(&m, &ground).is_ok());
        }
    }
}
