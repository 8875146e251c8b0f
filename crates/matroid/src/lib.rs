//! Matroid substrate for fair center clustering.
//!
//! The fairness constraint of the paper — "at most `k_i` centers of color
//! `i`" — is the independence condition of a **partition matroid** of rank
//! `k = Σ k_i`. This crate provides the matroid abstraction, the partition
//! matroid used throughout the workspace, the uniform matroid (which
//! recovers unconstrained k-center as a special case) and the maximal-
//! independent-set machinery that the sliding-window coreset maintains per
//! c-attractor.
//!
//! The [`axioms`] module contains exhaustive checkers for the matroid
//! axioms (downward closure and augmentation) on small ground sets; they
//! are exercised by property tests to validate the implementations.

pub mod any;
pub mod axioms;
pub mod intersection;
pub mod laminar;
pub mod partition;
pub mod transversal;
pub mod uniform;

pub use any::AnyMatroid;
pub use intersection::max_common_independent;
pub use laminar::{Group, LaminarError, LaminarMatroid};
pub use partition::{CapacityError, ColorCounter, PartitionMatroid};
pub use transversal::TransversalMatroid;
pub use uniform::UniformMatroid;

/// Elements an independence oracle's per-call buffer holds inline, on
/// the stack: sets, colors, groups and balls up to this many cost no
/// allocation. The solvers test sets of at most `rank + 1` elements,
/// with `rank = Σ kᵢ` a few tens at most; a larger call takes one heap
/// buffer and answers the same.
pub const INLINE_LEN: usize = 32;

/// Runs `f` on a buffer of `len` default values: an inline array when
/// `len <= INLINE_LEN`, a heap vector above that bound.
pub fn with_buffer<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= INLINE_LEN {
        f(&mut [T::default(); INLINE_LEN][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// A matroid over elements of type `E`.
///
/// `I ⊆ 2^X` must satisfy: (a) downward closure — every subset of an
/// independent set is independent; (b) augmentation — if `|P| > |Q|` for
/// independent `P`, `Q`, some `x ∈ P \ Q` keeps `Q ∪ {x}` independent.
/// The empty set is always independent.
pub trait Matroid<E> {
    /// Whether `set` is independent.
    fn is_independent(&self, set: &[E]) -> bool;

    /// The rank of the matroid: the (common) cardinality of its maximal
    /// independent sets over the full ground set.
    fn rank(&self) -> usize;

    /// Greedily extends the empty set to a maximal independent subset of
    /// `ground`, scanning left to right. For matroids, greedy scanning
    /// yields a maximum-cardinality independent subset of the scanned
    /// ground set (the matroid exchange property makes greedy optimal).
    fn maximal_independent_subset<'a>(&self, ground: &'a [E]) -> Vec<&'a E>
    where
        E: Clone,
    {
        let mut chosen: Vec<E> = Vec::new();
        let mut refs: Vec<&'a E> = Vec::new();
        for e in ground {
            chosen.push(e.clone());
            if self.is_independent(&chosen) {
                refs.push(e);
            } else {
                chosen.pop();
            }
        }
        refs
    }
}

/// Adapter lifting a matroid over *colors* to a matroid over *element
/// indices*, given each element's color. This is how the partition /
/// laminar constraints (stated on categories) are applied to concrete
/// point sets by the generic matroid-center solver and the matroid
/// sliding window.
#[derive(Clone, Copy, Debug)]
pub struct OverColors<'a, Inner> {
    colors: &'a [u32],
    inner: &'a Inner,
}

impl<'a, Inner: Matroid<u32>> OverColors<'a, Inner> {
    /// Builds the adapter; `colors[i]` is element `i`'s color.
    pub fn new(colors: &'a [u32], inner: &'a Inner) -> Self {
        OverColors { colors, inner }
    }
}

impl<Inner: Matroid<u32>> Matroid<usize> for OverColors<'_, Inner> {
    fn is_independent(&self, set: &[usize]) -> bool {
        if set.iter().any(|&i| i >= self.colors.len()) {
            return false;
        }
        with_buffer(set.len(), |cols: &mut [u32]| {
            for (c, &i) in cols.iter_mut().zip(set) {
                *c = self.colors[i];
            }
            self.inner.is_independent(cols)
        })
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_maximal_subset_partition() {
        // Colors with capacities [1, 2]: greedy over colors
        // [0,0,1,1,1] keeps one 0 and two 1s.
        let m = PartitionMatroid::new(vec![1, 2]).unwrap();
        let ground = vec![0u32, 0, 1, 1, 1];
        let max = m.maximal_independent_subset(&ground);
        assert_eq!(max.len(), 3);
        assert_eq!(max.iter().filter(|&&&c| c == 0).count(), 1);
        assert_eq!(max.iter().filter(|&&&c| c == 1).count(), 2);
    }

    #[test]
    fn over_colors_adapter() {
        let m = PartitionMatroid::new(vec![1, 1]).unwrap();
        let colors = [0u32, 0, 1];
        let a = OverColors::new(&colors, &m);
        assert!(a.is_independent(&[0, 2]));
        assert!(!a.is_independent(&[0, 1]));
        assert!(!a.is_independent(&[9]));
        assert_eq!(Matroid::<usize>::rank(&a), 2);
    }

    #[test]
    fn greedy_maximal_subset_uniform() {
        let m = UniformMatroid::new(2);
        let ground = vec![10u32, 20, 30];
        let max = m.maximal_independent_subset(&ground);
        assert_eq!(max, vec![&10, &20]);
    }
}
