//! A concrete union of the color matroids shipped by this crate.
//!
//! The sliding-window engine (`fairsw-core`'s `WindowEngine`) needs to
//! hold "some matroid over colors" without a type parameter, so that a
//! heterogeneous fleet of engines (`Vec<WindowEngine<M>>`) can mix
//! partition-, laminar- and uniform-constrained variants. `AnyMatroid` is
//! that erased type: an enum over the crate's `Matroid<u32>`
//! implementations, dispatching by match (no boxing, stays `Clone`).

use crate::laminar::LaminarMatroid;
use crate::partition::PartitionMatroid;
use crate::uniform::UniformMatroid;
use crate::Matroid;

/// One of the crate's matroids over colors, selected at runtime.
#[derive(Clone, Debug)]
pub enum AnyMatroid {
    /// Per-color capacities (the paper's fairness constraint).
    Partition(PartitionMatroid),
    /// Nested group capacities (hierarchical fairness).
    Laminar(LaminarMatroid),
    /// A bare cardinality bound (unconstrained k-center).
    Uniform(UniformMatroid),
}

impl AnyMatroid {
    /// The colors `0..n` the constraint distinguishes: one per capacity
    /// of a partition, up to the largest grouped color of a laminar
    /// family. A uniform matroid caps cardinality only, so it accepts
    /// every color (`usize::MAX`).
    pub fn num_colors(&self) -> usize {
        match self {
            AnyMatroid::Partition(m) => m.num_colors(),
            AnyMatroid::Laminar(m) => m.num_colors(),
            AnyMatroid::Uniform(_) => usize::MAX,
        }
    }
}

impl Matroid<u32> for AnyMatroid {
    fn is_independent(&self, set: &[u32]) -> bool {
        match self {
            AnyMatroid::Partition(m) => m.is_independent(set),
            AnyMatroid::Laminar(m) => m.is_independent(set),
            AnyMatroid::Uniform(m) => m.is_independent(set),
        }
    }

    fn rank(&self) -> usize {
        match self {
            AnyMatroid::Partition(m) => m.rank(),
            AnyMatroid::Laminar(m) => m.rank(),
            AnyMatroid::Uniform(m) => Matroid::<u32>::rank(m),
        }
    }
}

impl From<PartitionMatroid> for AnyMatroid {
    fn from(m: PartitionMatroid) -> Self {
        AnyMatroid::Partition(m)
    }
}

impl From<LaminarMatroid> for AnyMatroid {
    fn from(m: LaminarMatroid) -> Self {
        AnyMatroid::Laminar(m)
    }
}

impl From<UniformMatroid> for AnyMatroid {
    fn from(m: UniformMatroid) -> Self {
        AnyMatroid::Uniform(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laminar::Group;

    #[test]
    fn dispatches_to_inner_matroid() {
        let part: AnyMatroid = PartitionMatroid::new(vec![1, 2]).unwrap().into();
        assert!(part.is_independent(&[0, 1, 1]));
        assert!(!part.is_independent(&[0, 0]));
        assert_eq!(part.rank(), 3);

        let lam: AnyMatroid =
            LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![0, 1], 2)])
                .unwrap()
                .into();
        assert!(lam.is_independent(&[0, 1]));
        assert!(!lam.is_independent(&[0, 0]));
        assert_eq!(lam.rank(), 2);

        assert_eq!((part.num_colors(), lam.num_colors()), (2, 2));

        let uni: AnyMatroid = UniformMatroid::new(2).into();
        assert_eq!(uni.num_colors(), usize::MAX);
        assert!(uni.is_independent(&[5, 9]));
        assert!(!uni.is_independent(&[5, 9, 2]));
        assert_eq!(uni.rank(), 2);
    }
}
