//! The partition matroid encoding the fairness constraint.

use crate::{with_buffer, Matroid};
use std::fmt;

/// Error raised when constructing a [`PartitionMatroid`] from invalid
/// capacities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CapacityError {
    /// No colors were given — the matroid would be empty.
    NoColors,
    /// Some `k_i` is zero. The paper assumes *positive* integers
    /// `k_1..k_ℓ`; a zero budget would make that color's points
    /// unselectable and is almost always a configuration mistake, so we
    /// reject it loudly instead of silently dropping the class.
    ZeroCapacity {
        /// The offending color index.
        color: usize,
    },
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityError::NoColors => write!(f, "partition matroid needs at least one color"),
            CapacityError::ZeroCapacity { color } => {
                write!(f, "capacity k_{color} must be positive")
            }
        }
    }
}

impl std::error::Error for CapacityError {}

/// The partition matroid over colored elements: a set is independent iff
/// it contains at most `k_i` elements of each color `i`. Its rank is
/// `k = Σ k_i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMatroid {
    caps: Vec<usize>,
    rank: usize,
}

impl PartitionMatroid {
    /// Builds the matroid from per-color budgets `k_1..k_ℓ` (all positive).
    pub fn new(caps: Vec<usize>) -> Result<Self, CapacityError> {
        if caps.is_empty() {
            return Err(CapacityError::NoColors);
        }
        if let Some(color) = caps.iter().position(|&c| c == 0) {
            return Err(CapacityError::ZeroCapacity { color });
        }
        let rank = caps.iter().sum();
        Ok(PartitionMatroid { caps, rank })
    }

    /// Number of colors `ℓ`.
    pub fn num_colors(&self) -> usize {
        self.caps.len()
    }

    /// The per-color budgets.
    pub fn capacities(&self) -> &[usize] {
        &self.caps
    }

    /// The budget of a single color; colors outside `0..ℓ` have budget 0.
    pub fn capacity(&self, color: u32) -> usize {
        self.caps.get(color as usize).copied().unwrap_or(0)
    }

    /// Checks independence of a multiset of colors given by an iterator.
    /// This is the form every algorithm actually uses (they carry
    /// `Colored<P>` values and test the color multiset).
    /// Allocation-free up to [`INLINE_LEN`](crate::INLINE_LEN)
    /// colors.
    pub fn colors_independent(&self, colors: impl IntoIterator<Item = u32>) -> bool {
        with_buffer(self.num_colors(), |counts: &mut [usize]| {
            colors
                .into_iter()
                .all(|c| match counts.get_mut(c as usize) {
                    Some(n) => {
                        *n += 1;
                        *n <= self.caps[c as usize]
                    }
                    None => false,
                })
        })
    }
}

impl Matroid<u32> for PartitionMatroid {
    fn is_independent(&self, set: &[u32]) -> bool {
        self.colors_independent(set.iter().copied())
    }

    fn rank(&self) -> usize {
        self.rank
    }
}

/// Incremental per-color occupancy counter: the O(1)-per-element way to
/// maintain/test independence while scanning a stream of colors.
#[derive(Clone, Debug)]
pub struct ColorCounter {
    counts: Vec<usize>,
}

impl ColorCounter {
    /// A counter for `num_colors` colors, all counts zero.
    pub fn new(num_colors: usize) -> Self {
        ColorCounter {
            counts: vec![0; num_colors],
        }
    }

    /// Adds one element of `color` if the budget in `matroid` allows it;
    /// returns whether the element was accepted. Colors outside the
    /// matroid's range are always rejected.
    pub fn try_add(&mut self, color: u32, matroid: &PartitionMatroid) -> bool {
        let idx = color as usize;
        if idx >= self.counts.len() {
            return false;
        }
        if self.counts[idx] + 1 > matroid.capacity(color) {
            return false;
        }
        self.counts[idx] += 1;
        true
    }

    /// Removes one previously-added element of `color`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the count for `color` is already zero —
    /// that indicates a bookkeeping bug in the caller.
    pub fn remove(&mut self, color: u32) {
        let idx = color as usize;
        debug_assert!(self.counts[idx] > 0, "removing untracked color {color}");
        self.counts[idx] = self.counts[idx].saturating_sub(1);
    }

    /// The current count of `color`.
    pub fn count(&self, color: u32) -> usize {
        self.counts.get(color as usize).copied().unwrap_or(0)
    }

    /// Total number of tracked elements.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_capacities() {
        assert_eq!(PartitionMatroid::new(vec![]), Err(CapacityError::NoColors));
        assert_eq!(
            PartitionMatroid::new(vec![1, 0, 2]),
            Err(CapacityError::ZeroCapacity { color: 1 })
        );
        let m = PartitionMatroid::new(vec![2, 3]).unwrap();
        assert_eq!(m.rank(), 5);
        assert_eq!(m.num_colors(), 2);
        assert_eq!(m.capacity(0), 2);
        assert_eq!(m.capacity(7), 0);
    }

    #[test]
    fn independence_respects_budgets() {
        let m = PartitionMatroid::new(vec![1, 2]).unwrap();
        assert!(m.is_independent(&[]));
        assert!(m.is_independent(&[0]));
        assert!(m.is_independent(&[0, 1, 1]));
        assert!(!m.is_independent(&[0, 0]));
        assert!(!m.is_independent(&[1, 1, 1]));
        // Unknown color is never independent.
        assert!(!m.is_independent(&[2]));
    }

    #[test]
    fn counter_add_remove_roundtrip() {
        let m = PartitionMatroid::new(vec![1, 2]).unwrap();
        let mut c = ColorCounter::new(2);
        assert!(c.try_add(0, &m));
        assert!(!c.try_add(0, &m));
        c.remove(0);
        assert!(c.try_add(0, &m));
        assert!(c.try_add(1, &m));
        assert!(c.try_add(1, &m));
        assert!(!c.try_add(1, &m));
        assert_eq!(c.total(), 3);
        assert_eq!(c.count(1), 2);
    }

    #[test]
    fn counter_rejects_out_of_range() {
        let m = PartitionMatroid::new(vec![1]).unwrap();
        let mut c = ColorCounter::new(1);
        assert!(!c.try_add(9, &m));
    }

    #[test]
    fn error_messages_render() {
        assert!(format!("{}", CapacityError::NoColors).contains("at least one"));
        assert!(format!("{}", CapacityError::ZeroCapacity { color: 3 }).contains("k_3"));
    }
}
