//! Sliding-window extrema over lattice-quantized values.
//!
//! A classical monotone deque computes windowed maxima in O(1) amortized
//! time but can hold Θ(n) entries. For sliding-window *scale estimation*
//! we only need the extremum up to the lattice factor `(1+β)` anyway, so
//! we quantize values to lattice levels before insertion: the deque then
//! holds at most one entry per distinct level, bounding memory by
//! `O(log_{1+β} Δ)` — the same budget as everything else in the paper's
//! data structures.

use crate::lattice::Lattice;
use std::collections::VecDeque;

/// Sliding-window maximum over quantized positive values.
///
/// `max()` returns a value `m` with `true_window_max / (1+β) < m ≤
/// true_window_max` (the level-floor of the true maximum).
#[derive(Clone, Debug)]
pub struct WindowedMaxLattice {
    lattice: Lattice,
    window: u64,
    /// Entries `(arrival_time, level)` with strictly decreasing levels
    /// from front to back... front holds the current maximum.
    deque: VecDeque<(u64, i32)>,
}

impl WindowedMaxLattice {
    /// Creates a windowed maximum of length `window` (in arrivals) over
    /// lattice `lattice`.
    pub fn new(lattice: Lattice, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedMaxLattice {
            lattice,
            window,
            deque: VecDeque::new(),
        }
    }

    /// Rebuilds a windowed maximum from its [`entries`](Self::entries)
    /// (the checkpoint path), refusing any sequence [`push`](Self::push)
    /// could not have produced by time `now`.
    pub fn from_entries(
        lattice: Lattice,
        window: u64,
        entries: Vec<(u64, i32)>,
        now: u64,
    ) -> Result<Self, String> {
        check_entries(&lattice, &entries, now, |front, back| front > back)?;
        Ok(WindowedMaxLattice {
            lattice,
            window,
            deque: entries.into(),
        })
    }

    /// The tracked `(arrival time, level)` entries, current maximum
    /// first — all the state besides the construction parameters.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u64, i32)> + '_ {
        self.deque.iter().copied()
    }

    /// Observes `value` at time `t` (times must be non-decreasing) and
    /// expires entries that left the window. Zero/negative values are
    /// ignored — they carry no scale information.
    pub fn push(&mut self, t: u64, value: f64) {
        self.expire(t);
        let positive = value.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive || !value.is_finite() {
            return;
        }
        let level = self.lattice.level_below(value);
        // Pop entries with level <= new level: they can never be the max
        // again (older AND not larger).
        while let Some(&(_, back_level)) = self.deque.back() {
            if back_level <= level {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back((t, level));
    }

    /// Drops entries that fell out of the window as of time `now`.
    pub fn expire(&mut self, now: u64) {
        while let Some(&(t, _)) = self.deque.front() {
            if t + self.window <= now {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// The quantized window maximum (the lattice value of the max level),
    /// or `None` if no positive value is in the window.
    pub fn max(&self) -> Option<f64> {
        self.deque.front().map(|&(_, lvl)| self.lattice.value(lvl))
    }

    /// Number of deque entries (bounded by the number of distinct lattice
    /// levels in the window).
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// Whether no positive value is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }
}

/// Sliding-window minimum over quantized positive values; mirror image of
/// [`WindowedMaxLattice`]. `min()` returns the level-floor of the true
/// window minimum (so `min() ≤ true_min < min()·(1+β)`).
#[derive(Clone, Debug)]
pub struct WindowedMinLattice {
    lattice: Lattice,
    window: u64,
    /// Entries `(arrival_time, level)` with strictly increasing levels.
    deque: VecDeque<(u64, i32)>,
}

impl WindowedMinLattice {
    /// Creates a windowed minimum of length `window` over `lattice`.
    pub fn new(lattice: Lattice, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedMinLattice {
            lattice,
            window,
            deque: VecDeque::new(),
        }
    }

    /// Rebuilds a windowed minimum from its [`entries`](Self::entries)
    /// (the checkpoint path), refusing any sequence [`push`](Self::push)
    /// could not have produced by time `now`.
    pub fn from_entries(
        lattice: Lattice,
        window: u64,
        entries: Vec<(u64, i32)>,
        now: u64,
    ) -> Result<Self, String> {
        check_entries(&lattice, &entries, now, |front, back| front < back)?;
        Ok(WindowedMinLattice {
            lattice,
            window,
            deque: entries.into(),
        })
    }

    /// The tracked `(arrival time, level)` entries, current minimum
    /// first — all the state besides the construction parameters.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u64, i32)> + '_ {
        self.deque.iter().copied()
    }

    /// Observes `value` at time `t`; ignores non-positive values.
    pub fn push(&mut self, t: u64, value: f64) {
        self.expire(t);
        let positive = value.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive || !value.is_finite() {
            return;
        }
        let level = self.lattice.level_below(value);
        while let Some(&(_, back_level)) = self.deque.back() {
            if back_level >= level {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back((t, level));
    }

    /// Drops entries that fell out of the window as of time `now`.
    pub fn expire(&mut self, now: u64) {
        while let Some(&(t, _)) = self.deque.front() {
            if t + self.window <= now {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// The quantized window minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.deque.front().map(|&(_, lvl)| self.lattice.value(lvl))
    }

    /// Number of deque entries.
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// Whether no positive value is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }
}

/// The deque invariants [`push`](WindowedMaxLattice::push) maintains:
/// arrival times non-decreasing and at most `now`, levels strictly
/// monotone (`ordered(front, back)`), and every level's lattice value a
/// positive finite scale that later level arithmetic can round-trip.
fn check_entries(
    lattice: &Lattice,
    entries: &[(u64, i32)],
    now: u64,
    ordered: impl Fn(i32, i32) -> bool,
) -> Result<(), String> {
    for pair in entries.windows(2) {
        let ((t0, l0), (t1, l1)) = (pair[0], pair[1]);
        if t0 > t1 || !ordered(l0, l1) {
            return Err(format!(
                "windowed entries ({t0}, {l0}), ({t1}, {l1}) out of order"
            ));
        }
    }
    for &(t, level) in entries {
        let v = lattice.value(level);
        if t > now || level.unsigned_abs() > i32::MAX as u32 / 2 || !(v.is_finite() && v > 0.0) {
            return Err(format!(
                "windowed entry ({t}, {level}) out of range at t={now}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lat() -> Lattice {
        Lattice::new(1.0) // base 2
    }

    #[test]
    fn max_tracks_window() {
        let mut w = WindowedMaxLattice::new(lat(), 3);
        w.push(1, 8.0);
        w.push(2, 2.0);
        w.push(3, 2.0);
        assert_eq!(w.max(), Some(8.0));
        // t=4: entry from t=1 expires.
        w.push(4, 2.0);
        assert_eq!(w.max(), Some(2.0));
    }

    #[test]
    fn max_quantizes_down() {
        let mut w = WindowedMaxLattice::new(lat(), 10);
        w.push(1, 9.0); // level 3 (8 <= 9 < 16)
        assert_eq!(w.max(), Some(8.0));
    }

    #[test]
    fn zeros_are_ignored() {
        let mut w = WindowedMaxLattice::new(lat(), 10);
        w.push(1, 0.0);
        assert_eq!(w.max(), None);
        assert!(w.is_empty());
        w.push(2, 4.0);
        assert_eq!(w.max(), Some(4.0));
    }

    #[test]
    fn min_tracks_window() {
        let mut w = WindowedMinLattice::new(lat(), 3);
        w.push(1, 1.0);
        w.push(2, 16.0);
        w.push(3, 16.0);
        assert_eq!(w.min(), Some(1.0));
        w.push(4, 16.0);
        assert_eq!(w.min(), Some(16.0));
    }

    proptest! {
        #[test]
        fn max_is_within_lattice_factor_of_true(
            values in proptest::collection::vec(0.01..1e6f64, 1..60),
            window in 1u64..20,
        ) {
            let l = Lattice::new(0.5);
            let mut w = WindowedMaxLattice::new(l, window);
            for (i, &v) in values.iter().enumerate() {
                let t = i as u64 + 1;
                w.push(t, v);
                let start = t.saturating_sub(window - 1).max(1);
                let true_max = values[(start as usize - 1)..=i]
                    .iter()
                    .cloned()
                    .fold(0.0f64, f64::max);
                let got = w.max().expect("non-empty window");
                prop_assert!(got <= true_max * (1.0 + 1e-9));
                prop_assert!(got > true_max / 1.5 - 1e-12,
                    "got {got} true {true_max}");
                // Memory bound: one entry per distinct level in range.
                prop_assert!(w.len() <= 60);
            }
        }

        #[test]
        fn min_is_within_lattice_factor_of_true(
            values in proptest::collection::vec(0.01..1e6f64, 1..60),
            window in 1u64..20,
        ) {
            let l = Lattice::new(0.5);
            let mut w = WindowedMinLattice::new(l, window);
            for (i, &v) in values.iter().enumerate() {
                let t = i as u64 + 1;
                w.push(t, v);
                let start = t.saturating_sub(window - 1).max(1);
                let true_min = values[(start as usize - 1)..=i]
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                let got = w.min().expect("non-empty window");
                prop_assert!(got <= true_min * (1.0 + 1e-9));
                prop_assert!(got > true_min / 1.5 - 1e-12);
            }
        }
    }
}
