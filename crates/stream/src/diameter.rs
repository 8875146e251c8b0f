//! Sliding-window diameter estimation with rotating anchors.
//!
//! The aspect-ratio-oblivious variant of the algorithm (`OursOblivious`
//! in the paper's experiments) must bound the guess range using estimates
//! of the *current window's* distance scales instead of stream-global
//! `dmin`/`dmax`. The paper adopts the estimator machinery of Pellizzoni
//! et al. \[8\]; we implement a rotating-anchor scheme with the same
//! interface and constant-factor guarantees:
//!
//! * **Upper bound.** Fix an anchor point `a` that arrived no later than
//!   the start of the current window and track
//!   `A = max_{p ∈ W} d(p, a)` (a windowed maximum). By the triangle
//!   inequality the window diameter is at most `2A`. To keep the anchor
//!   "old enough" while following stream drift, anchors rotate every `n`
//!   steps and two estimators are kept alive: the *previous* epoch's
//!   anchor has, by construction, observed every point of the current
//!   window.
//! * **Lower bound.** The windowed maximum of consecutive-arrival
//!   distances `d(p_t, p_{t-1})` — both endpoints active — is a valid
//!   diameter lower bound (any active pair's distance is).
//!
//! Windowed maxima are lattice-quantized ([`crate::windowed`]), so the
//! whole estimator stores `O(log Δ)` scalars plus three anchor points.

use crate::lattice::Lattice;
use crate::windowed::WindowedMaxLattice;
use fairsw_metric::{CoresetView, Metric};

/// One anchored estimator: the anchor point plus the windowed maximum of
/// distances from arrivals to the anchor.
#[derive(Clone, Debug)]
struct Anchored<P> {
    anchor: P,
    /// Time the anchor was installed; arrivals since then are covered.
    since: u64,
    dist_max: WindowedMaxLattice,
}

/// The checkpointable state of one anchored estimator.
#[derive(Clone, Debug, PartialEq)]
pub struct AnchorState<P> {
    /// The anchor point.
    pub anchor: P,
    /// Time the anchor was installed.
    pub since: u64,
    /// Entries of the windowed maximum of arrival-to-anchor distances
    /// (see [`WindowedMaxLattice::entries`]).
    pub maxima: Vec<(u64, i32)>,
}

/// The checkpointable state of a [`DiameterEstimator`]: everything but
/// the metric, lattice and window it was constructed with.
#[derive(Clone, Debug, PartialEq)]
pub struct DiameterState<P> {
    /// The previous-epoch anchor (covers the whole window).
    pub prev: Option<AnchorState<P>>,
    /// The current-epoch anchor.
    pub cur: Option<AnchorState<P>>,
    /// Entries of the windowed maximum of consecutive-arrival distances.
    pub consecutive: Vec<(u64, i32)>,
    /// The latest arrival.
    pub last_point: Option<P>,
    /// Time of the latest arrival (0 before the first).
    pub now: u64,
}

/// Sliding-window diameter estimator. Feed every arrival via
/// [`DiameterEstimator::push`]; read [`upper`](DiameterEstimator::upper) /
/// [`lower`](DiameterEstimator::lower) at any time.
#[derive(Clone, Debug)]
pub struct DiameterEstimator<M: Metric> {
    metric: M,
    lattice: Lattice,
    window: u64,
    /// Estimator anchored in the previous epoch: covers the whole window.
    prev: Option<Anchored<M::Point>>,
    /// Estimator anchored in the current epoch (still warming up).
    cur: Option<Anchored<M::Point>>,
    /// Windowed max of consecutive-arrival distances (lower bound).
    consecutive_max: WindowedMaxLattice,
    last_point: Option<M::Point>,
    now: u64,
    /// The live anchors (`prev` then `cur`), staged once per rotation so
    /// every arrival's anchor distances run through one batched
    /// [`Metric::dist_one_to_many`] kernel call instead of per-anchor
    /// pointer-chasing `dist` calls. Pure scratch — rebuilt on rotation,
    /// never semantic state.
    anchor_view: CoresetView<M::Point>,
    /// Kernel output for the (at most two) anchor distances.
    anchor_dist: Vec<f64>,
}

impl<M: Metric> DiameterEstimator<M> {
    /// Creates an estimator for windows of `window` arrivals, quantizing
    /// on `lattice`.
    pub fn new(metric: M, lattice: Lattice, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        DiameterEstimator {
            metric,
            lattice,
            window,
            prev: None,
            cur: None,
            // Consecutive pairs stay jointly active for window-1 steps;
            // shorten the deque window accordingly (min length 1).
            consecutive_max: WindowedMaxLattice::new(lattice, window.max(2) - 1),
            last_point: None,
            now: 0,
            anchor_view: CoresetView::new(),
            anchor_dist: Vec::new(),
        }
    }

    /// The estimator's checkpointable state (see [`from_state`](Self::from_state)).
    pub fn state(&self) -> DiameterState<M::Point> {
        let anchor = |a: &Anchored<M::Point>| AnchorState {
            anchor: a.anchor.clone(),
            since: a.since,
            maxima: a.dist_max.entries().collect(),
        };
        DiameterState {
            prev: self.prev.as_ref().map(anchor),
            cur: self.cur.as_ref().map(anchor),
            consecutive: self.consecutive_max.entries().collect(),
            last_point: self.last_point.clone(),
            now: self.now,
        }
    }

    /// Rebuilds an estimator from [`state`](Self::state) output with the
    /// construction parameters of [`new`](Self::new). Refuses states no
    /// sequence of pushes produces (entries or anchors from the future,
    /// unordered windowed maxima, unbounded estimates), so a restored
    /// estimator keeps streaming like the original.
    pub fn from_state(
        metric: M,
        lattice: Lattice,
        window: u64,
        state: DiameterState<M::Point>,
    ) -> Result<Self, String> {
        let now = state.now;
        let anchored = |a: Option<AnchorState<M::Point>>| -> Result<_, String> {
            a.map(|a| {
                if a.since > now {
                    return Err(format!("anchor installed at {} after t={now}", a.since));
                }
                Ok(Anchored {
                    anchor: a.anchor,
                    since: a.since,
                    dist_max: WindowedMaxLattice::from_entries(lattice, window, a.maxima, now)?,
                })
            })
            .transpose()
        };
        let mut est = DiameterEstimator::new(metric, lattice, window);
        est.prev = anchored(state.prev)?;
        est.cur = anchored(state.cur)?;
        est.consecutive_max =
            WindowedMaxLattice::from_entries(lattice, window.max(2) - 1, state.consecutive, now)?;
        est.last_point = state.last_point;
        est.now = now;
        if est.upper().is_some_and(|u| !u.is_finite()) {
            return Err("diameter estimate overflows".into());
        }
        est.restage_anchors();
        Ok(est)
    }

    /// Restages the live anchors (`prev` then `cur`, matching the push
    /// order below) into the columnar view. Called on every rotation.
    fn restage_anchors(&mut self) {
        let anchors = [self.prev.as_ref(), self.cur.as_ref()];
        self.anchor_view.gather(
            &self.metric,
            anchors.into_iter().flatten().map(|a| &a.anchor),
        );
        self.anchor_dist.clear();
        self.anchor_dist.resize(self.anchor_view.len(), 0.0);
    }

    /// Observes the arrival at time `t` (strictly increasing).
    pub fn push(&mut self, t: u64, p: &M::Point) {
        debug_assert!(t > self.now, "times must be strictly increasing");
        self.now = t;

        // Lower bound stream: distance to previous arrival.
        if let Some(last) = &self.last_point {
            let d = self.metric.dist(last, p);
            self.consecutive_max.push(t, d);
        } else {
            self.consecutive_max.expire(t);
        }
        self.last_point = Some(p.clone());

        // Epoch rotation: a fresh anchor every `window` arrivals. The
        // outgoing `cur` (anchored within the last epoch) becomes `prev`:
        // it has seen every arrival of any window that starts after now.
        let need_rotate = match &self.cur {
            None => true,
            Some(a) => t >= a.since + self.window,
        };
        if need_rotate {
            let fresh = Anchored {
                anchor: p.clone(),
                since: t,
                dist_max: WindowedMaxLattice::new(self.lattice, self.window),
            };
            self.prev = self.cur.take().or(Some(fresh.clone_for_prev()));
            self.cur = Some(fresh);
            self.restage_anchors();
        }

        // One batched kernel call covers both anchors (bit-identical to
        // per-anchor scalar `dist`; anchors are staged in `prev`, `cur`
        // order, matching the windowed-max push order).
        self.metric
            .dist_one_to_many(p, &self.anchor_view, &mut self.anchor_dist);
        for (a, &d) in [self.prev.as_mut(), self.cur.as_mut()]
            .into_iter()
            .flatten()
            .zip(&self.anchor_dist)
        {
            a.dist_max.push(t, d);
        }
    }

    /// A window-diameter upper bound: `2 · (1+β) · max_active d(p, a)`
    /// for the previous-epoch anchor `a` (the `(1+β)` undoes the
    /// quantization floor). Returns `None` before the first arrival.
    pub fn upper(&self) -> Option<f64> {
        let a = self.prev.as_ref().or(self.cur.as_ref())?;
        match a.dist_max.max() {
            Some(m) => Some(2.0 * self.lattice.base() * m),
            // All window points coincide with the anchor.
            None => Some(0.0),
        }
    }

    /// A window-diameter lower bound from consecutive-arrival distances
    /// (0 when fewer than two points have been seen or all consecutive
    /// pairs coincide).
    pub fn lower(&self) -> f64 {
        self.consecutive_max.max().unwrap_or(0.0)
    }

    /// Number of stored points (anchors + last point) — the estimator's
    /// point-memory cost for the accounting experiments.
    pub fn stored_points(&self) -> usize {
        self.prev.is_some() as usize
            + self.cur.is_some() as usize
            + self.last_point.is_some() as usize
    }

    /// Heap bytes of the stored points — the estimator's contribution to
    /// the byte-level memory accounting (these points are owned here,
    /// outside any interned arena).
    pub fn payload_bytes(&self) -> usize {
        use fairsw_metric::PointFootprint;
        self.prev
            .iter()
            .chain(self.cur.iter())
            .map(|a| a.anchor.payload_bytes())
            .sum::<usize>()
            + self
                .last_point
                .as_ref()
                .map(|p| p.payload_bytes())
                .unwrap_or(0)
    }
}

impl<P: Clone> Anchored<P> {
    fn clone_for_prev(&self) -> Self {
        Anchored {
            anchor: self.anchor.clone(),
            since: self.since,
            dist_max: self.dist_max.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{EuclidPoint, Euclidean};
    use proptest::prelude::*;

    fn p(x: f64) -> EuclidPoint {
        EuclidPoint::new(vec![x])
    }

    /// Exact diameter of the last `w` values.
    fn exact_diam(values: &[f64], w: usize) -> f64 {
        let start = values.len().saturating_sub(w);
        let win = &values[start..];
        let lo = win.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    #[test]
    fn state_roundtrip_keeps_streaming_identically() {
        let mut est = DiameterEstimator::new(Euclidean, Lattice::new(1.0), 7);
        for t in 1..=30u64 {
            est.push(t, &p((t as f64 * 0.618).fract() * 50.0));
        }
        let mut twin =
            DiameterEstimator::from_state(Euclidean, Lattice::new(1.0), 7, est.state()).unwrap();
        assert_eq!(twin.state(), est.state());
        for t in 31..=60u64 {
            let x = p((t as f64 * 0.324).fract() * 80.0);
            est.push(t, &x);
            twin.push(t, &x);
            assert_eq!(twin.upper(), est.upper());
            assert_eq!(twin.lower(), est.lower());
        }
        assert_eq!(twin.state(), est.state());
        // States from the future are refused, not restored.
        let mut bad = est.state();
        bad.now = 10;
        assert!(DiameterEstimator::from_state(Euclidean, Lattice::new(1.0), 7, bad).is_err());
    }

    #[test]
    fn single_point_bounds() {
        let mut est = DiameterEstimator::new(Euclidean, Lattice::new(1.0), 5);
        est.push(1, &p(7.0));
        assert_eq!(est.upper(), Some(0.0));
        assert_eq!(est.lower(), 0.0);
    }

    #[test]
    fn two_points() {
        let mut est = DiameterEstimator::new(Euclidean, Lattice::new(1.0), 5);
        est.push(1, &p(0.0));
        est.push(2, &p(10.0));
        assert!(est.upper().unwrap() >= 10.0);
        assert!(est.lower() >= 5.0); // quantized floor of 10 at base 2 is 8
        assert!(est.lower() <= 10.0);
    }

    #[test]
    fn drift_does_not_inflate_upper_forever() {
        // A stream drifting linearly: the window diameter stays ~w·step;
        // a fixed first-point anchor would report the full drift. The
        // rotating anchor must stay within a constant factor.
        let w = 50u64;
        let mut est = DiameterEstimator::new(Euclidean, Lattice::new(1.0), w);
        let mut t = 0;
        for i in 0..2000 {
            t += 1;
            est.push(t, &p(i as f64));
        }
        let true_diam = (w - 1) as f64;
        let up = est.upper().unwrap();
        assert!(up >= true_diam, "upper {up} below true {true_diam}");
        // Anchor is at most 2 epochs (2w steps) old: distance from anchor
        // to window points <= 2w; upper <= 2*(1+β)*2w = 8w.
        assert!(up <= 8.0 * w as f64, "upper {up} too loose");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounds_bracket_true_diameter(
            values in proptest::collection::vec(-1e3..1e3f64, 2..120),
            w in 2usize..20,
        ) {
            let mut est = DiameterEstimator::new(
                Euclidean, Lattice::new(1.0), w as u64);
            for (i, &v) in values.iter().enumerate() {
                est.push(i as u64 + 1, &p(v));
                let d = exact_diam(&values[..=i], w);
                let up = est.upper().expect("pushed");
                let lo = est.lower();
                prop_assert!(up >= d - 1e-9, "upper {up} < true {d}");
                prop_assert!(lo <= d + 1e-9, "lower {lo} > true {d}");
            }
        }
    }
}
