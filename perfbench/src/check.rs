//! Answer checks: an in-process oracle engine per tenant, fed the same
//! stream the server accepted, must reply byte for byte what the server
//! replied; and the paper's approximation ratio against `Jones` on the
//! whole window.

use crate::gen::{Class, Tenant};
use fairsw_core::{SlidingWindowClustering, WindowEngine};
use fairsw_metric::{Colored, EuclidPoint, Euclidean, Projectable, Projector, Relaxed};
use fairsw_sequential::{FairCenterSolver, Instance, Jones};
use fairsw_serve::protocol::Reply;
use std::collections::VecDeque;

/// A tenant's oracle: the engine the server would build, fed points in
/// stream order, remembering the newest window of what it holds.
pub struct Oracle {
    engine: WindowEngine<Relaxed<Euclidean>>,
    projector: Option<Projector>,
    window: VecDeque<Colored<EuclidPoint>>,
    window_len: usize,
    caps: Vec<usize>,
}

impl Oracle {
    pub fn new(t: &Tenant) -> Self {
        Oracle {
            engine: t
                .config
                .build_engine()
                .expect("benchmark tenant configs are valid"),
            projector: t.projector(),
            window: VecDeque::with_capacity(t.config.window + 1),
            window_len: t.config.window,
            caps: t.config.caps.clone(),
        }
    }

    /// Feeds raw (unprojected) points, projecting them first when the
    /// tenant projects, exactly as the server does on ingest.
    pub fn feed(&mut self, points: Vec<Colored<EuclidPoint>>) {
        let points: Vec<_> = match &self.projector {
            Some(pr) => points
                .into_iter()
                .map(|p| Colored::new(p.point.project_with(pr), p.color))
                .collect(),
            None => points,
        };
        for p in &points {
            if self.window.len() == self.window_len {
                self.window.pop_front();
            }
            self.window.push_back(p.clone());
        }
        self.engine.insert_batch(points);
    }

    /// The encoded `QUERY` reply the server should send now.
    pub fn reply(&self) -> Vec<u8> {
        Reply::from_query(&self.engine.query())
            .encode()
            .expect("solutions always encode")
    }

    pub fn engine(&self) -> &WindowEngine<Relaxed<Euclidean>> {
        &self.engine
    }

    /// Radius of `reply`'s centers over the true window, divided by the
    /// radius `Jones` achieves on the whole window. `None` when the reply
    /// is not a solution or the window has radius 0.
    pub fn radius_ratio(&self, reply: &[u8]) -> Option<f64> {
        let Ok(Reply::Solution(sol)) = Reply::decode(reply) else {
            return None;
        };
        let points: Vec<_> = self.window.iter().cloned().collect();
        let inst = Instance::new(&Euclidean, &points, &self.caps);
        let best = Jones.solve(&inst).ok()?.radius;
        (best > 0.0).then(|| inst.radius_of(&sol.centers) / best)
    }
}

/// Whether a class's answers enter `radius_ratio`: the robust variant
/// may drop outliers, so its radius is not comparable; the projecting
/// tenant answers in the projected space.
pub fn rated(class: Class) -> bool {
    !matches!(class, Class::Robust | Class::FixedJl)
}

/// `p` moved far outside the data: the perturbation that shows the
/// checks catch a wrong answer.
pub fn displaced(p: &Colored<EuclidPoint>) -> Colored<EuclidPoint> {
    let coords: Vec<f64> = p.point.coords().iter().map(|x| x * 1e3 + 1e3).collect();
    Colored::new(EuclidPoint::new(coords), p.color)
}

/// Tallies answer checks.
#[derive(Default)]
pub struct Verdict {
    pub checks: u64,
    pub wrong: u64,
    pub first_problem: Option<String>,
}

impl Verdict {
    pub fn expect_equal(&mut self, what: &str, got: &[u8], want: &[u8]) {
        self.checks += 1;
        if got != want {
            self.wrong += 1;
            self.first_problem
                .get_or_insert_with(|| format!("{what}: reply differs from the oracle"));
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.checks += other.checks;
        self.wrong += other.wrong;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    pub fn fail(&mut self, what: String) {
        self.checks += 1;
        self.wrong += 1;
        self.first_problem.get_or_insert(what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{inputs, Workload};

    #[test]
    fn oracle_agrees_with_itself_and_a_perturbed_one_does_not() {
        let inp = inputs(Workload::QueryCold, 5);
        let t = &inp.tenants[0];
        let (mut a, mut b, mut c) = (Oracle::new(t), Oracle::new(t), Oracle::new(t));
        a.feed(t.points(0, 6000));
        // Batch boundaries do not matter.
        b.feed(t.points(0, 2500));
        b.feed(t.points(2500, 3500));
        // Moving a single point does.
        let mut moved = t.points(0, 6000);
        moved[5990] = displaced(&moved[5990]);
        c.feed(moved);
        let mut v = Verdict::default();
        v.expect_equal("same stream", &b.reply(), &a.reply());
        assert_eq!(v.wrong, 0);
        v.expect_equal("perturbed", &c.reply(), &a.reply());
        assert_eq!((v.checks, v.wrong), (2, 1));
        assert!(v.first_problem.unwrap().starts_with("perturbed"));
    }

    #[test]
    fn radius_ratio_stays_within_the_jones_guarantee() {
        let inp = inputs(Workload::QueryCold, 5);
        let t = &inp.tenants[0];
        let mut o = Oracle::new(t);
        o.feed(t.points(0, 7000));
        let r = o
            .radius_ratio(&o.reply())
            .expect("a solution over a non-trivial window");
        // Jones is a 3-approximation, so no answer beats it by more than 3x.
        assert!(r > 1.0 / 3.0 && r < 10.0, "{r}");
    }
}
