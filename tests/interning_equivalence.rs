//! Differential-testing harness for the interned `PointStore` arena.
//!
//! The arena refactor rewrote the storage layer under every variant —
//! guesses hold 4-byte handles, payloads live once in a shared store
//! with refcounted early reclaim plus window-expiry epoch GC — while the
//! *algorithmic* behavior must be exactly the seed's. Three lines of
//! evidence:
//!
//! 1. **An owned-point oracle.** A direct, self-contained port of the
//!    pre-refactor `GuessState` (every family clones its own point) is
//!    driven in lockstep with [`FairSlidingWindow`] over the
//!    fill/slide/drift scenario matrix; per-guess families, memory
//!    counts and query answers must agree to the bit at every
//!    checkpoint.
//! 2. **Ingest-path differentials.** All five variants fed per point and
//!    in batches, comparing the arena accounting (`unique_points`,
//!    `payload_bytes`): a batch defers reclaim to its epilogue, yet must
//!    end in exactly the per-point state.
//! 3. **Byte-level memory bounds.** The acceptance criterion of the
//!    refactor: resident payloads are `O(Σ coreset sizes)` — never more
//!    payloads than handle entries, bounded by the window, and a
//!    several-fold dedup on multi-guess workloads — plus snapshot
//!    roundtrips that carry the deduplicated footprint through the
//!    store section.

use fairsw::prelude::*;
use fairsw::stream::Lattice;
use std::collections::{BTreeMap, HashMap, VecDeque};

const WINDOW: usize = 48;
const CAPS: [usize; 2] = [2, 1];
const DMIN: f64 = 1e-4;
const DMAX: f64 = 1e4;

fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
    Colored::new(EuclidPoint::new(vec![x]), c)
}

/// The scenario matrix: name → point stream (fill / slide+spikes /
/// scale drift, the same shapes the parallel harness uses).
fn scenarios() -> Vec<(&'static str, Vec<Colored<EuclidPoint>>)> {
    let n = WINDOW as u64;
    let fill: Vec<_> = (0..n / 2)
        .map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 100.0 };
            cp(
                base + (i as f64 * 0.618_033_988_7).fract() * 2.0,
                (i % 3 == 0) as u32,
            )
        })
        .collect();
    let slide: Vec<_> = (0..5 * n)
        .map(|i| {
            if i % 71 == 0 {
                cp(5e3 + i as f64, (i % 3 == 0) as u32)
            } else {
                let base = if i % 2 == 0 { 0.0 } else { 250.0 };
                cp(
                    base + (i as f64 * 0.324_717_957_2).fract() * 3.0,
                    (i % 3 == 0) as u32,
                )
            }
        })
        .collect();
    let drift: Vec<_> = (0..2 * n)
        .map(|i| {
            let base = (i % 3) as f64 * 800.0;
            cp(
                base + (i as f64 * 0.445_041_867_9).fract() * 5.0,
                (i % 3 == 0) as u32,
            )
        })
        .chain((0..3 * n).map(|i| {
            cp(
                500.0 + (i as f64 * 0.618_033_988_7).fract() * 1.5,
                (i % 3 == 0) as u32,
            )
        }))
        .collect();
    vec![("fill", fill), ("slide", slide), ("drift", drift)]
}

// ======================================================================
// 1. The owned-point oracle: a faithful port of the pre-refactor
//    per-guess state. Every family stores its own point clone; no arena,
//    no handles, no reference counting.
// ======================================================================

struct OracleGuess {
    gamma: f64,
    av: BTreeMap<u64, EuclidPoint>,
    rep_of: HashMap<u64, u64>,
    rv: BTreeMap<u64, EuclidPoint>,
    a: BTreeMap<u64, EuclidPoint>,
    reps_c: HashMap<u64, Vec<VecDeque<u64>>>,
    r: BTreeMap<u64, (EuclidPoint, u32)>,
}

impl OracleGuess {
    fn new(gamma: f64) -> Self {
        OracleGuess {
            gamma,
            av: BTreeMap::new(),
            rep_of: HashMap::new(),
            rv: BTreeMap::new(),
            a: BTreeMap::new(),
            reps_c: HashMap::new(),
            r: BTreeMap::new(),
        }
    }

    fn stored_points(&self) -> usize {
        self.av.len() + self.rv.len() + self.a.len() + self.r.len()
    }

    fn expire(&mut self, te: u64) {
        if self.av.remove(&te).is_some() {
            self.rep_of.remove(&te);
        }
        self.rv.remove(&te);
        if self.a.remove(&te).is_some() {
            self.reps_c.remove(&te);
        }
        self.r.remove(&te);
    }

    fn update(&mut self, m: &Euclidean, t: u64, p: &EuclidPoint, color: u32, caps: &[usize]) {
        let k: usize = caps.iter().sum();
        let delta = 1.0;
        let two_gamma = 2.0 * self.gamma;
        let psi = self
            .av
            .iter()
            .find(|(_, v)| m.dist(p, v) <= two_gamma)
            .map(|(&tv, _)| tv);
        match psi {
            None => {
                self.av.insert(t, p.clone());
                self.rep_of.insert(t, t);
                self.rv.insert(t, p.clone());
                self.cleanup(k);
            }
            Some(v) => {
                let old = self.rep_of.insert(v, t).expect("live attractor has rep");
                self.rv.remove(&old);
                self.rv.insert(t, p.clone());
            }
        }
        let attach = delta * self.gamma / 2.0;
        let ci = color as usize;
        let phi = self
            .a
            .iter()
            .filter(|(_, q)| m.dist(p, q) <= attach)
            .min_by_key(|(&ta, _)| self.reps_c.get(&ta).map(|per| per[ci].len()).unwrap_or(0))
            .map(|(&ta, _)| ta);
        match phi {
            None => {
                self.a.insert(t, p.clone());
                let mut per = vec![VecDeque::new(); caps.len()];
                per[ci].push_back(t);
                self.reps_c.insert(t, per);
                self.r.insert(t, (p.clone(), color));
            }
            Some(a) => {
                let per = self.reps_c.get_mut(&a).expect("live attractor table");
                per[ci].push_back(t);
                self.r.insert(t, (p.clone(), color));
                if per[ci].len() > caps[ci] {
                    let orem = per[ci].pop_front().expect("over cap");
                    self.r.remove(&orem);
                }
            }
        }
    }

    fn cleanup(&mut self, k: usize) {
        if self.av.len() == k + 2 {
            let oldest = *self.av.keys().next().expect("non-empty");
            self.av.remove(&oldest);
            self.rep_of.remove(&oldest);
        }
        if self.av.len() == k + 1 {
            let tmin = *self.av.keys().next().expect("non-empty");
            let keep_a = self.a.split_off(&tmin);
            for (dead, _) in std::mem::replace(&mut self.a, keep_a) {
                self.reps_c.remove(&dead);
            }
            let keep_rv = self.rv.split_off(&tmin);
            self.rv = keep_rv;
            let keep_r = self.r.split_off(&tmin);
            self.r = keep_r;
        }
    }
}

struct OracleWindow {
    metric: Euclidean,
    caps: Vec<usize>,
    k: usize,
    n: u64,
    guesses: Vec<OracleGuess>,
    t: u64,
}

impl OracleWindow {
    fn new(n: usize, caps: &[usize], dmin: f64, dmax: f64) -> Self {
        let lattice = Lattice::new(2.0);
        let guesses = lattice
            .span(dmin, dmax)
            .map(|lvl| OracleGuess::new(lattice.value(lvl)))
            .collect();
        OracleWindow {
            metric: Euclidean,
            caps: caps.to_vec(),
            k: caps.iter().sum(),
            n: n as u64,
            guesses,
            t: 0,
        }
    }

    fn insert(&mut self, p: &Colored<EuclidPoint>) {
        self.t += 1;
        let t = self.t;
        let te = t.checked_sub(self.n);
        for g in &mut self.guesses {
            if let Some(te) = te {
                g.expire(te);
            }
            g.update(&self.metric, t, &p.point, p.color, &self.caps);
        }
    }

    fn query(&self) -> Option<(f64, usize, f64, Vec<Colored<EuclidPoint>>)> {
        for g in &self.guesses {
            if g.av.len() > self.k {
                continue;
            }
            let two_gamma = 2.0 * g.gamma;
            let mut packing: Vec<&EuclidPoint> = Vec::new();
            let mut overflow = false;
            for q in g.rv.values() {
                if self.metric.dist_to_set(q, packing.iter().copied()) > two_gamma {
                    packing.push(q);
                    if packing.len() > self.k {
                        overflow = true;
                        break;
                    }
                }
            }
            if overflow {
                continue;
            }
            let coreset: Vec<Colored<EuclidPoint>> =
                g.r.values()
                    .map(|(p, c)| Colored::new(p.clone(), *c))
                    .collect();
            let inst = Instance::new(&self.metric, &coreset, &self.caps);
            let sol = Jones.solve(&inst).expect("oracle solve");
            return Some((g.gamma, coreset.len(), sol.radius, sol.centers));
        }
        None
    }
}

/// Drives the interned implementation and the owned-point oracle in
/// lockstep, comparing families and answers at every checkpoint.
fn run_oracle_differential(scenario: &str, stream: &[Colored<EuclidPoint>]) {
    let cfg = FairSWConfig::builder()
        .window_size(WINDOW)
        .capacities(CAPS.to_vec())
        .beta(2.0)
        .delta(1.0)
        .build()
        .expect("valid config");
    let mut interned = FairSlidingWindow::new(cfg, Euclidean, DMIN, DMAX).expect("valid");
    let mut oracle = OracleWindow::new(WINDOW, &CAPS, DMIN, DMAX);

    let checkpoint = (stream.len() / 7).max(1);
    for (i, p) in stream.iter().enumerate() {
        interned.insert(p.clone());
        oracle.insert(p);
        if (i + 1) % checkpoint != 0 && i + 1 != stream.len() {
            continue;
        }
        let ctx = format!("{scenario} @ t={}", i + 1);
        interned.check_invariants().expect("invariants");
        // Families: same per-guess entry counts, same RV and coreset
        // sequences (arrival order on both sides).
        let res = interned.resolver();
        assert_eq!(interned.guesses().count(), oracle.guesses.len(), "{ctx}");
        for (g, og) in interned.guesses().zip(&oracle.guesses) {
            assert_eq!(g.gamma().to_bits(), og.gamma.to_bits(), "{ctx}: lattice");
            assert_eq!(g.av_len(), og.av.len(), "{ctx}: |AV| at γ={}", og.gamma);
            assert_eq!(
                g.stored_points(),
                og.stored_points(),
                "{ctx}: entries at γ={}",
                og.gamma
            );
            let rv_new: Vec<&EuclidPoint> = g.rv_points(res).collect();
            let rv_old: Vec<&EuclidPoint> = og.rv.values().collect();
            assert_eq!(rv_new.len(), rv_old.len(), "{ctx}: |RV| at γ={}", og.gamma);
            for (x, y) in rv_new.iter().zip(&rv_old) {
                assert_eq!(
                    x.coords(),
                    y.coords(),
                    "{ctx}: RV diverged at γ={}",
                    og.gamma
                );
            }
            let cs_new = g.coreset(res);
            let cs_old: Vec<(&EuclidPoint, u32)> = og.r.values().map(|(p, c)| (p, *c)).collect();
            assert_eq!(cs_new.len(), cs_old.len(), "{ctx}: |R| at γ={}", og.gamma);
            for (x, (yp, yc)) in cs_new.iter().zip(&cs_old) {
                assert_eq!(x.color, *yc, "{ctx}: R color diverged at γ={}", og.gamma);
                assert_eq!(
                    x.point.coords(),
                    yp.coords(),
                    "{ctx}: R diverged at γ={}",
                    og.gamma
                );
            }
        }
        // Answers.
        match (interned.query(), oracle.query()) {
            (Ok(sol), Some((gamma, size, radius, centers))) => {
                assert_eq!(sol.guess.to_bits(), gamma.to_bits(), "{ctx}: winning guess");
                assert_eq!(sol.coreset_size, size, "{ctx}: coreset size");
                assert_eq!(
                    sol.coreset_radius.to_bits(),
                    radius.to_bits(),
                    "{ctx}: radius bits"
                );
                assert_eq!(sol.centers.len(), centers.len(), "{ctx}: center count");
                for (x, y) in sol.centers.iter().zip(&centers) {
                    assert_eq!(x.color, y.color, "{ctx}: center color");
                    assert_eq!(x.point.coords(), y.point.coords(), "{ctx}: center coords");
                }
            }
            (Err(QueryError::NoValidGuess), None) => {}
            (a, b) => panic!("{ctx}: outcome kind diverged ({a:?} vs {:?})", b.is_some()),
        }
    }
}

#[test]
fn interned_matches_owned_point_oracle_on_fill() {
    let (name, stream) = &scenarios()[0];
    run_oracle_differential(name, stream);
}

#[test]
fn interned_matches_owned_point_oracle_on_slide() {
    let (name, stream) = &scenarios()[1];
    run_oracle_differential(name, stream);
}

#[test]
fn interned_matches_owned_point_oracle_on_drift() {
    let (name, stream) = &scenarios()[2];
    run_oracle_differential(name, stream);
}

// ======================================================================
// 2. Ingest-path differentials over the arena accounting: the
//    release/record/reclaim protocol must end in the same state whether
//    points arrive one at a time or in batches.
// ======================================================================

fn variants() -> Vec<(&'static str, WindowEngine<Euclidean>)> {
    let base = || {
        EngineBuilder::new()
            .window_size(WINDOW)
            .capacities(CAPS.to_vec())
            .beta(2.0)
            .delta(1.0)
    };
    vec![
        (
            "fixed",
            base().fixed(DMIN, DMAX).build(Euclidean).expect("valid"),
        ),
        (
            "oblivious",
            base().oblivious().build(Euclidean).expect("valid"),
        ),
        (
            "compact",
            base().compact(DMIN, DMAX).build(Euclidean).expect("valid"),
        ),
        (
            "robust",
            base()
                .robust(2, DMIN, DMAX)
                .build(Euclidean)
                .expect("valid"),
        ),
        (
            "matroid",
            base()
                .matroid(
                    PartitionMatroid::new(CAPS.to_vec()).expect("valid caps"),
                    DMIN,
                    DMAX,
                )
                .build(Euclidean)
                .expect("valid"),
        ),
    ]
}

fn assert_arena_agrees(ctx: &str, a: &MemoryStats, b: &MemoryStats) {
    assert_eq!(a.stored_points(), b.stored_points(), "{ctx}: entries");
    assert_eq!(a.unique_points, b.unique_points, "{ctx}: arena payloads");
    assert_eq!(a.payload_bytes, b.payload_bytes, "{ctx}: arena bytes");
    assert_eq!(a.handle_bytes(), b.handle_bytes(), "{ctx}: handle bytes");
}

#[test]
fn arena_accounting_is_identical_for_batched_inserts() {
    for (scenario, stream) in scenarios() {
        let mut pairs: Vec<_> = variants()
            .into_iter()
            .zip(variants())
            .map(|((name, single), (_, batched))| (name, single, batched))
            .collect();
        for p in &stream {
            for (_, single, _) in &mut pairs {
                single.insert(p.clone());
            }
        }
        for chunk in stream.chunks(17) {
            for (_, _, batched) in &mut pairs {
                batched.insert_batch(chunk.iter().cloned());
            }
        }
        for (name, single, batched) in &pairs {
            let ctx = format!("{name}/{scenario}/batched");
            assert_arena_agrees(&ctx, &single.memory_stats(), &batched.memory_stats());
            // Batched and per-point lanes both drain the dead lists
            // fully: nothing may still be pending.
            assert!(
                batched.memory_stats().unique_points <= batched.stored_points().max(1),
                "{ctx}: arena holds more payloads than entries reference"
            );
        }
    }
}

// ======================================================================
// 3. Byte-level memory bounds and snapshot roundtrip — the acceptance
//    criteria of the interning refactor.
// ======================================================================

/// For a window of W points under G guesses, resident payloads are
/// O(coreset sizes): never more payloads than handle entries, never more
/// than W, and several-fold fewer than the pre-refactor per-entry copies
/// on a multi-guess workload.
#[test]
fn payloads_are_coreset_bounded_not_guesses_times_window() {
    let window = 300usize;
    let cfg = FairSWConfig::builder()
        .window_size(window)
        .capacities(vec![2, 2])
        .beta(2.0)
        .delta(1.0)
        .build()
        .expect("valid");
    let mut sw = FairSlidingWindow::new(cfg, Euclidean, 1e-3, 1e4).expect("valid");
    for i in 0..3 * window as u64 {
        let x = (i as f64 * 0.618_033_988_7).fract() * 1000.0 + i as f64 * 0.1;
        sw.insert(cp(x, (i % 2) as u32));
    }
    sw.check_invariants().expect("invariants");
    let stats = sw.memory_stats();
    let entries = stats.stored_points();
    let g = stats.num_guesses();
    assert!(g >= 10, "workload must materialize many guesses, got {g}");

    // (a) Dedup invariant: every payload is referenced by ≥ 1 entry.
    assert!(stats.unique_points <= entries);
    // (b) Epoch bound: the arena never outlives the window.
    assert!(stats.unique_points <= window);
    // (c) The pre-refactor footprint was one payload per entry; the
    //     arena must cut resident copies several-fold on this workload.
    assert!(
        entries >= 3 * stats.unique_points,
        "copy reduction too small: {entries} entries vs {} payloads",
        stats.unique_points
    );
    // (d) Byte-level: payload bytes correspond to unique points priced
    //     at the actual per-point footprint, and handles are 8 bytes per
    //     entry — the arena's bytes must undercut pricing every entry as
    //     an owned copy.
    let per_point = EuclidPoint::new(vec![0.0]).payload_bytes();
    assert_eq!(stats.payload_bytes, stats.unique_points * per_point);
    assert_eq!(
        stats.handle_bytes(),
        entries * fairsw::core::HANDLE_ENTRY_BYTES
    );
    let pre_refactor_bytes = entries * per_point;
    assert!(
        stats.resident_bytes() < pre_refactor_bytes,
        "arena bytes {} not below per-entry-copy bytes {pre_refactor_bytes}",
        stats.resident_bytes()
    );
}

/// Retiring guesses (the oblivious range adjustment) must return their
/// arena references: after the window collapses to a tight cluster the
/// payload count has to follow the coresets down, not accumulate.
#[test]
fn oblivious_retirement_does_not_leak_payloads() {
    let mut sw = ObliviousFairSlidingWindow::new(
        FairSWConfig::builder()
            .window_size(WINDOW)
            .capacities(CAPS.to_vec())
            .build()
            .expect("valid"),
        Euclidean,
    )
    .expect("valid");
    // Phase 1: wide scatter materializes a broad guess range.
    for i in 0..4 * WINDOW as u64 {
        sw.insert(cp(
            (i as f64 * 0.324_717_957_2).fract() * 1e3,
            (i % 2) as u32,
        ));
    }
    // Phase 2: tight cluster; high guesses retire, old payloads expire.
    for i in 0..4 * WINDOW as u64 {
        sw.insert(cp(500.0 + (i as f64 * 0.618).fract(), (i % 2) as u32));
    }
    sw.check_invariants().expect("invariants");
    let stats = sw.memory_stats();
    assert!(
        stats.unique_points <= WINDOW,
        "arena kept {} payloads for a {WINDOW}-point window",
        stats.unique_points
    );
    assert!(stats.unique_points <= stats.stored_points());
}

/// Snapshot → restore → continue must carry the arena through the wire:
/// identical answers and identical deduplicated footprint, including
/// after further batched arrivals on both sides.
#[test]
fn snapshot_roundtrips_through_the_store() {
    let cfg = FairSWConfig::builder()
        .window_size(WINDOW)
        .capacities(CAPS.to_vec())
        .beta(2.0)
        .delta(1.0)
        .build()
        .expect("valid");
    let (_, stream) = &scenarios()[1]; // slide (spikes included)
    let (head, tail) = stream.split_at(stream.len() / 2);
    let mut original = FairSlidingWindow::new(cfg, Euclidean, DMIN, DMAX).expect("valid");
    for p in head {
        original.insert(p.clone());
    }
    let bytes = original.snapshot();
    let mut restored = FairSlidingWindow::restore(Euclidean, &bytes).expect("restores");
    assert_arena_agrees(
        "snapshot/at-restore",
        &original.memory_stats(),
        &restored.memory_stats(),
    );
    // Continue both — one per-point, one batched — and stay identical.
    for p in tail {
        original.insert(p.clone());
    }
    for chunk in tail.chunks(13) {
        restored.insert_batch(chunk.iter().cloned());
    }
    assert_arena_agrees(
        "snapshot/after-continue",
        &original.memory_stats(),
        &restored.memory_stats(),
    );
    let (a, b) = (
        original.query().expect("answers"),
        restored.query().expect("answers"),
    );
    assert_eq!(a.guess.to_bits(), b.guess.to_bits());
    assert_eq!(a.coreset_size, b.coreset_size);
    assert_eq!(a.coreset_radius.to_bits(), b.coreset_radius.to_bits());
    for (x, y) in a.centers.iter().zip(&b.centers) {
        assert_eq!(x.color, y.color);
        assert_eq!(x.point.coords(), y.point.coords());
    }
}
