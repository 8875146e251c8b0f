//! Checkpoint / restore for the sliding-window state.
//!
//! A streaming operator that cannot persist its state must replay up to a
//! full window of history after every restart. Since the whole point of
//! the algorithm is that its state is *small* (`O(k² log Δ (c/ε)^D)`
//! points), serializing it is cheap — this module provides a compact,
//! versioned, self-contained binary snapshot of every variant:
//!
//! ```
//! use fairsw_core::{FairSWConfig, FairSlidingWindow, SlidingWindowClustering};
//! use fairsw_metric::{Colored, Euclidean, EuclidPoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = FairSWConfig::builder()
//!     .window_size(50)
//!     .capacities(vec![1, 1])
//!     .build()?;
//! let mut sw = FairSlidingWindow::new(cfg, Euclidean, 0.1, 100.0)?;
//! sw.insert(Colored::new(EuclidPoint::new(vec![1.0]), 0));
//! let bytes = sw.snapshot();
//! let restored = FairSlidingWindow::restore(Euclidean, &bytes)?;
//! assert_eq!(restored.time(), sw.time());
//! # Ok(())
//! # }
//! ```
//!
//! The format is little-endian, length-prefixed throughout, and carries
//! the full configuration, so `restore` needs only the metric (the
//! distance function itself is code, not data). Hand-rolled rather than
//! serde-derived: the state contains `Arc<[f64]>` payloads and
//! `BTreeMap`/`VecDeque` families whose derived encodings would be both
//! larger and slower, and the workspace keeps its dependency surface
//! minimal (DESIGN.md §6). Hash-keyed tables are written in ascending
//! key order, so equal states encode to equal bytes.
//!
//! ## Snapshots go through the arena
//!
//! Point payloads are written **once**, in an arena section of
//! `(arrival time, point)` pairs; the per-guess families serialize only
//! arrival times plus metadata (a point's identity *is* its arrival
//! time). `restore` re-interns the arena section, rebuilds the
//! time→handle mapping, and re-acquires one arena reference per family
//! entry — so a restored window carries exactly the deduplicated payload
//! footprint of the original.
//!
//! ## One layout per variant
//!
//! The first four bytes name the variant; the sections after them are
//! shared building blocks:
//!
//! | magic  | variant   | sections |
//! |--------|-----------|----------|
//! | `FSW2` | fixed     | config · arena · guesses |
//! | `FSWR` | robust    | config · `z` · arena · guesses |
//! | `FSWC` | compact   | config · arena · compact guesses |
//! | `FSWO` | oblivious | config · arena · levels · estimators · last point |
//! | `FSWM` | matroid   | window · `δ` · constraint · arena · matroid guesses |
//!
//! * **config** — window `n`, the budgets `k_i`, `β`, `δ`.
//! * **arena** — the arrival clock `t`, then every live point as
//!   `(arrival time, payload)`, times increasing and inside the window.
//! * **guesses** — per `γ`: `AV`, `rep(·)`, `RV`, `A`, `repsC`, `R`.
//!   Robust guesses are the same families; their inflated budgets
//!   `k_i + z` are recomputed from the config and `z`.
//! * **compact guesses** — per `γ`: `AV`, the per-attractor per-color
//!   representative tables, and `RV` with each entry's color and
//!   attractor.
//! * **levels** — the oblivious variant's materialized lattice levels
//!   in ascending order, each with its birth time and its guess. The
//!   estimators are the diameter estimator's two anchors (point, install
//!   time, windowed maxima) and consecutive-distance maxima, then the
//!   windowed minimum of consecutive distances; the last point (with its
//!   color) doubles as the estimator's previous arrival.
//! * **constraint** — the matroid: a partition's capacities, a laminar
//!   family's groups, or a uniform rank.
//! * **matroid guesses** — per `γ`: `AV`, `rep(·)`, `RV`, `A`, each
//!   attractor's representative times, and `R`.
//!
//! `FSW2` is byte-compatible with snapshots written before the other
//! variants could checkpoint. Decoding validates as it goes: counts are
//! checked against the bytes left before anything is allocated, and
//! tables that reference each other (live attractors and their
//! representative slots, representative times and `R`, levels and their
//! `γ`) must agree, so a corrupt snapshot is an error, never a panic on
//! the next arrival.

use crate::algorithm::FairSlidingWindow;
use crate::compact::{CompactFairSlidingWindow, CompactGuess};
use crate::config::FairSWConfig;
use crate::guess::{CoresetEntry, GuessState};
use crate::guess_set::GuessSet;
use crate::matroid_window::{MatroidGuess, MatroidSlidingWindow};
use crate::oblivious::{BornGuess, ObliviousFairSlidingWindow};
use crate::robust::RobustFairSlidingWindow;
use fairsw_matroid::{
    AnyMatroid, Group, LaminarMatroid, Matroid, PartitionMatroid, UniformMatroid,
};
use fairsw_metric::{Colored, EuclidPoint, Metric, PointId, PointStore};
use fairsw_stream::{AnchorState, DiameterEstimator, DiameterState, Lattice, WindowedMinLattice};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Magic of the fixed variant (the original v2 interned-arena format).
pub(crate) const FIXED_MAGIC: &[u8; 4] = b"FSW2";
/// Magic of the robust variant.
pub(crate) const ROBUST_MAGIC: &[u8; 4] = b"FSWR";
/// Magic of the compact variant.
pub(crate) const COMPACT_MAGIC: &[u8; 4] = b"FSWC";
/// Magic of the oblivious variant.
pub(crate) const OBLIVIOUS_MAGIC: &[u8; 4] = b"FSWO";
/// Magic of the matroid variant.
pub(crate) const MATROID_MAGIC: &[u8; 4] = b"FSWM";

/// Largest total budget (`k`, `z`, a matroid rank) a snapshot may carry:
/// query paths size buffers by it.
const MAX_BUDGET: u128 = 1 << 24;
/// Largest window length a snapshot may carry.
const MAX_WINDOW: u64 = 1 << 48;
/// Largest arrival clock a snapshot may carry (far from overflow).
const MAX_CLOCK: u64 = 1 << 62;

/// Errors raised while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic/version tag.
    BadMagic,
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// A decoded value is structurally invalid (message attached).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a fairsw snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

/// Binary encoding of a point type. Implemented for [`EuclidPoint`];
/// implement it for custom point types to make their windows
/// snapshot-able.
pub trait PointCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one point from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError>;
}

impl PointCodec for EuclidPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.coords().len() as u64);
        for c in self.coords() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let n = take_count(input, 8)?;
        if n > 1 << 24 {
            return Err(invalid(format!("absurd dimension {n}")));
        }
        let mut coords = Vec::with_capacity(n);
        for _ in 0..n {
            coords.push(take_f64(input)?);
        }
        Ok(EuclidPoint::new(coords))
    }
}

// ---- primitive helpers -------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if input.len() < n {
        return Err(SnapshotError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn take_u8(input: &mut &[u8]) -> Result<u8, SnapshotError> {
    Ok(take_bytes(input, 1)?[0])
}

fn take_u64(input: &mut &[u8]) -> Result<u64, SnapshotError> {
    let b = take_bytes(input, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn take_u32(input: &mut &[u8]) -> Result<u32, SnapshotError> {
    let b = take_bytes(input, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn take_i32(input: &mut &[u8]) -> Result<i32, SnapshotError> {
    take_u32(input).map(|v| v as i32)
}

fn take_f64(input: &mut &[u8]) -> Result<f64, SnapshotError> {
    let b = take_bytes(input, 8)?;
    Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Reads a length prefix and sanity-checks it against the bytes left:
/// every counted item occupies at least `min_item_bytes` further input,
/// so a count the buffer cannot possibly satisfy is rejected *before*
/// any allocation is sized by it (a corrupt 30-byte snapshot must not
/// trigger a multi-GiB `with_capacity`).
fn take_count(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, SnapshotError> {
    let n = take_u64(input)?;
    if n as u128 * min_item_bytes as u128 > input.len() as u128 {
        return Err(SnapshotError::Truncated);
    }
    Ok(n as usize)
}

/// Decodes a length-prefixed list of items of at least `min_item_bytes`
/// each (the allocation guard of [`take_count`]).
fn decode_list<T>(
    input: &mut &[u8],
    min_item_bytes: usize,
    mut item: impl FnMut(&mut &[u8]) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let n = take_count(input, min_item_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(input)?);
    }
    Ok(out)
}

/// Strips and checks the 4-byte variant magic.
fn expect_magic<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<&'a [u8], SnapshotError> {
    let mut input = bytes;
    if take_bytes(&mut input, 4)? != magic {
        return Err(SnapshotError::BadMagic);
    }
    Ok(input)
}

/// Every byte must belong to the snapshot.
fn expect_end(input: &[u8]) -> Result<(), SnapshotError> {
    if input.is_empty() {
        Ok(())
    } else {
        Err(invalid(format!("{} trailing bytes", input.len())))
    }
}

/// A hash-keyed table in ascending key order (canonical encoding).
fn sorted<V>(map: &HashMap<u64, V>) -> Vec<(u64, &V)> {
    let mut entries: Vec<(u64, &V)> = map.iter().map(|(&k, v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// Time-keyed families are encoded in increasing key order; a repeated
/// or reordered key would take two arena references for one entry.
fn check_increasing(prev: &mut Option<u64>, t: u64, what: &str) -> Result<(), SnapshotError> {
    if prev.is_some_and(|p| t <= p) {
        return Err(invalid(format!("{what} times not increasing")));
    }
    *prev = Some(t);
    Ok(())
}

/// Every key of `live` must own a slot in `table`: a flipped key byte
/// can desynchronize two maps while each stays well-formed, and the
/// insert path would panic on the next arrival.
fn require_keys<'a, V>(
    live: impl IntoIterator<Item = &'a u64>,
    table: &HashMap<u64, V>,
    what: &str,
) -> Result<(), SnapshotError> {
    match live.into_iter().find(|t| !table.contains_key(t)) {
        Some(t) => Err(invalid(format!("{what} {t} lacks its table entry"))),
        None => Ok(()),
    }
}

// ---- shared sections ---------------------------------------------------

fn encode_config(out: &mut Vec<u8>, cfg: &FairSWConfig) {
    put_u64(out, cfg.window_size as u64);
    put_len(out, cfg.capacities.len());
    for c in &cfg.capacities {
        put_u64(out, *c as u64);
    }
    put_f64(out, cfg.beta);
    put_f64(out, cfg.delta);
}

fn decode_config(input: &mut &[u8]) -> Result<FairSWConfig, SnapshotError> {
    let window_size = take_u64(input)?;
    let capacities = decode_list(input, 8, |i| take_u64(i).map(|c| c as usize))?;
    let cfg = FairSWConfig {
        window_size: window_size as usize,
        capacities,
        beta: take_f64(input)?,
        delta: take_f64(input)?,
    };
    cfg.validate().map_err(|e| invalid(e.to_string()))?;
    // `validate` bounds neither `n` nor `k`; a corrupt byte in a
    // capacity or the window must not size later allocations (the
    // query path reserves `k + 1` slots).
    let k = cfg.capacities.iter().map(|&c| c as u128).sum::<u128>();
    if k > MAX_BUDGET {
        return Err(invalid(format!("absurd total budget {k}")));
    }
    check_window(window_size)?;
    Ok(cfg)
}

fn check_window(window: u64) -> Result<(), SnapshotError> {
    if window == 0 || window > MAX_WINDOW {
        return Err(invalid(format!("absurd window size {window}")));
    }
    Ok(())
}

/// The decoded arrival clock plus the re-interned arena, with the
/// time → handle map the family decoders resolve through.
struct Arena<P> {
    t: u64,
    store: PointStore<P>,
    ids: HashMap<u64, PointId>,
}

impl<P> Arena<P> {
    /// Resolves a family entry's arrival time to its handle, taking the
    /// one arena reference the entry holds.
    fn acquire(&mut self, t: u64) -> Result<PointId, SnapshotError> {
        let id = *self
            .ids
            .get(&t)
            .ok_or_else(|| invalid(format!("entry time {t} not in store")))?;
        self.store.acquire_owned(id);
        Ok(id)
    }
}

fn encode_arena<P: PointCodec>(out: &mut Vec<u8>, t: u64, store: &PointStore<P>) {
    put_u64(out, t);
    put_len(out, store.live_points());
    for (pt, _, p) in store.iter() {
        put_u64(out, pt);
        p.encode(out);
    }
}

fn decode_arena<P: PointCodec>(
    input: &mut &[u8],
    window: usize,
) -> Result<Arena<P>, SnapshotError> {
    let t = take_u64(input)?;
    if t > MAX_CLOCK {
        return Err(invalid(format!("absurd arrival clock {t}")));
    }
    // Each entry needs ≥ 16 bytes (time + point-length header), so a
    // count the buffer cannot hold is refused before allocating.
    let n = take_count(input, 16)?;
    let mut arena = Arena {
        t,
        store: PointStore::new(),
        ids: HashMap::with_capacity(n),
    };
    let mut prev = None;
    for _ in 0..n {
        let pt = take_u64(input)?;
        check_increasing(&mut prev, pt, "store")?;
        // The arena holds window points only: arrived by `t`, and not
        // yet swept by the window-expiry epoch.
        if pt > t || t - pt >= window as u64 {
            return Err(invalid(format!(
                "store time {pt} outside the window at t={t}"
            )));
        }
        let p = P::decode(input)?;
        arena.ids.insert(pt, arena.store.insert(pt, p));
    }
    Ok(arena)
}

fn decode_gamma(input: &mut &[u8]) -> Result<f64, SnapshotError> {
    let gamma = take_f64(input)?;
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(invalid(format!("bad gamma {gamma}")));
    }
    Ok(gamma)
}

// ---- family codecs -----------------------------------------------------
//
// Families reference points by arrival time only; payloads live in the
// arena section. The decoders resolve times through the re-interned
// arena and re-acquire one reference per entry.

fn encode_times(out: &mut Vec<u8>, map: &BTreeMap<u64, PointId>) {
    put_len(out, map.len());
    for t in map.keys() {
        put_u64(out, *t);
    }
}

fn decode_times<P>(
    input: &mut &[u8],
    arena: &mut Arena<P>,
) -> Result<BTreeMap<u64, PointId>, SnapshotError> {
    let mut prev = None;
    decode_list(input, 8, |i| {
        let t = take_u64(i)?;
        check_increasing(&mut prev, t, "family")?;
        Ok((t, arena.acquire(t)?))
    })
    .map(|entries| entries.into_iter().collect())
}

fn encode_pairs(out: &mut Vec<u8>, map: &HashMap<u64, u64>) {
    put_len(out, map.len());
    for (k, v) in sorted(map) {
        put_u64(out, k);
        put_u64(out, *v);
    }
}

fn decode_pairs(input: &mut &[u8]) -> Result<HashMap<u64, u64>, SnapshotError> {
    decode_list(input, 16, |i| Ok((take_u64(i)?, take_u64(i)?)))
        .map(|pairs| pairs.into_iter().collect())
}

fn encode_color_tables(out: &mut Vec<u8>, map: &HashMap<u64, Vec<VecDeque<u64>>>) {
    put_len(out, map.len());
    for (a, per) in sorted(map) {
        put_u64(out, a);
        put_len(out, per.len());
        for dq in per {
            put_len(out, dq.len());
            for t in dq {
                put_u64(out, *t);
            }
        }
    }
}

fn decode_color_tables(
    input: &mut &[u8],
    ncolors: usize,
) -> Result<HashMap<u64, Vec<VecDeque<u64>>>, SnapshotError> {
    let tables = decode_list(input, 16, |i| {
        let a = take_u64(i)?;
        let per = decode_list(i, 8, |i| decode_list(i, 8, take_u64).map(VecDeque::from))?;
        // The insert path indexes these tables by color: a table that
        // does not span the configuration's colors would panic later.
        if per.len() != ncolors {
            return Err(invalid(format!(
                "repsC table spans {} colors, config has {ncolors}",
                per.len()
            )));
        }
        Ok((a, per))
    })?;
    Ok(tables.into_iter().collect())
}

fn encode_time_lists(out: &mut Vec<u8>, map: &HashMap<u64, Vec<u64>>) {
    put_len(out, map.len());
    for (a, times) in sorted(map) {
        put_u64(out, a);
        put_len(out, times.len());
        for t in times {
            put_u64(out, *t);
        }
    }
}

fn decode_time_lists(input: &mut &[u8]) -> Result<HashMap<u64, Vec<u64>>, SnapshotError> {
    decode_list(input, 16, |i| {
        Ok((take_u64(i)?, decode_list(i, 8, take_u64)?))
    })
    .map(|lists| lists.into_iter().collect())
}

fn encode_entries(out: &mut Vec<u8>, map: &BTreeMap<u64, CoresetEntry>) {
    put_len(out, map.len());
    for (t, e) in map {
        put_u64(out, *t);
        put_u32(out, e.color);
        put_u64(out, e.attractor);
    }
}

fn decode_entries<P>(
    input: &mut &[u8],
    arena: &mut Arena<P>,
    ncolors: usize,
) -> Result<BTreeMap<u64, CoresetEntry>, SnapshotError> {
    let mut prev = None;
    decode_list(input, 20, |i| {
        let t = take_u64(i)?;
        check_increasing(&mut prev, t, "entry")?;
        let color = take_u32(i)?;
        // Colors index the capacity table and the solvers' per-color
        // structures; an out-of-range color must die here, not there.
        if color as usize >= ncolors {
            return Err(invalid(format!(
                "color {color} out of range (config has {ncolors})"
            )));
        }
        let attractor = take_u64(i)?;
        let id = arena.acquire(t)?;
        Ok((
            t,
            CoresetEntry {
                id,
                color,
                attractor,
            },
        ))
    })
    .map(|entries| entries.into_iter().collect())
}

// ---- per-guess codecs --------------------------------------------------

fn encode_guess(out: &mut Vec<u8>, g: &GuessState) {
    put_f64(out, g.gamma);
    encode_times(out, &g.av);
    encode_pairs(out, &g.rep_of);
    encode_times(out, &g.rv);
    encode_times(out, &g.a);
    encode_color_tables(out, &g.reps_c);
    encode_entries(out, &g.r);
}

/// A guess encodes at minimum its `γ` plus six length prefixes.
const GUESS_MIN_BYTES: usize = 56;

fn decode_guess<P>(
    input: &mut &[u8],
    arena: &mut Arena<P>,
    ncolors: usize,
) -> Result<GuessState, SnapshotError> {
    let mut g = GuessState::new(decode_gamma(input)?);
    g.av = decode_times(input, arena)?;
    g.rep_of = decode_pairs(input)?;
    g.rv = decode_times(input, arena)?;
    g.a = decode_times(input, arena)?;
    g.reps_c = decode_color_tables(input, ncolors)?;
    g.r = decode_entries(input, arena, ncolors)?;
    // Every live v-attractor owns a representative slot and every live
    // c-attractor a repsC table.
    require_keys(g.av.keys(), &g.rep_of, "live v-attractor")?;
    require_keys(g.a.keys(), &g.reps_c, "live c-attractor")?;
    Ok(g)
}

fn encode_guesses<G>(out: &mut Vec<u8>, guesses: &[G], encode: impl Fn(&mut Vec<u8>, &G)) {
    put_len(out, guesses.len());
    for g in guesses {
        encode(out, g);
    }
}

fn encode_compact_guess(out: &mut Vec<u8>, g: &CompactGuess) {
    put_f64(out, g.gamma);
    encode_times(out, &g.av);
    encode_color_tables(out, &g.reps_v);
    encode_entries(out, &g.rv);
}

fn decode_compact_guess<P>(
    input: &mut &[u8],
    arena: &mut Arena<P>,
    ncolors: usize,
) -> Result<CompactGuess, SnapshotError> {
    let mut g = CompactGuess::new(decode_gamma(input)?);
    g.av = decode_times(input, arena)?;
    g.reps_v = decode_color_tables(input, ncolors)?;
    g.rv = decode_entries(input, arena, ncolors)?;
    // Attractors and representative tables are born and retired
    // together.
    require_keys(g.av.keys(), &g.reps_v, "live v-attractor")?;
    if g.reps_v.len() != g.av.len() {
        return Err(invalid("representative table of a retired attractor"));
    }
    Ok(g)
}

fn encode_matroid_guess(out: &mut Vec<u8>, g: &MatroidGuess) {
    put_f64(out, g.gamma);
    encode_times(out, &g.av);
    encode_pairs(out, &g.rep_of);
    encode_times(out, &g.rv);
    encode_times(out, &g.a);
    encode_time_lists(out, &g.reps);
    encode_entries(out, &g.r);
}

fn decode_matroid_guess<P>(
    input: &mut &[u8],
    arena: &mut Arena<P>,
    ncolors: usize,
) -> Result<MatroidGuess, SnapshotError> {
    let mut g = MatroidGuess::new(decode_gamma(input)?);
    g.av = decode_times(input, arena)?;
    g.rep_of = decode_pairs(input)?;
    g.rv = decode_times(input, arena)?;
    g.a = decode_times(input, arena)?;
    g.reps = decode_time_lists(input)?;
    g.r = decode_entries(input, arena, ncolors)?;
    require_keys(g.av.keys(), &g.rep_of, "live v-attractor")?;
    require_keys(g.a.keys(), &g.reps, "live c-attractor")?;
    // The circuit-eviction path reads each tracked representative's
    // color out of R and evicts it from there. So each one sits in R
    // under its own attractor, once, and no older than that attractor:
    // expiry drops an attractor's list before any of its members.
    for (&ta, times) in &g.reps {
        let mut prev = None;
        for &t in times {
            check_increasing(&mut prev, t, "representative")?;
            if t < ta || g.r.get(&t).is_none_or(|e| e.attractor != ta) {
                return Err(invalid(format!(
                    "representative {t} of attractor {ta} disagrees with R"
                )));
            }
        }
    }
    Ok(g)
}

fn encode_matroid(out: &mut Vec<u8>, m: &AnyMatroid) {
    match m {
        AnyMatroid::Partition(p) => {
            out.push(0);
            put_len(out, p.capacities().len());
            for c in p.capacities() {
                put_u64(out, *c as u64);
            }
        }
        AnyMatroid::Laminar(l) => {
            out.push(1);
            put_len(out, l.groups().len());
            for g in l.groups() {
                put_len(out, g.colors.len());
                for c in &g.colors {
                    put_u32(out, *c);
                }
                put_u64(out, g.cap as u64);
            }
        }
        AnyMatroid::Uniform(u) => {
            out.push(2);
            put_u64(out, Matroid::<u32>::rank(u) as u64);
        }
    }
}

fn decode_matroid(input: &mut &[u8]) -> Result<AnyMatroid, SnapshotError> {
    let m: AnyMatroid = match take_u8(input)? {
        0 => {
            let caps = decode_list(input, 8, |i| take_u64(i).map(|c| c as usize))?;
            if caps.iter().map(|&c| c as u128).sum::<u128>() > MAX_BUDGET {
                return Err(invalid("absurd partition budget"));
            }
            PartitionMatroid::new(caps)
                .map_err(|e| invalid(e.to_string()))?
                .into()
        }
        1 => {
            let groups = decode_list(input, 16, |i| {
                let colors = decode_list(i, 4, take_u32)?;
                Ok(Group::new(colors, take_u64(i)? as usize))
            })?;
            LaminarMatroid::new(groups)
                .map_err(|e| invalid(e.to_string()))?
                .into()
        }
        2 => UniformMatroid::new(take_u64(input)? as usize).into(),
        tag => return Err(invalid(format!("unknown matroid tag {tag}"))),
    };
    // The constructor refuses rank 0 (no center could ever be chosen).
    if m.rank() == 0 || m.rank() as u128 > MAX_BUDGET {
        return Err(invalid(format!("matroid rank {}", m.rank())));
    }
    Ok(m)
}

// ---- oblivious estimator sections ----------------------------------------

fn encode_lattice_entries(out: &mut Vec<u8>, entries: impl ExactSizeIterator<Item = (u64, i32)>) {
    put_len(out, entries.len());
    for (t, level) in entries {
        put_u64(out, t);
        put_u32(out, level as u32);
    }
}

fn decode_lattice_entries(input: &mut &[u8]) -> Result<Vec<(u64, i32)>, SnapshotError> {
    decode_list(input, 12, |i| Ok((take_u64(i)?, take_i32(i)?)))
}

fn encode_anchor<P: PointCodec>(out: &mut Vec<u8>, anchor: &Option<AnchorState<P>>) {
    match anchor {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            a.anchor.encode(out);
            put_u64(out, a.since);
            encode_lattice_entries(out, a.maxima.iter().copied());
        }
    }
}

fn decode_anchor<P: PointCodec>(
    input: &mut &[u8],
) -> Result<Option<AnchorState<P>>, SnapshotError> {
    match take_u8(input)? {
        0 => Ok(None),
        1 => Ok(Some(AnchorState {
            anchor: P::decode(input)?,
            since: take_u64(input)?,
            maxima: decode_lattice_entries(input)?,
        })),
        tag => Err(invalid(format!("bad anchor tag {tag}"))),
    }
}

// ---- public API --------------------------------------------------------

impl<M: Metric> FairSlidingWindow<M>
where
    M::Point: PointCodec,
{
    /// Serializes the complete algorithm state (configuration included)
    /// into a self-contained byte buffer. Each live point payload is
    /// written once — the arena's deduplication carries over to the wire.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = FIXED_MAGIC.to_vec();
        encode_config(&mut out, &self.cfg);
        encode_arena(&mut out, self.t, &self.set.store);
        encode_guesses(&mut out, &self.set.guesses, encode_guess);
        out
    }

    /// Reconstructs a window from a snapshot produced by
    /// [`snapshot`](Self::snapshot). Only the metric must be re-supplied
    /// (a distance function is code, not data); everything else —
    /// configuration, arrival counter, the interned arena, every
    /// per-guess family — comes from the buffer.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = expect_magic(bytes, FIXED_MAGIC)?;
        let cfg = decode_config(&mut input)?;
        let mut arena = decode_arena(&mut input, cfg.window_size)?;
        let guesses = decode_list(&mut input, GUESS_MIN_BYTES, |i| {
            decode_guess(i, &mut arena, cfg.num_colors())
        })?;
        expect_end(input)?;
        Ok(FairSlidingWindow {
            metric,
            k: cfg.k(),
            lattice: Lattice::new(cfg.beta),
            cfg,
            set: GuessSet {
                guesses,
                store: arena.store,
            },
            t: arena.t,
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

impl<M: Metric> RobustFairSlidingWindow<M>
where
    M::Point: PointCodec,
{
    /// Serializes the complete state (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = ROBUST_MAGIC.to_vec();
        encode_config(&mut out, &self.cfg);
        put_u64(&mut out, self.z as u64);
        encode_arena(&mut out, self.t, &self.set.store);
        encode_guesses(&mut out, &self.set.guesses, encode_guess);
        out
    }

    /// Reconstructs a window from [`snapshot`](Self::snapshot) output;
    /// it starts sequential, like every restored window.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = expect_magic(bytes, ROBUST_MAGIC)?;
        let cfg = decode_config(&mut input)?;
        let z = take_u64(&mut input)?;
        if z as u128 > MAX_BUDGET {
            return Err(invalid(format!("absurd outlier budget {z}")));
        }
        let z = z as usize;
        let mut arena = decode_arena(&mut input, cfg.window_size)?;
        let guesses = decode_list(&mut input, GUESS_MIN_BYTES, |i| {
            decode_guess(i, &mut arena, cfg.num_colors())
        })?;
        expect_end(input)?;
        Ok(RobustFairSlidingWindow {
            metric,
            k: cfg.k(),
            z,
            inflated_caps: cfg.capacities.iter().map(|&c| c + z).collect(),
            cfg,
            set: GuessSet {
                guesses,
                store: arena.store,
            },
            t: arena.t,
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

impl<M: Metric> CompactFairSlidingWindow<M>
where
    M::Point: PointCodec,
{
    /// Serializes the complete state (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = COMPACT_MAGIC.to_vec();
        encode_config(&mut out, &self.cfg);
        encode_arena(&mut out, self.t, &self.set.store);
        encode_guesses(&mut out, &self.set.guesses, encode_compact_guess);
        out
    }

    /// Reconstructs a window from [`snapshot`](Self::snapshot) output;
    /// it starts sequential, like every restored window.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = expect_magic(bytes, COMPACT_MAGIC)?;
        let cfg = decode_config(&mut input)?;
        let mut arena = decode_arena(&mut input, cfg.window_size)?;
        // γ plus three length prefixes.
        let guesses = decode_list(&mut input, 32, |i| {
            decode_compact_guess(i, &mut arena, cfg.num_colors())
        })?;
        expect_end(input)?;
        Ok(CompactFairSlidingWindow {
            metric,
            k: cfg.k(),
            cfg,
            set: GuessSet {
                guesses,
                store: arena.store,
            },
            t: arena.t,
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

impl<M: Metric> ObliviousFairSlidingWindow<M>
where
    M::Point: PointCodec,
{
    /// Serializes the complete state (see [`crate::snapshot`]),
    /// including the materialized guess levels and both scale
    /// estimators.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = OBLIVIOUS_MAGIC.to_vec();
        encode_config(&mut out, &self.cfg);
        encode_arena(&mut out, self.t, &self.store);
        put_len(&mut out, self.guesses.len());
        for (&level, g) in &self.guesses {
            put_u32(&mut out, level as u32);
            put_u64(&mut out, g.born);
            encode_guess(&mut out, &g.state);
        }
        let diam = self.diam.state();
        encode_anchor(&mut out, &diam.prev);
        encode_anchor(&mut out, &diam.cur);
        encode_lattice_entries(&mut out, diam.consecutive.iter().copied());
        encode_lattice_entries(&mut out, self.consec_min.entries());
        match &self.last {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                put_u32(&mut out, p.color);
                p.point.encode(&mut out);
            }
        }
        out
    }

    /// Reconstructs a window from [`snapshot`](Self::snapshot) output;
    /// it starts sequential, like every restored window.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = expect_magic(bytes, OBLIVIOUS_MAGIC)?;
        let cfg = decode_config(&mut input)?;
        let n = cfg.window_size as u64;
        let lattice = Lattice::new(cfg.beta);
        let mut arena = decode_arena(&mut input, cfg.window_size)?;
        let t = arena.t;
        let mut prev_level = None;
        // Level, birth time, and a guess.
        let levels = decode_list(&mut input, 12 + GUESS_MIN_BYTES, |i| {
            let level = take_i32(i)?;
            let born = take_u64(i)?;
            let state = decode_guess(i, &mut arena, cfg.num_colors())?;
            // Levels ascend, and each guess is the lattice value of its
            // level — the range adjustment re-derives γ from the level.
            if prev_level.is_some_and(|p| level <= p)
                || level.unsigned_abs() > i32::MAX as u32 / 2
                || state.gamma.to_bits() != lattice.value(level).to_bits()
                || born > t
            {
                return Err(invalid(format!("inconsistent guess level {level}")));
            }
            prev_level = Some(level);
            Ok((level, BornGuess { state, born }))
        })?;
        let prev = decode_anchor(&mut input)?;
        let cur = decode_anchor(&mut input)?;
        let consecutive = decode_lattice_entries(&mut input)?;
        let floor = decode_lattice_entries(&mut input)?;
        let last = match take_u8(&mut input)? {
            0 => None,
            1 => {
                let color = take_u32(&mut input)?;
                if color as usize >= cfg.num_colors() {
                    return Err(invalid(format!("last point color {color} out of range")));
                }
                Some(Colored::new(M::Point::decode(&mut input)?, color))
            }
            tag => return Err(invalid(format!("bad last-point tag {tag}"))),
        };
        expect_end(input)?;
        let diam = DiameterEstimator::from_state(
            metric.clone(),
            lattice,
            n,
            DiameterState {
                prev,
                cur,
                consecutive,
                last_point: last.as_ref().map(|p| p.point.clone()),
                now: t,
            },
        )
        .map_err(invalid)?;
        let consec_min =
            WindowedMinLattice::from_entries(lattice, n.max(2) - 1, floor, t).map_err(invalid)?;
        Ok(ObliviousFairSlidingWindow {
            metric,
            k: cfg.k(),
            cfg,
            lattice,
            guesses: levels.into_iter().collect(),
            store: arena.store,
            diam,
            consec_min,
            last,
            t,
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

impl<M: Metric> MatroidSlidingWindow<M, AnyMatroid>
where
    M::Point: PointCodec,
{
    /// Serializes the complete state (see [`crate::snapshot`]),
    /// including the matroid constraint.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = MATROID_MAGIC.to_vec();
        put_u64(&mut out, self.window_size as u64);
        put_f64(&mut out, self.delta);
        encode_matroid(&mut out, &self.matroid);
        encode_arena(&mut out, self.t, &self.set.store);
        encode_guesses(&mut out, &self.set.guesses, encode_matroid_guess);
        out
    }

    /// Reconstructs a window from [`snapshot`](Self::snapshot) output;
    /// it starts sequential, like every restored window.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = expect_magic(bytes, MATROID_MAGIC)?;
        let window = take_u64(&mut input)?;
        check_window(window)?;
        let delta = take_f64(&mut input)?;
        if !(delta.is_finite() && delta > 0.0 && delta <= 4.0) {
            return Err(invalid(format!("bad delta {delta}")));
        }
        let matroid = decode_matroid(&mut input)?;
        let mut arena = decode_arena(&mut input, window as usize)?;
        // γ plus seven length prefixes.
        let guesses = decode_list(&mut input, 56, |i| {
            decode_matroid_guess(i, &mut arena, matroid.num_colors())
        })?;
        expect_end(input)?;
        Ok(MatroidSlidingWindow {
            metric,
            k: matroid.rank(),
            matroid,
            window_size: window as usize,
            delta,
            set: GuessSet {
                guesses,
                store: arena.store,
            },
            t: arena.t,
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SlidingWindowClustering;
    use crate::engine::{EngineBuilder, WindowEngine};
    use fairsw_metric::Euclidean;

    fn build(n_points: u64) -> FairSlidingWindow<Euclidean> {
        let cfg = FairSWConfig::builder()
            .window_size(60)
            .capacities(vec![2, 1])
            .beta(2.0)
            .delta(1.0)
            .build()
            .unwrap();
        let mut sw = FairSlidingWindow::new(cfg, Euclidean, 0.01, 1e4).unwrap();
        for i in 0..n_points {
            let x = (i as f64 * 0.618_033_988_7).fract() * 500.0;
            sw.insert(Colored::new(EuclidPoint::new(vec![x, -x]), (i % 2) as u32));
        }
        sw
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let sw = build(150);
        let bytes = sw.snapshot();
        let restored = FairSlidingWindow::restore(Euclidean, &bytes).unwrap();
        assert_eq!(restored.time(), sw.time());
        assert_eq!(restored.stored_points(), sw.stored_points());
        assert_eq!(restored.num_guesses(), sw.num_guesses());
        // The arena's deduplicated footprint survives the roundtrip.
        let (a, b) = (sw.memory_stats(), restored.memory_stats());
        assert_eq!(a.unique_points, b.unique_points);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        restored.check_invariants().unwrap();
        let a = sw.query().unwrap();
        let b = restored.query().unwrap();
        assert_eq!(a.guess, b.guess);
        assert_eq!(a.coreset_size, b.coreset_size);
        assert!((a.coreset_radius - b.coreset_radius).abs() < 1e-12);
        // Canonical encoding: the restored state re-encodes identically.
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn restored_window_evolves_identically() {
        let mut original = build(100);
        let bytes = original.snapshot();
        let mut restored = FairSlidingWindow::restore(Euclidean, &bytes).unwrap();
        // Continue both with the same suffix; behavior must stay in
        // lockstep (expiry, cleanup, evictions, arena reclaim are all
        // deterministic).
        for i in 100u64..260 {
            let x = (i as f64 * 0.324_717_957_2).fract() * 500.0;
            let p = Colored::new(EuclidPoint::new(vec![x, x * 2.0]), (i % 2) as u32);
            original.insert(p.clone());
            restored.insert(p);
        }
        assert_eq!(original.stored_points(), restored.stored_points());
        assert_eq!(
            original.memory_stats().unique_points,
            restored.memory_stats().unique_points
        );
        let a = original.query().unwrap();
        let b = restored.query().unwrap();
        assert_eq!(a.guess, b.guess);
        assert!((a.coreset_radius - b.coreset_radius).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_compact() {
        let sw = build(3_000);
        let bytes = sw.snapshot();
        // Interned format: every payload once plus 8-byte times per
        // entry — far below one payload per entry, let alone the raw
        // window.
        let per_entry = bytes.len() as f64 / sw.stored_points().max(1) as f64;
        assert!(per_entry < 64.0, "snapshot too fat: {per_entry} B/entry");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"np"),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"nope"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"XXXXYYYYZZZZ"),
            Err(SnapshotError::BadMagic)
        ));
        // The v1 (pre-arena) tag is refused, not misparsed.
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"FSW1AAAABBBBCCCC"),
            Err(SnapshotError::BadMagic)
        ));
        let sw = build(50);
        let mut bytes = sw.snapshot();
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes),
            Err(SnapshotError::Truncated) | Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let sw = build(50);
        let mut bytes = sw.snapshot();
        bytes.extend_from_slice(b"extra");
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn a_variant_refuses_another_variants_bytes() {
        let fixed = build(50).snapshot();
        assert!(matches!(
            RobustFairSlidingWindow::<Euclidean>::restore(Euclidean, &fixed),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            ObliviousFairSlidingWindow::<Euclidean>::restore(Euclidean, &fixed),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn store_outside_the_window_is_refused() {
        // Move the clock a full window past the stored points: the
        // arena would hold expired payloads the next sweep frees while
        // still referenced.
        let mut bytes = build(150).snapshot();
        let t = u64::from_le_bytes(bytes[52..60].try_into().unwrap());
        bytes[52..60].copy_from_slice(&(t + 60).to_le_bytes());
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    fn cp(i: u64, dim: usize) -> Colored<EuclidPoint> {
        let coords: Vec<f64> = (0..dim)
            .map(|d| ((i * dim as u64 + d as u64) as f64 * 0.618_033_988_7).fract() * 300.0)
            .collect();
        Colored::new(EuclidPoint::new(coords), (i % 2) as u32)
    }

    /// One snapshot per layout, plus where its arena count sits.
    struct Sample {
        name: &'static str,
        bytes: Vec<u8>,
        /// Input dimension of the engine (a projecting one is wider).
        dim: usize,
        /// Byte offset of the arena's point count.
        arena_count_at: usize,
        time: u64,
    }

    /// Rich snapshots of every layout, built once: multiple guesses, a
    /// slid window, a projection header and two matroid constraints.
    fn samples() -> &'static [Sample] {
        static SAMPLES: std::sync::OnceLock<Vec<Sample>> = std::sync::OnceLock::new();
        SAMPLES.get_or_init(|| {
            let base = || EngineBuilder::new().window_size(40).capacities(vec![2, 1]);
            let laminar: AnyMatroid =
                LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![0, 1], 2)])
                    .unwrap()
                    .into();
            let partition: AnyMatroid = PartitionMatroid::new(vec![2, 1]).unwrap().into();
            // Magic, then the config (window, count, two caps, β, δ).
            let config = 4 + 8 + 8 + 16 + 16;
            let matroid_head = |m: &AnyMatroid| {
                let mut enc = Vec::new();
                encode_matroid(&mut enc, m);
                4 + 8 + 8 + enc.len()
            };
            let engines: Vec<(&str, WindowEngine<Euclidean>, usize, usize)> = vec![
                (
                    "fixed",
                    base().fixed(0.01, 1e4).build(Euclidean).unwrap(),
                    2,
                    config,
                ),
                (
                    "fixed-projected",
                    base()
                        .fixed(0.01, 1e4)
                        .project_sparse(3, 7)
                        .build(Euclidean)
                        .unwrap(),
                    6,
                    21 + config,
                ),
                (
                    "robust",
                    base().robust(2, 0.01, 1e4).build(Euclidean).unwrap(),
                    2,
                    config + 8,
                ),
                (
                    "compact",
                    base().compact(0.01, 1e4).build(Euclidean).unwrap(),
                    2,
                    config,
                ),
                (
                    "oblivious",
                    base().oblivious().build(Euclidean).unwrap(),
                    2,
                    config,
                ),
                (
                    "matroid-partition",
                    base()
                        .matroid(partition.clone(), 0.01, 1e4)
                        .build(Euclidean)
                        .unwrap(),
                    2,
                    matroid_head(&partition),
                ),
                (
                    "matroid-laminar",
                    base()
                        .matroid(laminar.clone(), 0.01, 1e4)
                        .build(Euclidean)
                        .unwrap(),
                    2,
                    matroid_head(&laminar),
                ),
            ];
            engines
                .into_iter()
                .map(|(name, mut e, dim, at)| {
                    e.insert_batch((0..130).map(|i| cp(i, dim)));
                    Sample {
                        name,
                        bytes: e.snapshot().expect("every variant snapshots"),
                        dim,
                        arena_count_at: at + 8,
                        time: e.time(),
                    }
                })
                .collect()
        })
    }

    #[test]
    fn every_layout_roundtrips_canonically() {
        for s in samples() {
            let e = WindowEngine::restore(Euclidean, &s.bytes).unwrap();
            assert_eq!(e.time(), s.time, "{}", s.name);
            e.check_invariants().unwrap();
            assert_eq!(
                e.snapshot().unwrap(),
                s.bytes,
                "{}: re-encode differs",
                s.name
            );
        }
    }

    mod decoder_robustness {
        //! Property battery over the decoder's failure surface, for every
        //! layout: random truncations and random single-byte corruptions
        //! of a valid snapshot must always come back as
        //! `Err(SnapshotError::..)` — never a panic, and never an
        //! allocation sized by a corrupt length prefix (`take_count`
        //! rejects counts the buffer cannot hold *before* any
        //! `with_capacity`, so a malicious few-byte buffer cannot request
        //! gigabytes; a run that violated this would abort or time out
        //! loudly here).

        use super::*;
        use proptest::prelude::*;

        /// Flips `xor` into byte `pos` of `s`. The decode must return —
        /// corrupt magic, lengths, times, gammas, colors, levels, ranks
        /// all surface as Err; a flipped coordinate bit may legitimately
        /// decode. When it does decode, the restored window must be fully
        /// operational (queryable, then streaming and queryable again),
        /// not a structure with dangling handles. A flipped input
        /// dimension in a projection header is another valid projection:
        /// that engine takes points of the width it names, which can be
        /// huge, so it is only queried.
        fn corrupt_decodes_to_a_working_window(
            s: &Sample,
            pos: usize,
            xor: u8,
        ) -> Result<(), TestCaseError> {
            let mut bytes = s.bytes.clone();
            bytes[pos] ^= xor;
            if let Ok(mut e) = WindowEngine::<Euclidean>::restore(Euclidean, &bytes) {
                prop_assert!(
                    e.query().is_ok(),
                    "{}: byte {pos} ^ {xor} decoded but not queryable",
                    s.name
                );
                if e.projection().is_none_or(|p| p.in_dim() == Some(s.dim)) {
                    e.insert_batch((1000..1008).map(|i| cp(i, s.dim)));
                    prop_assert!(e.query().is_ok(), "{}: byte {pos} ^ {xor}", s.name);
                }
            }
            Ok(())
        }

        /// Headers are a few dozen bytes of a snapshot thousands long, so
        /// random positions rarely land there: walk them all.
        #[test]
        fn every_header_byte_corruption_is_refused_or_harmless() {
            for s in samples() {
                for pos in 0..s.arena_count_at + 8 {
                    for xor in [0x01, 0x02, 0x80, 0xff] {
                        corrupt_decodes_to_a_working_window(s, pos, xor).unwrap();
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn any_truncation_is_an_error(frac in 0.0..1.0f64) {
                for s in samples() {
                    // Every strict prefix, including the empty one.
                    let cut = ((s.bytes.len() as f64) * frac) as usize % s.bytes.len();
                    let result = WindowEngine::<Euclidean>::restore(Euclidean, &s.bytes[..cut]);
                    prop_assert!(
                        result.is_err(),
                        "{}: truncation to {cut}/{} bytes decoded",
                        s.name,
                        s.bytes.len()
                    );
                }
            }

            #[test]
            fn single_byte_corruption_never_panics_and_stays_structural(
                frac in 0.0..1.0f64,
                xor in 1u8..255,
            ) {
                for s in samples() {
                    let pos = ((s.bytes.len() as f64) * frac) as usize % s.bytes.len();
                    corrupt_decodes_to_a_working_window(s, pos, xor)?;
                }
            }

            #[test]
            fn corrupt_store_count_is_refused_before_allocating(
                count in 0u64..u64::MAX,
            ) {
                // Surgical corruption of the arena's point count. Counts
                // the buffer cannot hold must be rejected by the
                // pre-allocation guard.
                for s in samples() {
                    let at = s.arena_count_at;
                    let mut evil = s.bytes.clone();
                    evil[at..at + 8].copy_from_slice(&count.to_le_bytes());
                    let result = WindowEngine::<Euclidean>::restore(Euclidean, &evil);
                    if count as u128 * 16 > (s.bytes.len() - at - 8) as u128 {
                        prop_assert!(result.is_err(), "{}: absurd count {count} accepted", s.name);
                    }
                }
            }
        }
    }

    #[test]
    fn inconsistent_tables_are_refused() {
        // An oblivious level whose γ is not its lattice value, a compact
        // attractor without its representative table, and matroid
        // representative lists that disagree with R (a time outside R,
        // one filed under another attractor, a duplicate) all decode
        // field-by-field but must not restore.
        let mut obl = ObliviousFairSlidingWindow::new(
            FairSWConfig::builder()
                .window_size(30)
                .capacities(vec![1, 1])
                .build()
                .unwrap(),
            Euclidean,
        )
        .unwrap();
        for i in 0..60 {
            obl.insert(cp(i, 2));
        }
        let mut bad = obl.clone();
        let (_, g) = bad.guesses.iter_mut().next().unwrap();
        g.state.gamma *= 1.5;
        assert!(matches!(
            ObliviousFairSlidingWindow::<Euclidean>::restore(Euclidean, &bad.snapshot()),
            Err(SnapshotError::Invalid(_))
        ));
        let mut compact =
            CompactFairSlidingWindow::new(obl.cfg.clone(), Euclidean, 0.01, 1e4).unwrap();
        for i in 0..60 {
            compact.insert(cp(i, 2));
        }
        let g = compact
            .set
            .guesses
            .iter_mut()
            .find(|g| !g.av.is_empty())
            .unwrap();
        let key = *g.av.keys().next().unwrap();
        g.reps_v.remove(&key);
        assert!(matches!(
            CompactFairSlidingWindow::<Euclidean>::restore(Euclidean, &compact.snapshot()),
            Err(SnapshotError::Invalid(_))
        ));
        let mut matroid = MatroidSlidingWindow::new(
            Euclidean,
            AnyMatroid::from(PartitionMatroid::new(vec![1, 1]).unwrap()),
            30,
            2.0,
            1.0,
            0.01,
            1e4,
        )
        .unwrap();
        for i in 0..60 {
            matroid.insert(cp(i, 2));
        }
        type Mw = MatroidSlidingWindow<Euclidean, AnyMatroid>;
        type Reps = HashMap<u64, Vec<u64>>;
        let corrupt = |edit: fn(&mut Reps)| {
            let mut bad = matroid.clone();
            let g = bad.set.guesses.iter_mut().find(|g| g.reps.len() >= 2);
            edit(&mut g.expect("two attractors with representatives").reps);
            Mw::restore(Euclidean, &bad.snapshot())
        };
        fn oldest(reps: &mut Reps) -> &mut Vec<u64> {
            let a = *reps.keys().min().unwrap();
            reps.get_mut(&a).unwrap()
        }
        let outside_r: fn(&mut Reps) = |reps| oldest(reps).push(u64::MAX);
        let misfiled: fn(&mut Reps) = |reps| {
            let b = *reps.keys().max().unwrap();
            let moved = reps.get_mut(&b).unwrap().pop().unwrap();
            oldest(reps).push(moved);
        };
        let duplicate: fn(&mut Reps) = |reps| {
            let list = oldest(reps);
            list.push(*list.last().unwrap());
        };
        assert!(Mw::restore(Euclidean, &matroid.snapshot()).is_ok());
        for edit in [outside_r, misfiled, duplicate] {
            assert!(matches!(corrupt(edit), Err(SnapshotError::Invalid(_))));
        }
        // A rank-0 constraint could never answer: refused up front.
        assert!(Mw::new(
            Euclidean,
            UniformMatroid::new(0).into(),
            30,
            2.0,
            1.0,
            0.01,
            1e4
        )
        .is_err());
    }

    #[test]
    fn point_codec_roundtrip() {
        let p = EuclidPoint::new(vec![1.5, -2.25, 1e-300, f64::MAX]);
        let mut out = Vec::new();
        p.encode(&mut out);
        let mut input = out.as_slice();
        let q = EuclidPoint::decode(&mut input).unwrap();
        assert_eq!(p, q);
        assert!(input.is_empty());
    }
}
