//! Workload inputs. Everything the benchmark sends is made here from the
//! `--seed` argument alone: tenant configurations, point streams and the
//! open-loop request schedule. The same seed gives byte-identical inputs.

use fairsw_datasets::rng::{seeded, SeededRng};
use fairsw_datasets::{
    blobs, covtype_like, embedding_drift, higgs_like, phones_like, BlobsParams, Dataset,
    EmbeddingDriftParams,
};
use fairsw_metric::{sampled_extremes, Colored, EuclidPoint, Euclidean, Projectable, Projector};
use fairsw_serve::protocol::{TenantConfig, WireVariant};

/// The paper's budget: Σ kᵢ = 14, split by color frequency.
pub const TOTAL_K: usize = 14;
/// Window length of every tenant.
pub const WINDOW: usize = 5000;
/// Window of `query_cold`'s robust tenant: its cold recompute grows
/// steeply with the window (about 40 ms at 500 points of blobs, 5 s at
/// 5000), and a run needs a few hundred of them.
pub const ROBUST_WINDOW: usize = 500;
/// Seed of the fixed recordings every workload replays.
const DATA_SEED: u64 = 0x5eed_f1ce;
/// Pairs sampled to bracket a stream's distance scale.
const EXTREMES_SAMPLE: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestWal,
    QueryCold,
    ReadMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::IngestWal, Workload::QueryCold, Workload::ReadMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestWal => "ingest_wal",
            Workload::QueryCold => "query_cold",
            Workload::ReadMix => "read_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A tenant's variant, with the JL-projecting fixed tenant kept apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Fixed,
    Oblivious,
    Compact,
    Robust,
    Matroid,
    FixedJl,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Fixed,
        Class::Oblivious,
        Class::Compact,
        Class::Robust,
        Class::Matroid,
        Class::FixedJl,
    ];
    /// The five variants the paper defines (the JL tenant is `fixed`).
    pub const VARIANTS: [Class; 5] = [
        Class::Fixed,
        Class::Oblivious,
        Class::Compact,
        Class::Robust,
        Class::Matroid,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Fixed => "fixed",
            Class::Oblivious => "oblivious",
            Class::Compact => "compact",
            Class::Robust => "robust",
            Class::Matroid => "matroid",
            Class::FixedJl => "fixed_jl",
        }
    }

    /// The variant whose query path the class exercises.
    pub fn variant(self) -> Class {
        match self {
            Class::FixedJl => Class::Fixed,
            c => c,
        }
    }
}

/// One tenant: its configuration and a fixed recording replayed
/// cyclically from a seed-chosen offset. The recording is longer than a
/// window, so no point repeats inside one.
pub struct Tenant {
    pub name: String,
    pub class: Class,
    pub config: TenantConfig,
    base: Vec<Colored<EuclidPoint>>,
    offset: usize,
}

impl Tenant {
    /// Stream positions `start..start + len`.
    pub fn points(&self, start: usize, len: usize) -> Vec<Colored<EuclidPoint>> {
        let n = self.base.len();
        (start..start + len)
            .map(|i| self.base[(self.offset + i) % n].clone())
            .collect()
    }

    /// The projector the server builds for this tenant, if it projects.
    pub fn projector(&self) -> Option<Projector> {
        let spec = self.config.projection?;
        let in_dim = self.base[0].point.dim();
        Some(if spec.sparse {
            Projector::sparse(in_dim, spec.out_dim, spec.seed)
        } else {
            Projector::dense(in_dim, spec.out_dim, spec.seed)
        })
    }
}

/// Everything one workload sends.
pub struct Inputs {
    pub workload: Workload,
    pub tenants: Vec<Tenant>,
    /// Points per tenant loaded during set-up.
    pub prefill: usize,
    /// `INSERT_BATCH` size of the timed phase.
    pub batch: usize,
}

/// Derives the `i`-th independent sub-seed of `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut rng = seeded(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

fn tenant(name: &str, class: Class, data: Dataset, project: Option<(usize, u64)>) -> Tenant {
    let caps = fairsw_bench::caps_for(&data, TOTAL_K);
    // Scale bounds come from the points the engine will hold: projected
    // ones for a projecting tenant.
    let held: Vec<EuclidPoint> = match project {
        Some((out_dim, seed)) => {
            let pr = Projector::dense(data.dim(), out_dim, seed);
            data.points
                .iter()
                .map(|p| p.point.project_with(&pr))
                .collect()
        }
        None => data.points.iter().map(|p| p.point.clone()).collect(),
    };
    let ext = sampled_extremes(&Euclidean, &held, EXTREMES_SAMPLE)
        .expect("stream has two distinct points");
    let (dmin, dmax) = (ext.dmin, ext.dmax);
    let variant = match class {
        Class::Fixed | Class::FixedJl => WireVariant::Fixed { dmin, dmax },
        Class::Oblivious => WireVariant::Oblivious,
        Class::Compact => WireVariant::Compact { dmin, dmax },
        Class::Robust => WireVariant::Robust { z: 10, dmin, dmax },
        Class::Matroid => WireVariant::Matroid { dmin, dmax },
    };
    let mut config = TenantConfig::new(WINDOW, caps, variant);
    if let Some((out_dim, seed)) = project {
        config = config.with_projection(out_dim, seed, false);
    }
    Tenant {
        name: name.to_string(),
        class,
        config,
        base: data.points,
        offset: 0,
    }
}

/// Builds the inputs of `workload` for `seed`.
///
/// Each tenant replays a fixed recording (generated from
/// [`DATA_SEED`]); `seed` picks where in it each tenant starts and, for
/// `read_mix`, the request sequence. New recordings per seed would move
/// every figure with the data: the generators' scales differ widely from
/// one recording to the next, and with them the guess lattices, coreset
/// sizes and flush costs.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let data = |i: u64| sub_seed(DATA_SEED, i);
    let mut inp = match workload {
        Workload::IngestWal => {
            const BASE: usize = 16_384;
            let embed = embedding_drift(BASE, 256, EmbeddingDriftParams::default(), data(3));
            Inputs {
                workload,
                // Connection `c` drives tenants `c` and `c + 2`; the
                // `-1`/`-2` name suffixes put each connection's pair on
                // its own shard under the server's FNV-1a name hash, so
                // the two closed loops do not queue behind each other.
                tenants: vec![
                    tenant(
                        "cov-fixed-1",
                        Class::Fixed,
                        covtype_like(BASE, data(0)),
                        None,
                    ),
                    tenant(
                        "higgs-oblivious-2",
                        Class::Oblivious,
                        higgs_like(BASE, data(1)),
                        None,
                    ),
                    tenant(
                        "phones-compact-1",
                        Class::Compact,
                        phones_like(BASE, data(2)),
                        None,
                    ),
                    tenant(
                        "embed-fixed-jl-2",
                        Class::FixedJl,
                        embed,
                        Some((32, data(4))),
                    ),
                ],
                prefill: 2 * WINDOW,
                batch: 128,
            }
        }
        Workload::QueryCold => {
            const BASE: usize = 32_768;
            let tenants = Class::VARIANTS
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let mut t = tenant(
                        &format!("blobs-{}", c.label()),
                        c,
                        blobs3(BASE, data(10 + i as u64)),
                        None,
                    );
                    if c == Class::Robust {
                        t.config.window = ROBUST_WINDOW;
                    }
                    t
                })
                .collect();
            Inputs {
                workload,
                tenants,
                prefill: 2 * WINDOW,
                batch: 16,
            }
        }
        Workload::ReadMix => {
            // Barely longer than a window, so every window holds nearly
            // the whole recording wherever the seed starts it: the
            // flushes and recomputes a pipelined read waits behind cost
            // about the same for every seed.
            const BASE: usize = WINDOW + WINDOW / 50;
            // No matroid (nor robust) tenant: replies on the one pipelined
            // connection come back in order, so every cache hit queued
            // behind a 5 ms matroid recompute waited for it. A quarter
            // of all replies did, which put the p50 on the knee between
            // hits and blocked replies and made it swing from run to run.
            let classes = [Class::Fixed, Class::Oblivious, Class::Compact];
            let tenants = (0..8)
                .map(|i| {
                    let c = classes[i % classes.len()];
                    let name = format!("phones-{}-{i}", c.label());
                    tenant(&name, c, phones_like(BASE, data(20 + i as u64)), None)
                })
                .collect();
            Inputs {
                workload,
                tenants,
                prefill: 2 * WINDOW,
                batch: 32,
            }
        }
    };
    for (i, t) in inp.tenants.iter_mut().enumerate() {
        t.offset = (sub_seed(seed, i as u64) % t.base.len() as u64) as usize;
    }
    inp
}

/// The paper's `blobs` data (§4.3) in three dimensions with seven
/// colors: a stationary mixture, so every window costs about the same
/// to query cold. (On a phones-like random walk the robust and matroid
/// recomputes swing tenfold from one window to the next.)
fn blobs3(n: usize, seed: u64) -> Dataset {
    blobs(n, 3, BlobsParams::default(), seed)
}

/// One request of the open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query {
        tenant: usize,
    },
    Insert {
        tenant: usize,
        start: usize,
        len: usize,
    },
}

/// Every this-many-th `read_mix` request is an `INSERT_BATCH` (5%).
pub const MIX_INSERT_EVERY: usize = 20;

/// The `read_mix` request sequence: `count` operations, 95% `QUERY` and
/// 5% `INSERT_BATCH`, tenants Zipf(1) (tenant `i` with weight `1/(i+1)`).
/// Query tenants are drawn at random. Inserts are evenly spaced, one in
/// every [`MIX_INSERT_EVERY`], and take their tenants in a smooth
/// weighted round robin over the same weights. The flushes and cache
/// misses that replies queue behind then cost about the same every
/// second, instead of bunching up where a random draw put several. The
/// seed picks the insert phase and where the round robin starts.
/// Inserts continue each tenant's stream after the pre-fill.
pub fn mix_schedule(inputs: &Inputs, count: usize, seed: u64) -> Vec<Op> {
    let n = inputs.tenants.len();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut next = vec![inputs.prefill; n];
    let mut rng: SeededRng = seeded(sub_seed(seed, 99));
    let mut credit = vec![0.0; n];
    let mut round_robin = || {
        for (c, w) in credit.iter_mut().zip(&weights) {
            *c += w;
        }
        let pick = (0..n)
            .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
            .expect("read_mix has tenants");
        credit[pick] -= total;
        pick
    };
    for _ in 0..rng.random_range(0..1000usize) {
        round_robin();
    }
    let phase = rng.random_range(0..MIX_INSERT_EVERY);
    (0..count)
        .map(|k| {
            if k % MIX_INSERT_EVERY == phase {
                let tenant = round_robin();
                let start = next[tenant];
                next[tenant] += inputs.batch;
                return Op::Insert {
                    tenant,
                    start,
                    len: inputs.batch,
                };
            }
            let mut u = rng.random::<f64>() * total;
            let tenant = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(n - 1);
            Op::Query { tenant }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_serve::protocol::Request;

    /// Every byte the workload would put on the wire for a given seed.
    fn wire_bytes(w: Workload, seed: u64) -> Vec<u8> {
        let inp = inputs(w, seed);
        let mut out = Vec::new();
        for t in &inp.tenants {
            let create = Request::Create {
                tenant: t.name.clone(),
                config: t.config.clone(),
            };
            out.extend(create.encode().unwrap());
            let batch = Request::InsertBatch {
                tenant: t.name.clone(),
                points: t.points(0, 3 * WINDOW),
            };
            out.extend(batch.encode().unwrap());
        }
        if w == Workload::ReadMix {
            for op in mix_schedule(&inp, 2000, seed) {
                out.extend(format!("{op:?}").bytes());
            }
        }
        out
    }

    #[test]
    fn inputs_are_byte_identical_per_seed() {
        for w in Workload::ALL {
            let a = wire_bytes(w, 7);
            assert_eq!(a, wire_bytes(w, 7), "{}", w.name());
            assert_ne!(a, wire_bytes(w, 8), "{}: the seed must matter", w.name());
        }
    }

    #[test]
    fn mix_is_mostly_queries_and_skewed() {
        let inp = inputs(Workload::ReadMix, 1);
        let ops = mix_schedule(&inp, 20_000, 1);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, Op::Insert { .. }))
            .count();
        assert!((600..1400).contains(&inserts), "{inserts} inserts");
        let to = |t| {
            ops.iter()
                .filter(|o| matches!(o, Op::Query { tenant } if *tenant == t))
                .count()
        };
        assert!(to(0) > 3 * to(7), "Zipf skew: {} vs {}", to(0), to(7));
    }

    #[test]
    fn caps_follow_the_paper_rule() {
        for w in Workload::ALL {
            for t in inputs(w, 3).tenants {
                assert_eq!(t.config.caps.iter().sum::<usize>(), TOTAL_K, "{}", t.name);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
