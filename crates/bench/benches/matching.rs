//! Criterion micro-benchmarks for the matching substrate (the inner loop
//! of both sequential solvers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairsw_matching::{max_bipartite_matching, max_capacitated_matching, prefix_thresholds};
use std::hint::black_box;

/// Deterministic pseudo-random bipartite graph.
fn graph(n_left: usize, n_right: usize, avg_degree: usize) -> Vec<Vec<usize>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    (0..n_left)
        .map(|_| {
            let mut nb: Vec<usize> = (0..avg_degree).map(|_| next() % n_right).collect();
            nb.sort_unstable();
            nb.dedup();
            nb
        })
        .collect()
}

fn bench_hopcroft_karp(c: &mut Criterion) {
    let mut group = c.benchmark_group("hopcroft_karp");
    for n in [50usize, 200, 800] {
        let adj = graph(n, n, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(max_bipartite_matching(n, n, &adj)))
        });
    }
    group.finish();
}

fn bench_capacitated(c: &mut Criterion) {
    let mut group = c.benchmark_group("capacitated");
    // The solver-shaped instance: `k` heads vs 7 colors with budgets.
    for k in [14usize, 28, 56] {
        let caps = vec![k / 7; 7];
        let adj = graph(k, 7, 4);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(max_capacitated_matching(&caps, &adj)))
        });
    }
    group.finish();
}

fn bench_prefix_thresholds(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_thresholds");
    // The same instance, each edge weighted: the thresholds of every
    // pivot prefix, as `Jones` asks for them.
    for k in [14usize, 28, 56] {
        let caps = vec![k / 7; 7];
        let mut weights = vec![f64::INFINITY; k * 7];
        for (v, nb) in graph(k, 7, 4).iter().enumerate() {
            for &c in nb {
                weights[v * 7 + c] = ((v * 31 + c * 17) % 101) as f64;
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(prefix_thresholds(&caps, k, |v, c| weights[v * 7 + c])))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hopcroft_karp,
    bench_capacitated,
    bench_prefix_thresholds
);
criterion_main!(benches);
