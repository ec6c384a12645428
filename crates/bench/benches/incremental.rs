//! Experiment C1: the pending-tuples claim of §II.A — "it is just as fast
//! to use a sequence of e GrB_Matrix_setElement operations to build a
//! matrix, as it is to create an array of e tuples and use
//! GrB_Matrix_build" — because set_element defers to pending tuples and
//! assembly is one O(n + e + p log p) step. The naive comparator (eager
//! insertion into sorted storage) shows the O(e·n) cliff being avoided.

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph_bench::{criterion_config, random_tuples};

fn bench(c: &mut Criterion) {
    let n: Index = 1 << 14;
    let mut group = c.benchmark_group("incremental_build");
    for e in [10_000usize, 100_000] {
        let tuples = random_tuples(n, e, 9);
        group.bench_with_input(BenchmarkId::new("build", e), &tuples, |bencher, tuples| {
            bencher.iter(|| {
                let m = Matrix::from_tuples(n, n, tuples.clone(), |_, b| b).expect("build");
                m.nvals()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("set_element_x_e", e),
            &tuples,
            |bencher, tuples| {
                bencher.iter(|| {
                    let mut m = Matrix::<f64>::new(n, n).expect("new");
                    for &(i, j, x) in tuples {
                        m.set_element(i, j, x).expect("set");
                    }
                    m.nvals() // forces the single assembly
                })
            },
        );
        // The strawman the zombies/pending design avoids: assemble after
        // every insertion (bounded to a slice to keep the bench finite).
        let slice = &tuples[..(e / 50)];
        group.bench_with_input(
            BenchmarkId::new("eager_per_element", slice.len()),
            &slice,
            |bencher, slice| {
                bencher.iter(|| {
                    let mut m = Matrix::<f64>::new(n, n).expect("new");
                    for &(i, j, x) in *slice {
                        m.set_element(i, j, x).expect("set");
                        m.wait(); // defeat the non-blocking mode
                    }
                    m.nvals()
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
