//! Experiment C6: the three mxm kernels of §II.A — Gustavson, dot
//! product, and heap — unmasked and with a sparse mask (where the masked
//! dot method is the triangle-counting winner).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use graphblas::semiring::PLUS_TIMES;
use lagraph::gen::random_matrix;
use lagraph_bench::criterion_config;

fn bench(c: &mut Criterion) {
    let n = 1 << 10;
    let a = random_matrix(n, n, 16 * n, 1).expect("a");
    let b = random_matrix(n, n, 16 * n, 2).expect("b");
    let sparse_mask = random_matrix(n, n, 2 * n, 3).expect("mask").pattern();

    let mut group = c.benchmark_group("mxm_methods");
    for (name, method) in [("gustavson", MxmMethod::Gustavson), ("heap", MxmMethod::Heap)] {
        group.bench_function(BenchmarkId::new(name, "unmasked"), |bencher| {
            bencher.iter(|| {
                let mut c = Matrix::<f64>::new(n, n).expect("c");
                mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &b, &Descriptor::new().method(method))
                    .expect("mxm");
                c.nvals()
            })
        });
    }
    // All three with a sparse mask: the regime where dot shines.
    for (name, method) in
        [("gustavson", MxmMethod::Gustavson), ("dot", MxmMethod::Dot), ("heap", MxmMethod::Heap)]
    {
        group.bench_function(BenchmarkId::new(name, "sparse_mask"), |bencher| {
            bencher.iter(|| {
                let mut c = Matrix::<f64>::new(n, n).expect("c");
                mxm(
                    &mut c,
                    Some(&sparse_mask),
                    NOACC,
                    &PLUS_TIMES,
                    &a,
                    &b,
                    &Descriptor::new().method(method).structural(),
                )
                .expect("mxm");
                c.nvals()
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
