//! Experiment C8: hypersparse storage — §II.A's claim that with the
//! hypersparse form "matrices with enormous dimensions can be created" in
//! O(e) space and operated on. We build matrices with e = 10k entries at
//! dimensions from 2¹² up to 2⁴⁰ and time construction, reduction, and
//! transposition: cost must track e, not n.

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph_bench::{criterion_config, random_tuples};

fn bench(c: &mut Criterion) {
    let e = 10_000usize;
    let mut group = c.benchmark_group("hypersparse");
    for log_n in [12u32, 24, 40] {
        let n: Index = 1 << log_n;
        let t = random_tuples(n, e, 3);
        group.bench_with_input(BenchmarkId::new("build_10k", log_n), &t, |bencher, t| {
            bencher.iter(|| Matrix::from_tuples(n, n, t.clone(), |_, b| b).expect("build").nvals())
        });
        let m = Matrix::from_tuples(n, n, t.clone(), |_, b| b).expect("build");
        m.wait();
        group.bench_with_input(BenchmarkId::new("reduce_scalar", log_n), &m, |bencher, m| {
            bencher.iter(|| reduce_matrix_scalar(&binaryop::Plus, m))
        });
        group.bench_with_input(BenchmarkId::new("transpose", log_n), &m, |bencher, m| {
            bencher.iter(|| transpose_new(m).expect("transpose").nvals())
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
