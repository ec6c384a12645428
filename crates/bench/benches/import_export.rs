//! Experiment C2: the §IV claim that move-style import/export is O(1)
//! while `extractTuples` is Ω(e): export+import round-trip time should be
//! flat across e, tuple extraction should grow linearly.

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph::gen::random_matrix;
use lagraph_bench::criterion_config;

fn bench(c: &mut Criterion) {
    let n: Index = 1 << 12;
    let mut group = c.benchmark_group("import_export");
    for e in [10_000usize, 40_000, 160_000] {
        let m = random_matrix(n, n, e, 5).expect("matrix");
        m.wait();
        group.bench_with_input(BenchmarkId::new("export_import_o1", e), &m, |bencher, m| {
            bencher.iter_batched(
                || m.clone(),
                |m| {
                    let (nr, nc, p, i, x) = m.export_csr();
                    Matrix::import_csr(nr, nc, p, i, x).expect("import").nrows()
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("extract_tuples_oe", e), &m, |bencher, m| {
            bencher.iter(|| m.extract_tuples().len())
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
