//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * dual (push/pull) storage on vs off for BFS — the memory-for-speed
//!   trade GraphBLAST gates behind an environment variable (§II.E);
//! * the non-blocking pending-tuple machinery vs eager assembly for an
//!   incremental update stream;
//! * reading through the lazy-assembly path when nothing is pending
//!   (the cost of opacity should be ~zero).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph::bfs_level_matrix;
use lagraph::gen::{rmat, RmatConfig};
use lagraph_bench::{criterion_config, profile_once, report_run};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");

    // Dual storage on/off: identical BFS, with and without the cached
    // transpose that enables pull.
    let plain = rmat(&RmatConfig { scale: 11, edge_factor: 16, seed: 5, ..Default::default() })
        .expect("rmat");
    plain.wait();
    let mut dual = plain.clone();
    dual.set_dual_storage(true);
    dual.wait();
    let bfs = |a: &Matrix<bool>| bfs_level_matrix(a, 0, Direction::Auto).expect("bfs").nvals();
    group.bench_with_input(BenchmarkId::new("bfs", "dual_storage"), &dual, |bencher, a| {
        bencher.iter(|| bfs(a))
    });
    report_run("ablation/bfs/dual_storage", || bfs(&dual));
    group.bench_with_input(BenchmarkId::new("bfs", "single_storage"), &plain, |bencher, a| {
        bencher.iter(|| bfs(a))
    });
    report_run("ablation/bfs/single_storage", || bfs(&plain));
    // One traced run of the dual-storage BFS: the per-span profile shows
    // where the iterations spend their time, not just end-to-end medians.
    profile_once("ablation/bfs/dual_storage", || bfs(&dual));

    // Pending tuples vs eager assembly on a mixed update stream.
    let n = 1 << 12;
    let updates: Vec<(Index, Index, f64)> =
        (0..20_000).map(|k| ((k * 37) % n, (k * 101) % n, k as f64)).collect();
    let nonblocking = || {
        let mut m = Matrix::<f64>::new(n, n).expect("new");
        for &(i, j, x) in &updates {
            m.set_element(i, j, x).expect("set");
        }
        m.nvals()
    };
    group.bench_function(BenchmarkId::new("updates", "nonblocking"), |bencher| {
        bencher.iter(nonblocking)
    });
    report_run("ablation/updates/nonblocking", nonblocking);
    let eager = || {
        let mut m = Matrix::<f64>::new(n, n).expect("new");
        for (k, &(i, j, x)) in updates.iter().enumerate() {
            m.set_element(i, j, x).expect("set");
            if k % 64 == 0 {
                m.wait();
            }
        }
        m.nvals()
    };
    group.bench_function(BenchmarkId::new("updates", "eager_every_64"), |bencher| {
        bencher.iter(eager)
    });
    report_run("ablation/updates/eager_every_64", eager);

    // Opacity cost: point reads on a fully assembled matrix must be as
    // cheap as the underlying binary search.
    let m = {
        let mut m = Matrix::<f64>::new(n, n).expect("new");
        for &(i, j, x) in &updates {
            m.set_element(i, j, x).expect("set");
        }
        m.wait();
        m
    };
    let point_reads = || (0..1000).filter(|k| m.get((k * 37) % n, (k * 101) % n).is_some()).count();
    group.bench_function("point_reads_assembled", |bencher| bencher.iter(point_reads));
    report_run("ablation/point_reads_assembled", point_reads);
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
