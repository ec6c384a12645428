//! Experiment F3: push vs pull `mxv` across frontier densities (the
//! GraphBLAST direction-optimization crossover of §II.E / Fig. 3).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use graphblas::semiring::LOR_LAND;
use lagraph_bench::{criterion_config, frontier, profile_once, report_run, rmat_structure_dual};

fn bench(c: &mut Criterion) {
    let a = rmat_structure_dual(11, 16, 42);
    let n = a.nrows();
    let mut group = c.benchmark_group("mxv_direction");
    // Distinct frontier sizes from very sparse to half-dense (n = 2048).
    for k in [4usize, 64, 512, n / 2] {
        let q = frontier(n, k);
        for (name, dir) in
            [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)]
        {
            let run = || {
                let mut w = Vector::<bool>::new(n).expect("w");
                mxv(&mut w, None, NOACC, &LOR_LAND, &a, &q, &Descriptor::new().direction(dir))
                    .expect("mxv");
                w.nvals()
            };
            group.bench_function(BenchmarkId::new(name, k), |bencher| bencher.iter(run));
            // Which direction actually ran (the auto row shows where the
            // push/pull heuristic lands at this frontier density).
            report_run(&format!("mxv/{name}/{k}"), run);
        }
        // A traced auto run at this density: the span profile records
        // which kernel the cost model picked and its latency distribution
        // (plus any mxv.mispredict instants).
        let q = frontier(n, k);
        profile_once(&format!("mxv/auto/{k}"), || {
            let mut w = Vector::<bool>::new(n).expect("w");
            mxv(&mut w, None, NOACC, &LOR_LAND, &a, &q, &Descriptor::default()).expect("mxv");
            w.nvals()
        });
    }

    // The BFS-shaped masked rows: frontier expansion under a complemented
    // structural "visited" mask, where the masked scatter kernel filters
    // in-kernel instead of deferring everything to the write rule.
    let visited = frontier(n, n / 4);
    for k in [4usize, 64, 512, n / 2] {
        let q = frontier(n, k);
        for (name, dir) in
            [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)]
        {
            let run = || {
                let mut w = Vector::<bool>::new(n).expect("w");
                mxv(
                    &mut w,
                    Some(&visited),
                    NOACC,
                    &LOR_LAND,
                    &a,
                    &q,
                    &Descriptor::new().direction(dir).complement().structural().replace(),
                )
                .expect("mxv");
                w.nvals()
            };
            group.bench_function(BenchmarkId::new(format!("masked_{name}"), k), |bencher| {
                bencher.iter(run)
            });
            report_run(&format!("mxv/masked_{name}/{k}"), run);
        }
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
