//! Experiment C5: direction-optimized BFS vs push-only vs pull-only on
//! scale-free graphs — the paper's claim (§II.A, §II.E, after Beamer et
//! al.) that switching direction by frontier density beats either fixed
//! direction.

use criterion::{BenchmarkId, Criterion};
use graphblas::Direction;
use lagraph::bfs_level_direction;
use lagraph::gen::{rmat_graph, RmatConfig};
use lagraph_bench::criterion_config;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs_direction");
    for scale in [10u32, 12] {
        let g = rmat_graph(&RmatConfig { scale, edge_factor: 16, seed: 7, ..Default::default() })
            .expect("rmat");
        // Warm the caches (structure + dual) outside the timing loop.
        let _ = g.structure();
        for (name, dir) in
            [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)]
        {
            group.bench_with_input(BenchmarkId::new(name, scale), &g, |bencher, g| {
                bencher.iter(|| bfs_level_direction(g, 0, dir).expect("bfs").nvals())
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
