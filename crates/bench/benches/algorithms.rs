//! Experiment A1: the algorithm-suite timings — the library of §V run end
//! to end on a scale-free graph, the workload the LAGraph project exists
//! to serve.

use criterion::Criterion;
use lagraph::gen::{rmat_graph, RmatConfig};
use lagraph::*;
use lagraph_bench::criterion_config;

fn bench(c: &mut Criterion) {
    let g = rmat_graph(&RmatConfig { scale: 10, edge_factor: 16, seed: 1, ..Default::default() })
        .expect("rmat");
    // Warm the caches outside the timing loops.
    let _ = (g.structure(), g.at(), g.out_degree());
    let mut group = c.benchmark_group("algorithms_rmat_s10");

    group.bench_function("bfs_level", |b| b.iter(|| bfs_level(&g, 0).expect("bfs").nvals()));
    group.bench_function("bfs_parent", |b| b.iter(|| bfs_parent(&g, 0).expect("bfs").nvals()));
    group.bench_function("sssp_bellman_ford", |b| {
        b.iter(|| sssp_bellman_ford(&g, 0).expect("sssp").nvals())
    });
    group.bench_function("sssp_delta_stepping", |b| {
        b.iter(|| sssp_delta_stepping(&g, 0, 1.0).expect("sssp").nvals())
    });
    group.bench_function("tricount_burkhardt", |b| {
        b.iter(|| triangle_count(&g, TriCountMethod::Burkhardt).expect("tc"))
    });
    group.bench_function("tricount_sandia", |b| {
        b.iter(|| triangle_count(&g, TriCountMethod::Sandia).expect("tc"))
    });
    group.bench_function("connected_components", |b| b.iter(|| component_count(&g).expect("cc")));
    group.bench_function("pagerank", |b| {
        b.iter(|| pagerank(&g, &PageRankOptions::default()).expect("pr").1)
    });
    group
        .bench_function("mis", |b| b.iter(|| maximal_independent_set(&g, 7).expect("mis").nvals()));
    group.bench_function("ktruss_k3", |b| b.iter(|| ktruss(&g, 3).expect("truss").nvals()));
    group.bench_function("bc_batch4", |b| {
        b.iter(|| betweenness_centrality(&g, &[0, 17, 33, 257]).expect("bc").nvals())
    });
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
