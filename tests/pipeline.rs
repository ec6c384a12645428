//! End-to-end pipeline tests spanning all three crates: generate a graph
//! (`lagraph::gen`), round-trip it through Matrix Market (`lagraph-io`),
//! and require the
//! whole algorithm collection (`lagraph`) to produce mutually consistent
//! results through the GraphBLAS substrate (`graphblas`).

use lagraph_suite::lagraph::gen::{
    erdos_renyi_weighted, grid2d, random_matrix, rmat_directed, rmat_graph, RmatConfig,
};
use lagraph_suite::prelude::*;

#[test]
fn matrix_market_round_trip_preserves_analytics() {
    let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed: 21, ..Default::default() })
        .expect("rmat");
    let mut buf = Vec::new();
    write_matrix_market(g.a(), &mut buf, MmField::Real).expect("write");
    let back: Matrix<f64> = read_matrix_market(&buf[..]).expect("read");
    let g2 = Graph::new(back, GraphKind::Undirected).expect("graph");
    // Identical analytics on both sides of the I/O boundary.
    assert_eq!(
        triangle_count(&g, TriCountMethod::Sandia).expect("tc1"),
        triangle_count(&g2, TriCountMethod::Sandia).expect("tc2")
    );
    assert_eq!(component_count(&g).expect("cc1"), component_count(&g2).expect("cc2"));
    assert_eq!(
        bfs_level(&g, 0).expect("b1").extract_tuples(),
        bfs_level(&g2, 0).expect("b2").extract_tuples()
    );
}

#[test]
fn components_agree_with_repeated_bfs() {
    let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed: 33, ..Default::default() })
        .expect("rmat");
    let n = g.nvertices();
    let comp = connected_components(&g).expect("cc");
    // Oracle: peel components off with BFS.
    let mut seen = vec![false; n];
    let mut ncomp_oracle = 0;
    for v in 0..n {
        if seen[v] {
            continue;
        }
        ncomp_oracle += 1;
        let levels = bfs_level(&g, v).expect("bfs");
        let root_label = comp.get(v).expect("labeled");
        for (u, _) in levels.iter() {
            seen[u] = true;
            // Everything BFS reaches shares the component label.
            assert_eq!(comp.get(u), Some(root_label), "vertex {u}");
        }
    }
    assert_eq!(component_count(&g).expect("count"), ncomp_oracle);
}

#[test]
fn tricount_methods_agree_on_scale_free_graphs() {
    for seed in [1, 2, 3] {
        let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed, ..Default::default() })
            .expect("rmat");
        let b = triangle_count(&g, TriCountMethod::Burkhardt).expect("burkhardt");
        let c = triangle_count(&g, TriCountMethod::Cohen).expect("cohen");
        let s = triangle_count(&g, TriCountMethod::Sandia).expect("sandia");
        assert_eq!(b, c, "seed {seed}");
        assert_eq!(c, s, "seed {seed}");
        // Per-vertex counts triple-count the total.
        let pv = triangle_count_per_vertex(&g).expect("per vertex");
        let total: u64 = pv.iter().map(|(_, t)| t).sum();
        assert_eq!(total, 3 * b, "seed {seed}");
    }
}

#[test]
fn delta_stepping_matches_bellman_ford_on_random_weights() {
    let a = erdos_renyi_weighted(128, 512, 4, 17).expect("er");
    let g = Graph::new(a, GraphKind::Undirected).expect("graph");
    let bf = sssp_bellman_ford(&g, 0).expect("bf");
    for delta in [0.5, 1.5, 5.0] {
        let ds = sssp_delta_stepping(&g, 0, delta).expect("ds");
        let bft = bf.extract_tuples();
        let dst = ds.extract_tuples();
        assert_eq!(bft.len(), dst.len(), "delta {delta}");
        for ((v1, d1), (v2, d2)) in bft.iter().zip(&dst) {
            assert_eq!(v1, v2);
            assert!((d1 - d2).abs() < 1e-9, "vertex {v1}: {d1} vs {d2}");
        }
    }
}

#[test]
fn ktruss_is_nested_and_bounded_by_triangles() {
    let g = rmat_graph(&RmatConfig { scale: 6, edge_factor: 8, seed: 5, ..Default::default() })
        .expect("rmat");
    let t3 = ktruss(&g, 3).expect("t3");
    let t4 = ktruss(&g, 4).expect("t4");
    let t5 = ktruss(&g, 5).expect("t5");
    // Nesting: higher trusses are subgraphs of lower ones.
    assert!(t4.nvals() <= t3.nvals());
    assert!(t5.nvals() <= t4.nvals());
    for (i, j, _) in t4.iter() {
        assert!(t3.get(i, j).is_some(), "4-truss edge ({i},{j}) in 3-truss");
    }
    // A graph with triangles has a non-trivial 3-truss.
    if triangle_count(&g, TriCountMethod::Sandia).expect("tc") > 0 {
        assert!(t3.nvals() > 0);
    }
}

#[test]
fn pagerank_mass_conservation_across_graphs() {
    for seed in [11, 22] {
        let adj =
            rmat_directed(&RmatConfig { scale: 7, edge_factor: 8, seed, ..Default::default() })
                .expect("rmat");
        let n = adj.nrows();
        let mut w = Matrix::<f64>::new(n, n).expect("w");
        apply_matrix(&mut w, None, NOACC, unaryop::One, &adj, &Descriptor::default())
            .expect("weights");
        let g = Graph::new(w, GraphKind::Directed).expect("graph");
        let (r, iters) = pagerank(&g, &PageRankOptions::default()).expect("pr");
        let total = lagraph::utils::sum(&r);
        assert!((total - 1.0).abs() < 1e-6, "seed {seed}: mass {total}");
        assert!(iters > 1 && iters <= 100);
        assert_eq!(r.nvals(), n, "every vertex ranked");
    }
}

#[test]
fn mis_and_coloring_are_valid_on_scale_free_graphs() {
    let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed: 77, ..Default::default() })
        .expect("rmat");
    let iset = maximal_independent_set(&g, 5).expect("mis");
    assert!(verify_mis(&g, &iset).expect("verify mis"));
    let (colors, k) = greedy_color(&g, 5).expect("color");
    assert!(verify_coloring(&g, &colors).expect("verify coloring"));
    // Colors at most max degree + 1.
    let maxdeg = g.out_degree().expect("degrees").iter().map(|(_, d)| d).max().unwrap_or(0);
    assert!((k as i64) <= maxdeg + 1, "k {k} vs maxdeg {maxdeg}");
}

#[test]
fn bc_sums_decompose_over_source_batches() {
    let g = rmat_graph(&RmatConfig { scale: 6, edge_factor: 8, seed: 88, ..Default::default() })
        .expect("rmat");
    let n = g.nvertices();
    let first: Vec<Index> = (0..n / 2).collect();
    let second: Vec<Index> = (n / 2..n).collect();
    let all: Vec<Index> = (0..n).collect();
    let bc1 = betweenness_centrality(&g, &first).expect("bc1");
    let bc2 = betweenness_centrality(&g, &second).expect("bc2");
    let bca = betweenness_centrality(&g, &all).expect("bca");
    for v in 0..n {
        let sum = bc1.get(v).unwrap_or(0.0) + bc2.get(v).unwrap_or(0.0);
        let whole = bca.get(v).unwrap_or(0.0);
        assert!((sum - whole).abs() < 1e-6, "vertex {v}: {sum} vs {whole}");
    }
}

#[test]
fn astar_equals_delta_stepping_on_weighted_er() {
    let a = erdos_renyi_weighted(64, 256, 3, 23).expect("er");
    let g = Graph::new(a, GraphKind::Undirected).expect("graph");
    let dist = sssp_delta_stepping(&g, 0, 1.0).expect("ds");
    for target in [5, 20, 63] {
        let astar_result = astar(&g, 0, target, |_| 0.0).expect("astar");
        match (dist.get(target), astar_result) {
            (Some(d), Some((_, ad))) => assert!((d - ad).abs() < 1e-9, "target {target}"),
            (None, None) => {}
            other => panic!("disagreement on reachability for {target}: {other:?}"),
        }
    }
}

#[test]
fn dnn_inference_composes_with_graph_layers() {
    // Use a small graph's adjacency as a recurrent layer, applied twice:
    // equivalent to multiplying by A² when biases are zero and no
    // saturation occurs.
    let a = grid2d(4, 4).expect("grid");
    let scaled = {
        let mut s = Matrix::<f64>::new(16, 16).expect("s");
        apply_matrix(&mut s, None, NOACC, |x: f64| x * 0.1, &a, &Descriptor::default())
            .expect("scale");
        s
    };
    let g = Graph::new(scaled, GraphKind::Undirected).expect("graph");
    let layer = || lagraph::dnn::layer_from_graph(&g, 0.0);
    let y0 = Matrix::from_tuples(1, 16, vec![(0, 5, 1.0)], |_, b| b).expect("y0");
    let y = dnn_inference(&y0, &[layer(), layer()]).expect("dnn");
    // Compare against A² row 5 scaled.
    let mut a2 = Matrix::<f64>::new(16, 16).expect("a2");
    mxm(
        &mut a2,
        None,
        NOACC,
        &graphblas::semiring::PLUS_TIMES,
        g.a(),
        g.a(),
        &Descriptor::default(),
    )
    .expect("a2");
    for (r, c, v) in y.iter() {
        assert_eq!(r, 0);
        let want = a2.get(5, c).expect("walk exists");
        assert!((v - want).abs() < 1e-12, "col {c}");
    }
}

#[test]
fn bipartite_matching_on_random_graphs_is_maximal() {
    let m = random_matrix(40, 40, 160, 4).expect("rand");
    let b = m.pattern();
    let (rm, cm) = bipartite_matching(&b).expect("match");
    assert!(verify_matching(&b, &rm, &cm).expect("verify"));
}
