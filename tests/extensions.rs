//! End-to-end coverage of the extension set: the algorithms beyond the
//! paper's core list (k-core, CDLP, MSF, SCC, GCN, subgraph counting,
//! triangle centrality), the binary serialization format, and the
//! output-property harness — all on generated graphs.

use lagraph::harness;
use lagraph_suite::lagraph::gen::{erdos_renyi_weighted, rmat_directed, rmat_graph, RmatConfig};
use lagraph_suite::prelude::*;

#[test]
fn harness_validates_the_whole_collection_on_rmat() {
    let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed: 41, ..Default::default() })
        .expect("rmat");
    let levels = bfs_level(&g, 0).expect("bfs");
    assert!(harness::verify_bfs_levels(&g, 0, &levels).expect("bfs check"));

    let dist = sssp_delta_stepping(&g, 0, 1.0).expect("sssp");
    assert!(harness::verify_sssp(&g, 0, &dist).expect("sssp check"));

    let comp = connected_components(&g).expect("cc");
    assert!(harness::verify_components(&g, &comp).expect("cc check"));

    let truss = ktruss(&g, 3).expect("truss");
    assert!(harness::verify_ktruss(&truss, 3).expect("truss check"));

    let (ranks, _) = pagerank(&g, &PageRankOptions::default()).expect("pr");
    assert!(harness::verify_pagerank(&g, &ranks, 1e-6).expect("pr check"));

    let (colors, k) = greedy_color(&g, 3).expect("color");
    assert!(harness::verify_coloring_range(&g, &colors, k).expect("color check"));
}

#[test]
fn binary_format_carries_graphs_through_the_pipeline() {
    let g = rmat_graph(&RmatConfig { scale: 7, edge_factor: 8, seed: 55, ..Default::default() })
        .expect("rmat");
    let mut buf = Vec::new();
    write_binary(g.a(), &mut buf).expect("serialize");
    let back: Matrix<f64> = read_binary(&buf[..]).expect("deserialize");
    let g2 = Graph::new(back, GraphKind::Undirected).expect("graph");
    assert_eq!(
        triangle_count(&g, TriCountMethod::Sandia).expect("tc"),
        triangle_count(&g2, TriCountMethod::Sandia).expect("tc")
    );
    // Binary and Matrix Market agree with each other.
    let mut mm = Vec::new();
    write_matrix_market(g.a(), &mut mm, MmField::Real).expect("mm write");
    let from_mm: Matrix<f64> = read_matrix_market(&mm[..]).expect("mm read");
    assert_eq!(from_mm.extract_tuples(), g2.a().extract_tuples());
}

#[test]
fn core_numbers_agree_with_truss_on_dense_blocks() {
    let g = rmat_graph(&RmatConfig { scale: 6, edge_factor: 8, seed: 66, ..Default::default() })
        .expect("rmat");
    let core = core_numbers(&g).expect("cores");
    // Core numbers are bounded by degree.
    let deg = g.out_degree().expect("degrees");
    for (v, c) in core.iter() {
        assert!(c <= deg.get(v).unwrap_or(0), "vertex {v}");
    }
    // Members of the 3-truss have core number >= 2 (their truss degree
    // is at least k-1 = 2 within the truss subgraph).
    let truss = ktruss(&g, 3).expect("truss");
    for (u, _, _) in truss.iter() {
        assert!(core.get(u).unwrap_or(0) >= 2, "truss member {u}");
    }
}

#[test]
fn cdlp_and_peer_pressure_agree_on_disjoint_cliques() {
    let mut edges = Vec::new();
    for b in 0..4usize {
        let base = b * 5;
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((base + i, base + j));
            }
        }
    }
    let g = Graph::from_edges(20, &edges, GraphKind::Undirected).expect("graph");
    let a = cdlp(&g, 20).expect("cdlp");
    let b = peer_pressure(&g, 20).expect("pp");
    // Both must recover exactly the clique partition.
    for blk in 0..4usize {
        let base = blk * 5;
        for v in base..(base + 5) {
            assert_eq!(a.get(v), a.get(base), "cdlp vertex {v}");
            assert_eq!(b.get(v), b.get(base), "pp vertex {v}");
        }
        if blk > 0 {
            assert_ne!(a.get(base), a.get(0));
            assert_ne!(b.get(base), b.get(0));
        }
    }
}

#[test]
fn msf_connects_what_cc_connects() {
    let a = erdos_renyi_weighted(100, 300, 5, 31).expect("er");
    let g = Graph::new(a, GraphKind::Undirected).expect("graph");
    let forest = minimum_spanning_forest(&g).expect("msf");
    // Build a graph of just the forest edges: same component structure.
    let fg = Graph::from_weighted_edges(100, &forest, GraphKind::Undirected).expect("fg");
    let c1 = connected_components(&g).expect("cc g");
    let c2 = connected_components(&fg).expect("cc forest");
    assert_eq!(c1.extract_tuples(), c2.extract_tuples());
}

#[test]
fn scc_condensation_is_consistent_with_bfs() {
    let adj =
        rmat_directed(&RmatConfig { scale: 6, edge_factor: 4, seed: 77, ..Default::default() })
            .expect("rmat");
    let n = adj.nrows();
    let mut w = Matrix::<f64>::new(n, n).expect("w");
    apply_matrix(&mut w, None, NOACC, unaryop::One, &adj, &Descriptor::default()).expect("weights");
    let g = Graph::new(w, GraphKind::Directed).expect("graph");
    let labels = strongly_connected_components(&g).expect("scc");
    // Spot check: same-SCC pairs are mutually reachable via BFS.
    let mut checked = 0;
    for u in 0..n {
        for v in (u + 1)..n.min(u + 40) {
            if labels.get(u) == labels.get(v) && labels.get(u).is_some() {
                let fu = bfs_level(&g, u).expect("bfs");
                let fv = bfs_level(&g, v).expect("bfs");
                assert!(fu.get(v).is_some(), "{u} must reach {v}");
                assert!(fv.get(u).is_some(), "{v} must reach {u}");
                checked += 1;
                if checked > 10 {
                    return;
                }
            }
        }
    }
}

#[test]
fn triangle_centrality_total_matches_tricount() {
    let g = rmat_graph(&RmatConfig { scale: 6, edge_factor: 8, seed: 99, ..Default::default() })
        .expect("rmat");
    let (tc, total) = triangle_centrality(&g).expect("tc");
    assert_eq!(total, triangle_count(&g, TriCountMethod::Sandia).expect("count"));
    if total > 0 {
        // Scores are positive and bounded by (max useful value) ~ n.
        for (_, s) in tc.iter() {
            assert!(s >= 0.0);
        }
    }
}

#[test]
fn subgraph_counts_consistent_with_dedicated_counters() {
    let g = rmat_graph(&RmatConfig { scale: 6, edge_factor: 8, seed: 123, ..Default::default() })
        .expect("rmat");
    let counts = subgraph_counts(&g).expect("counts");
    assert_eq!(counts.triangles, triangle_count(&g, TriCountMethod::Burkhardt).expect("tc"));
}

#[test]
fn gcn_smooths_over_generated_communities() {
    // Two ER blobs joined weakly; one-hot seeds; GCN layers must keep
    // each blob's seed feature dominant within the blob.
    let mut edges = Vec::new();
    let mut rng_state = 12345u64;
    let mut rnd = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 33) as f64 / (1u64 << 31) as f64
    };
    for b in 0..2usize {
        let base = b * 16;
        for i in 0..16 {
            for j in (i + 1)..16 {
                if rnd() < 0.4 {
                    edges.push((base + i, base + j));
                }
            }
        }
    }
    edges.push((0, 16));
    let g = Graph::from_edges(32, &edges, GraphKind::Undirected).expect("graph");
    let h = Matrix::from_tuples(32, 2, vec![(3, 0, 1.0), (19, 1, 1.0)], |_, b| b).expect("h");
    let eye = Matrix::from_tuples(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)], |_, b| b).expect("w");
    let layers = [
        lagraph::gnn::GcnLayer { weights: eye.clone(), relu: true },
        lagraph::gnn::GcnLayer { weights: eye.clone(), relu: true },
        lagraph::gnn::GcnLayer { weights: eye, relu: false },
    ];
    let out = gcn_inference(&g, &h, &layers).expect("gcn");
    let classes = node_classification(&out).expect("classes");
    let mut correct = 0;
    let mut labeled = 0;
    for v in 0..32 {
        if let Some(c) = classes.get(v) {
            labeled += 1;
            if (v < 16 && c == 0) || (v >= 16 && c == 1) {
                correct += 1;
            }
        }
    }
    assert!(labeled > 20, "smoothing should reach most vertices");
    assert!(correct * 10 >= labeled * 8, "{correct}/{labeled} correctly classified");
}
