//! Figure 2 fidelity tests: the level-BFS of the paper, checked against
//! independent oracles (a plain queue-based BFS, SSSP with unit weights)
//! and across traversal directions, on structured and scale-free graphs.

use std::collections::VecDeque;

use lagraph_suite::lagraph::gen::{grid2d, rmat, RmatConfig};
use lagraph_suite::prelude::*;

/// Plain queue BFS, the non-GraphBLAS oracle.
fn oracle_bfs(n: usize, edges: &[(usize, usize)], src: usize) -> Vec<Option<i32>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut level = vec![None; n];
    level[src] = Some(1);
    let mut q = VecDeque::from([src]);
    while let Some(v) = q.pop_front() {
        let lv = level[v].expect("queued implies leveled");
        for &w in &adj[v] {
            if level[w].is_none() {
                level[w] = Some(lv + 1);
                q.push_back(w);
            }
        }
    }
    level
}

fn graph_of(n: usize, edges: &[(usize, usize)]) -> Graph {
    Graph::from_edges(n, edges, GraphKind::Undirected).expect("graph")
}

#[test]
fn fig2_bfs_matches_queue_oracle_on_rmat() {
    let adj = rmat(&RmatConfig { scale: 8, edge_factor: 6, seed: 3, ..Default::default() })
        .expect("rmat");
    let n = adj.nrows();
    let edges: Vec<(usize, usize)> =
        adj.iter().filter(|&(i, j, _)| i < j).map(|(i, j, _)| (i, j)).collect();
    let g = graph_of(n, &edges);
    for src in [0, 1, 7, 100] {
        let want = oracle_bfs(n, &edges, src);
        let got = bfs_level(&g, src).expect("bfs");
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(got.get(v), w, "src {src}, vertex {v}");
        }
    }
}

#[test]
fn push_pull_and_auto_agree_on_rmat() {
    let adj = rmat(&RmatConfig { scale: 8, edge_factor: 8, seed: 9, ..Default::default() })
        .expect("rmat");
    let n = adj.nrows();
    let edges: Vec<(usize, usize)> =
        adj.iter().filter(|&(i, j, _)| i < j).map(|(i, j, _)| (i, j)).collect();
    let g = graph_of(n, &edges);
    let auto = bfs_level_direction(&g, 0, Direction::Auto).expect("auto");
    let push = bfs_level_direction(&g, 0, Direction::Push).expect("push");
    let pull = bfs_level_direction(&g, 0, Direction::Pull).expect("pull");
    assert_eq!(auto.extract_tuples(), push.extract_tuples());
    assert_eq!(auto.extract_tuples(), pull.extract_tuples());
}

#[test]
fn bfs_levels_equal_unit_sssp_plus_one() {
    let adj = rmat(&RmatConfig { scale: 7, edge_factor: 6, seed: 5, ..Default::default() })
        .expect("rmat");
    let n = adj.nrows();
    let mut w = Matrix::<f64>::new(n, n).expect("w");
    apply_matrix(&mut w, None, NOACC, unaryop::One, &adj, &Descriptor::default()).expect("weights");
    let g = Graph::new(w, GraphKind::Undirected).expect("graph");
    let levels = bfs_level(&g, 0).expect("bfs");
    let dist = sssp_bellman_ford(&g, 0).expect("sssp");
    assert_eq!(levels.nvals(), dist.nvals());
    for (v, l) in levels.iter() {
        assert_eq!(dist.get(v), Some((l - 1) as f64), "vertex {v}");
    }
}

#[test]
fn parent_bfs_tree_is_consistent_with_levels() {
    let adj = rmat(&RmatConfig { scale: 7, edge_factor: 6, seed: 13, ..Default::default() })
        .expect("rmat");
    let n = adj.nrows();
    let edges: Vec<(usize, usize)> =
        adj.iter().filter(|&(i, j, _)| i < j).map(|(i, j, _)| (i, j)).collect();
    let g = graph_of(n, &edges);
    let levels = bfs_level(&g, 0).expect("levels");
    let parents = bfs_parent(&g, 0).expect("parents");
    assert_eq!(levels.nvals(), parents.nvals(), "same reachable set");
    for (v, p) in parents.iter() {
        if v == 0 {
            assert_eq!(p, 0);
            continue;
        }
        let p = p as usize;
        assert!(g.a().get(p, v).is_some(), "tree edge {p}->{v} exists");
        assert_eq!(levels.get(v), levels.get(p).map(|l| l + 1), "parent one level above");
    }
}

#[test]
fn bfs_on_grid_has_manhattan_levels() {
    let a = grid2d(16, 16).expect("grid");
    let g = Graph::new(a, GraphKind::Undirected).expect("graph");
    let levels = bfs_level(&g, 0).expect("bfs");
    for v in 0..256 {
        let (r, c) = (v / 16, v % 16);
        assert_eq!(levels.get(v), Some((r + c) as i32 + 1), "vertex {v}");
    }
}

#[test]
fn bfs_respects_disconnection() {
    // Two rings that never touch.
    let mut edges: Vec<(usize, usize)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
    edges.extend((0..10).map(|i| (10 + i, 10 + (i + 1) % 10)));
    let g = graph_of(20, &edges);
    let levels = bfs_level(&g, 0).expect("bfs");
    assert_eq!(levels.nvals(), 10);
    for v in 10..20 {
        assert_eq!(levels.get(v), None);
    }
}
