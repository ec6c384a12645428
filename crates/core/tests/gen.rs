//! Determinism and distribution tests for the seeded workload
//! generators (`lagraph::gen`).
//!
//! The headline guarantee under test: the generated matrix is a pure
//! function of `(workload, scale, edge_factor, seed)` — **independent of
//! the thread count**. The tests force the parallel path on small inputs
//! by lowering the pool's work threshold, then generate each workload
//! under 1 thread and under 8 and assert the extracted tuple lists are
//! bit-identical.

use lagraph::gen::{
    erdos_renyi, erdos_renyi_weighted, grid2d, random_matrix, rmat, rmat_weighted, uniform_degree,
    uniform_degree_undirected, RmatConfig, Workload,
};

/// Run `f` with the pool forced into parallel mode (threshold 1) at the
/// given thread override, restoring both globals afterwards. The globals
/// are process-wide, so everything funnels through one mutex.
fn with_threads<R>(nthreads: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    graphblas::parallel::set_par_threshold(1);
    graphblas::parallel::set_threads(nthreads);
    let r = f();
    graphblas::parallel::set_threads(0);
    graphblas::parallel::set_par_threshold(0);
    r
}

/// Assert `gen()` produces bit-identical tuples on 1 thread and on 8.
fn assert_thread_independent<T: PartialEq + std::fmt::Debug + Copy>(
    label: &str,
    gen: impl Fn() -> Vec<(usize, usize, T)>,
) {
    let seq = with_threads(1, &gen);
    let par = with_threads(8, &gen);
    assert!(!seq.is_empty(), "{label}: generator produced an empty graph");
    assert_eq!(seq, par, "{label}: tuples differ between 1 and 8 threads");
}

#[test]
fn rmat_is_thread_count_independent() {
    let cfg = RmatConfig { scale: 8, edge_factor: 8, seed: 7, ..Default::default() };
    assert_thread_independent("rmat", || rmat(&cfg).expect("rmat").extract_tuples());
}

#[test]
fn rmat_weighted_is_thread_count_independent() {
    let cfg = RmatConfig { scale: 8, edge_factor: 8, seed: 7, ..Default::default() };
    // f64 equality is exact here: identical draws produce identical bits.
    assert_thread_independent("rmat_weighted", || {
        rmat_weighted(&cfg, 255)
            .expect("rmat_weighted")
            .extract_tuples()
            .into_iter()
            .map(|(i, j, w)| (i, j, w.to_bits()))
            .collect()
    });
}

#[test]
fn erdos_renyi_is_thread_count_independent() {
    assert_thread_independent("erdos_renyi", || {
        erdos_renyi(256, 2048, 11).expect("er").extract_tuples()
    });
    assert_thread_independent("erdos_renyi_weighted", || {
        erdos_renyi_weighted(256, 2048, 100, 11)
            .expect("er weighted")
            .extract_tuples()
            .into_iter()
            .map(|(i, j, w)| (i, j, w.to_bits()))
            .collect()
    });
}

#[test]
fn uniform_degree_is_thread_count_independent() {
    assert_thread_independent("uniform_degree", || {
        uniform_degree(300, 9, 3).expect("uniform").extract_tuples()
    });
    assert_thread_independent("uniform_degree_undirected", || {
        uniform_degree_undirected(300, 9, 3).expect("uniform undirected").extract_tuples()
    });
}

#[test]
fn grid_and_random_matrix_are_thread_count_independent() {
    let bits = |m: graphblas::Matrix<f64>| -> Vec<(usize, usize, u64)> {
        m.extract_tuples().into_iter().map(|(i, j, x)| (i, j, x.to_bits())).collect()
    };
    assert_thread_independent("grid2d", || bits(grid2d(17, 23).expect("grid")));
    assert_thread_independent("random_matrix", || {
        bits(random_matrix(200, 300, 4000, 5).expect("random matrix"))
    });
}

/// Interior grid vertices have four neighbors, corners two, and every
/// arc has unit weight.
#[test]
fn grid2d_degrees_follow_the_mesh() {
    let g = grid2d(3, 4).expect("grid");
    assert_eq!((g.nrows(), g.ncols()), (12, 12));
    let mut deg = [0usize; 12];
    for (i, j, w) in g.iter() {
        assert_eq!(w, 1.0);
        assert_eq!(g.get(j, i), Some(1.0), "symmetric at ({i},{j})");
        deg[i] += 1;
    }
    assert_eq!(deg[5], 4, "interior vertex (1,1)");
    assert_eq!(deg[0], 2, "corner (0,0)");
    assert_eq!(g.get(0, 1), Some(1.0));
    assert_eq!(g.get(0, 4), Some(1.0));
    // 2·(rows·(cols−1) + (rows−1)·cols) arcs.
    assert_eq!(g.nvals(), 2 * (3 * 3 + 2 * 4));
    assert!(grid2d(0, 5).is_err(), "matrices need dimensions >= 1");
}

#[test]
fn random_matrix_respects_shape_and_range() {
    let m = random_matrix(10, 20, 50, 3).expect("random matrix");
    assert_eq!((m.nrows(), m.ncols()), (10, 20));
    assert!(m.nvals() <= 50);
    assert!(m.nvals() > 30);
    assert!(m.iter().all(|(_, _, x)| (-1.0..1.0).contains(&x)));
    assert_ne!(
        m.extract_tuples(),
        random_matrix(10, 20, 50, 4).expect("reseeded").extract_tuples()
    );
    assert!(random_matrix(0, 7, 9, 1).is_err(), "matrices need dimensions >= 1");
}

#[test]
fn workloads_are_thread_count_independent() {
    for w in [Workload::Rmat, Workload::ErdosRenyi, Workload::UniformDegree] {
        assert_thread_independent(w.name(), || {
            w.weighted(8, 8, 42, 64)
                .expect("workload")
                .extract_tuples()
                .into_iter()
                .map(|(i, j, x)| (i, j, x.to_bits()))
                .collect()
        });
    }
}

/// RMAT with Graph500 parameters must be skewed: the hub degree far
/// exceeds the average, unlike the flat uniform-degree control.
#[test]
fn rmat_degree_distribution_is_skewed() {
    let cfg = RmatConfig { scale: 10, edge_factor: 16, seed: 42, ..Default::default() };
    let a = rmat(&cfg).expect("rmat");
    let n = a.nrows();
    let mut deg = vec![0usize; n];
    for (i, _, _) in a.iter() {
        deg[i] += 1;
    }
    let max = *deg.iter().max().expect("nonempty");
    let avg = a.nvals() as f64 / n as f64;
    assert!(max as f64 > 4.0 * avg, "rmat should be skewed: max degree {max} vs average {avg:.1}");
    // The control case stays flat: mirrored d-regular degrees land in a
    // narrow band around 2d rather than growing hubs.
    let u = uniform_degree_undirected(n, 16, 42).expect("uniform");
    let mut udeg = vec![0usize; n];
    for (i, _, _) in u.iter() {
        udeg[i] += 1;
    }
    let umax = *udeg.iter().max().expect("nonempty");
    let uavg = u.nvals() as f64 / n as f64;
    assert!(
        (umax as f64) < 2.0 * uavg,
        "uniform-degree control should be flat: max {umax} vs average {uavg:.1}"
    );
}

/// Changing the seed changes the graph (the streams actually consume it).
#[test]
fn different_seeds_differ() {
    let a = rmat(&RmatConfig { scale: 8, edge_factor: 8, seed: 1, ..Default::default() })
        .expect("rmat a")
        .extract_tuples();
    let b = rmat(&RmatConfig { scale: 8, edge_factor: 8, seed: 2, ..Default::default() })
        .expect("rmat b")
        .extract_tuples();
    assert_ne!(a, b);
}
