//! Seeded, deterministic workload generation — the measurement backbone
//! for the benchmark harness.
//!
//! The LAGraph benchmarking methodology (Szárnyas et al., the follow-up
//! to the position paper this crate reproduces) and GraphBLAST both
//! report all results on synthetic scale-free inputs: Graph500-style
//! RMAT/Kronecker graphs at a given *scale* (log₂ vertex count) and
//! *edge factor* (average degree). This module generates those workloads
//! directly as GraphBLAS matrices, and is the only generator library in
//! the workspace. Every generator has two properties:
//!
//! * **Thread-count independence.** Every edge is a pure function of
//!   `(seed, edge index)` via a counter-based [SplitMix64] stream, so the
//!   tuple list — and therefore the built matrix — is bit-identical
//!   whether it was materialized on 1 thread or 8. Benchmarks seeded the
//!   same way measure the same graph on every machine.
//! * **Parallel materialization.** Edges are generated in chunks on the
//!   `graphblas::parallel` pool and assembled through the parallel
//!   `Matrix::from_tuples` build path, so generating a scale-20 workload
//!   is itself a parallel workload rather than a sequential preamble.
//!
//! Three generator families cover the benchmark configurations:
//! [`rmat`] (skewed, Graph500 parameters), [`erdos_renyi`] (uniform
//! random), and [`uniform_degree`] (fixed out-degree), plus weighted
//! variants for shortest-path workloads and the [`Workload`] enum the
//! `lagraph-bench` harness selects between. Tests and kernel benches
//! also draw on [`grid2d`] (a mesh with known BFS levels) and
//! [`random_matrix`] (uniform rectangular entries).
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use graphblas::parallel::par_chunks;
use graphblas::prelude::*;

use crate::graph::{Graph, GraphKind};

// ---------------------------------------------------------------------------
// Counter-based randomness
// ---------------------------------------------------------------------------

/// One SplitMix64 scramble step: a bijective avalanche mix of `x`.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny counter-based stream: the state is seeded from `(seed, ctr)`
/// and each [`next_u64`](Stream::next_u64) advances by a fixed odd
/// increment before scrambling, so draws within a stream are independent
/// and streams with different counters never collide in practice.
#[derive(Debug, Clone, Copy)]
struct Stream {
    state: u64,
}

impl Stream {
    /// Open the stream for logical item `ctr` (an edge or vertex index)
    /// under `seed`. Pure: the same `(seed, ctr)` always yields the same
    /// stream, which is what makes chunked generation order-free.
    #[inline]
    fn new(seed: u64, ctr: u64) -> Stream {
        Stream { state: splitmix64(seed ^ splitmix64(ctr.wrapping_add(0xA5A5_A5A5_A5A5_A5A5))) }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[0, n)` (n > 0) by 128-bit multiply, avoiding
    /// the modulo bias a `% n` would introduce.
    #[inline]
    fn next_below(&mut self, n: u64) -> u64 {
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }
}

// ---------------------------------------------------------------------------
// RMAT / Kronecker
// ---------------------------------------------------------------------------

/// Parameters of the recursive-matrix (RMAT) generator, the stochastic
/// Kronecker construction Graph500 standardizes (Chakrabarti, Zhan &
/// Faloutsos, SDM 2004).
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log₂ of the vertex count (Graph500 "scale").
    pub scale: u32,
    /// Edges drawn per vertex (Graph500 uses 16).
    pub edge_factor: usize,
    /// Probability of recursing into the top-left quadrant (0.57 in the
    /// Graph500 parameterization — the source of the degree skew).
    pub a: f64,
    /// Probability of the top-right quadrant (0.19 in Graph500).
    pub b: f64,
    /// Probability of the bottom-left quadrant (0.19 in Graph500; the
    /// remaining mass `1 − a − b − c` goes bottom-right).
    pub c: f64,
    /// Seed for the counter-based edge streams.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig { scale: 10, edge_factor: 16, a: 0.57, b: 0.19, c: 0.19, seed: 42 }
    }
}

impl RmatConfig {
    /// Vertex count `2^scale`.
    pub fn nvertices(&self) -> Index {
        1usize << self.scale
    }

    /// Edge draws `edge_factor · 2^scale` (before self-loop removal and
    /// duplicate collapse).
    pub fn nedges(&self) -> usize {
        self.edge_factor << self.scale
    }

    /// The endpoints of edge draw `k`: one descent through `scale`
    /// levels of the recursive quadrant matrix, consuming draws from the
    /// per-edge stream only. Pure in `(self.seed, k)`.
    #[inline]
    fn edge(&self, k: usize) -> (Index, Index) {
        let mut s = Stream::new(self.seed, k as u64);
        let (mut i, mut j) = (0 as Index, 0 as Index);
        for bit in (0..self.scale).rev() {
            let r = s.next_f64();
            let (di, dj) = if r < self.a {
                (0, 0)
            } else if r < self.a + self.b {
                (0, 1)
            } else if r < self.a + self.b + self.c {
                (1, 0)
            } else {
                (1, 1)
            };
            i |= di << bit;
            j |= dj << bit;
        }
        (i, j)
    }

    /// The weight assigned to edge draw `k`: uniform in `1..=max_weight`,
    /// drawn from a stream offset so it is independent of the endpoint
    /// draws. Both orientations of a symmetrized edge share it.
    #[inline]
    fn weight(&self, k: usize, max_weight: u64) -> f64 {
        let mut s = Stream::new(self.seed ^ 0x57ED_5EED, k as u64);
        (1 + s.next_below(max_weight)) as f64
    }
}

/// Materialize edge draws `0..nedges` in parallel chunks, mapping each
/// draw to zero or more tuples. Chunks are concatenated in draw order, so
/// the result is independent of the chunking (and thread count).
fn par_edges<T: Send + Copy>(
    nedges: usize,
    est_work_per_edge: usize,
    edge: impl Fn(usize, &mut Vec<(Index, Index, T)>) + Sync,
) -> Vec<(Index, Index, T)> {
    let chunks = par_chunks(nedges, nedges.saturating_mul(est_work_per_edge.max(1)), |range| {
        let mut out = Vec::with_capacity(2 * range.len());
        for k in range {
            edge(k, &mut out);
        }
        out
    });
    let total = chunks.iter().map(Vec::len).sum();
    let mut tuples = Vec::with_capacity(total);
    for c in chunks {
        tuples.extend_from_slice(&c);
    }
    tuples
}

/// An undirected (symmetrized, loop-free) RMAT adjacency structure.
/// Duplicate edge draws collapse; self-loop draws are dropped, matching
/// the Graph500 kernel-input convention.
pub fn rmat(cfg: &RmatConfig) -> Result<Matrix<bool>> {
    let n = cfg.nvertices();
    let tuples = par_edges(cfg.nedges(), cfg.scale as usize, |k, out| {
        let (i, j) = cfg.edge(k);
        if i != j {
            out.push((i, j, true));
            out.push((j, i, true));
        }
    });
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// A directed RMAT adjacency structure (no symmetrization), for
/// direction-optimization studies.
pub fn rmat_directed(cfg: &RmatConfig) -> Result<Matrix<bool>> {
    let n = cfg.nvertices();
    let tuples = par_edges(cfg.nedges(), cfg.scale as usize, |k, out| {
        let (i, j) = cfg.edge(k);
        if i != j {
            out.push((i, j, true));
        }
    });
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// An undirected RMAT graph with integral edge weights uniform in
/// `1..=max_weight` (both orientations share the draw's weight) — the
/// GAP shortest-path workload shape. `max_weight = 1` yields unit
/// weights. Duplicate draws keep the *last* draw's weight on both
/// orientations, so the matrix stays symmetric.
pub fn rmat_weighted(cfg: &RmatConfig, max_weight: u64) -> Result<Matrix<f64>> {
    let n = cfg.nvertices();
    let max_weight = max_weight.max(1);
    let tuples = par_edges(cfg.nedges(), cfg.scale as usize, |k, out| {
        let (i, j) = cfg.edge(k);
        if i != j {
            let w = cfg.weight(k, max_weight);
            out.push((i, j, w));
            out.push((j, i, w));
        }
    });
    // Keep the lexicographically-last duplicate deterministically: the
    // assemble path feeds duplicates to `dup` in draw order (tuples are
    // ordered by draw above), and symmetric twins see the same sequence
    // of weights, so (i,j) and (j,i) resolve identically.
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// An undirected RMAT [`Graph`] with unit weights.
pub fn rmat_graph(cfg: &RmatConfig) -> Result<Graph> {
    Graph::new(rmat_weighted(cfg, 1)?, GraphKind::Undirected)
}

/// An undirected RMAT [`Graph`] with weights uniform in `1..=max_weight`.
pub fn rmat_weighted_graph(cfg: &RmatConfig, max_weight: u64) -> Result<Graph> {
    Graph::new(rmat_weighted(cfg, max_weight)?, GraphKind::Undirected)
}

// ---------------------------------------------------------------------------
// Erdős–Rényi and uniform-degree
// ---------------------------------------------------------------------------

/// Erdős–Rényi `G(n, m)`: `m` undirected edge draws with uniform
/// endpoints, symmetrized and loop-free (each draw rejects self-loops
/// inside its own stream; duplicate draws collapse, so `nvals ≤ 2m`).
pub fn erdos_renyi(n: Index, m: usize, seed: u64) -> Result<Matrix<bool>> {
    if n < 2 {
        return Matrix::new(n, n);
    }
    let tuples = par_edges(m, 2, |k, out| {
        let mut s = Stream::new(seed, k as u64);
        loop {
            let i = s.next_below(n as u64) as Index;
            let j = s.next_below(n as u64) as Index;
            if i != j {
                out.push((i, j, true));
                out.push((j, i, true));
                return;
            }
        }
    });
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// Weighted Erdős–Rényi: like [`erdos_renyi`] with each undirected edge
/// carrying a weight uniform in `1..=max_weight`.
pub fn erdos_renyi_weighted(n: Index, m: usize, max_weight: u64, seed: u64) -> Result<Matrix<f64>> {
    if n < 2 {
        return Matrix::new(n, n);
    }
    let max_weight = max_weight.max(1);
    let tuples = par_edges(m, 2, |k, out| {
        let mut s = Stream::new(seed, k as u64);
        loop {
            let i = s.next_below(n as u64) as Index;
            let j = s.next_below(n as u64) as Index;
            if i != j {
                let w = (1 + s.next_below(max_weight)) as f64;
                out.push((i, j, w));
                out.push((j, i, w));
                return;
            }
        }
    });
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// A directed graph where every vertex has out-degree exactly `d`: each
/// vertex draws `d` *distinct* non-self targets from its own stream.
/// Errors if `d ≥ n` (not enough distinct targets). The flat degree
/// distribution is the control case against RMAT's skew.
pub fn uniform_degree(n: Index, d: usize, seed: u64) -> Result<Matrix<bool>> {
    if d >= n {
        return Err(Error::invalid(format!("uniform_degree: d = {d} must be < n = {n}")));
    }
    let chunks = par_chunks(n, n.saturating_mul(d.max(1)), |range| {
        let mut out = Vec::with_capacity(range.len() * d);
        for v in range {
            let mut s = Stream::new(seed, v as u64);
            let base = out.len();
            while out.len() - base < d {
                let w = s.next_below(n as u64) as Index;
                if w != v && !out[base..].iter().any(|&(_, x, _)| x == w) {
                    out.push((v, w, true));
                }
            }
        }
        out
    });
    let total = chunks.iter().map(Vec::len).sum();
    let mut tuples = Vec::with_capacity(total);
    for c in chunks {
        tuples.extend_from_slice(&c);
    }
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// The symmetrized counterpart of [`uniform_degree`]: every vertex draws
/// `d` distinct targets and each arc is mirrored, so degrees are `≥ d`
/// but no longer exact.
pub fn uniform_degree_undirected(n: Index, d: usize, seed: u64) -> Result<Matrix<bool>> {
    if d >= n {
        return Err(Error::invalid(format!("uniform_degree: d = {d} must be < n = {n}")));
    }
    let chunks = par_chunks(n, n.saturating_mul(d.max(1)), |range| {
        let mut out = Vec::with_capacity(range.len() * d * 2);
        for v in range {
            let mut s = Stream::new(seed, v as u64);
            let mut picked = 0usize;
            let base = out.len();
            while picked < d {
                let w = s.next_below(n as u64) as Index;
                if w != v && !out[base..].iter().any(|&(x, y, _)| x == v && y == w) {
                    out.push((v, w, true));
                    out.push((w, v, true));
                    picked += 1;
                }
            }
        }
        out
    });
    let total = chunks.iter().map(Vec::len).sum();
    let mut tuples = Vec::with_capacity(total);
    for c in chunks {
        tuples.extend_from_slice(&c);
    }
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

// ---------------------------------------------------------------------------
// Meshes and rectangular matrices
// ---------------------------------------------------------------------------

/// A 2-D grid (mesh) graph of `rows × cols` vertices with 4-neighbor
/// connectivity and unit weights; vertex id = `r * cols + c`. BFS levels
/// from a corner are Manhattan distances plus one, which makes it an
/// oracle-friendly input.
pub fn grid2d(rows: Index, cols: Index) -> Result<Matrix<f64>> {
    let n = rows * cols;
    let tuples = par_edges(n, 4, |v, out| {
        let (r, c) = (v / cols, v % cols);
        if c + 1 < cols {
            out.push((v, v + 1, 1.0));
            out.push((v + 1, v, 1.0));
        }
        if r + 1 < rows {
            out.push((v, v + cols, 1.0));
            out.push((v + cols, v, 1.0));
        }
    });
    Matrix::from_tuples(n, n, tuples, |_, b| b)
}

/// A random sparse `nrows × ncols` matrix from `nnz` entry draws with
/// uniform coordinates and values uniform in `[-1, 1)`; duplicate draws
/// keep the last value, so `nvals ≤ nnz`.
pub fn random_matrix(nrows: Index, ncols: Index, nnz: usize, seed: u64) -> Result<Matrix<f64>> {
    let tuples = par_edges(nnz, 3, |k, out| {
        let mut s = Stream::new(seed, k as u64);
        let i = s.next_below(nrows as u64) as Index;
        let j = s.next_below(ncols as u64) as Index;
        out.push((i, j, 2.0 * s.next_f64() - 1.0));
    });
    Matrix::from_tuples(nrows, ncols, tuples, |_, b| b)
}

// ---------------------------------------------------------------------------
// Seeded sampling
// ---------------------------------------------------------------------------

/// A seeded uniform permutation of `0..n` (Fisher–Yates over the
/// SplitMix64 stream). Deterministic in `seed`; scanning a prefix gives
/// distinct uniform draws with guaranteed full coverage — the benchmark
/// harness walks this to pick source vertices.
pub fn permutation(n: Index, seed: u64) -> Vec<Index> {
    let mut out: Vec<Index> = (0..n).collect();
    let mut s = Stream::new(seed, 0x5EED50_u64);
    for i in (1..n).rev() {
        let j = s.next_below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// `k` distinct uniform indices from `[0, n)`, deterministic in `seed`.
/// Rejection-samples the SplitMix64 stream while the draw is cheap and
/// falls back to a [`permutation`] prefix once `k` nears `n`, so it
/// terminates in O(n) worst case. `k` is clamped to `n`.
pub fn sample_distinct(n: Index, k: usize, seed: u64) -> Vec<Index> {
    let k = k.min(n);
    if k == 0 || n == 0 {
        return Vec::new();
    }
    if k * 4 >= n {
        let mut p = permutation(n, seed);
        p.truncate(k);
        return p;
    }
    let mut s = Stream::new(seed, 0x5EED51_u64);
    let mut seen = std::collections::HashSet::with_capacity(k * 2);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = s.next_below(n as u64) as Index;
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workload selection (the harness vocabulary)
// ---------------------------------------------------------------------------

/// The workload families the `lagraph-bench` harness generates, all
/// parameterized by `(scale, edge_factor, seed)` with `n = 2^scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Graph500 RMAT: scale-free, heavy-hub degree distribution.
    Rmat,
    /// Erdős–Rényi `G(n, n·edge_factor)`: uniform random.
    ErdosRenyi,
    /// Fixed per-vertex degree (mirrored): the flat control case.
    UniformDegree,
}

impl Workload {
    /// Parse a workload name as the CLI spells it (`rmat`, `er` /
    /// `erdos-renyi`, `uniform`).
    pub fn parse(s: &str) -> Option<Workload> {
        match s.to_ascii_lowercase().as_str() {
            "rmat" | "kron" | "kronecker" => Some(Workload::Rmat),
            "er" | "erdos-renyi" | "erdos_renyi" => Some(Workload::ErdosRenyi),
            "uniform" | "uniform-degree" | "uniform_degree" => Some(Workload::UniformDegree),
            _ => None,
        }
    }

    /// The canonical name used in reports and filenames.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat => "rmat",
            Workload::ErdosRenyi => "erdos-renyi",
            Workload::UniformDegree => "uniform-degree",
        }
    }

    /// Generate the undirected weighted adjacency (weights uniform in
    /// `1..=max_weight`; pass 1 for unit weights) for this workload at
    /// the given scale.
    pub fn weighted(
        self,
        scale: u32,
        edge_factor: usize,
        seed: u64,
        max_weight: u64,
    ) -> Result<Matrix<f64>> {
        let n: Index = 1usize << scale;
        match self {
            Workload::Rmat => rmat_weighted(
                &RmatConfig { scale, edge_factor, seed, ..Default::default() },
                max_weight,
            ),
            Workload::ErdosRenyi => erdos_renyi_weighted(n, n * edge_factor, max_weight, seed),
            Workload::UniformDegree => {
                // Mirror the Boolean structure and stamp unit-or-uniform
                // weights per arc, keeping symmetry.
                let s = uniform_degree_undirected(n, edge_factor.clamp(1, n - 1), seed)?;
                let mut w = Matrix::<f64>::new(n, n)?;
                if max_weight <= 1 {
                    apply_matrix(&mut w, None, NOACC, unaryop::One, &s, &Descriptor::default())?;
                } else {
                    let mw = max_weight;
                    apply_matrix_indexed(
                        &mut w,
                        None,
                        NOACC,
                        move |i: Index, j: Index, _: bool| {
                            // Weight keyed on the unordered pair so both
                            // orientations agree.
                            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                            let mut st =
                                Stream::new(seed ^ 0x57ED_5EED, ((lo as u64) << 32) ^ hi as u64);
                            (1 + st.next_below(mw)) as f64
                        },
                        &s,
                        &Descriptor::default(),
                    )?;
                }
                Ok(w)
            }
        }
    }

    /// Generate this workload as an undirected [`Graph`].
    pub fn graph(
        self,
        scale: u32,
        edge_factor: usize,
        seed: u64,
        max_weight: u64,
    ) -> Result<Graph> {
        Graph::new(self.weighted(scale, edge_factor, seed, max_weight)?, GraphKind::Undirected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure() {
        let mut a = Stream::new(7, 3);
        let mut b = Stream::new(7, 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Stream::new(7, 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_is_in_range() {
        let mut s = Stream::new(1, 1);
        for _ in 0..1000 {
            assert!(s.next_below(10) < 10);
            let f = s.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn rmat_symmetric_loop_free() {
        let a = rmat(&RmatConfig { scale: 6, edge_factor: 4, ..Default::default() }).expect("rmat");
        assert_eq!(a.nrows(), 64);
        for (i, j, _) in a.iter() {
            assert_ne!(i, j);
            assert_eq!(a.get(j, i), Some(true));
        }
    }

    #[test]
    fn rmat_weighted_is_symmetric_in_values() {
        let a = rmat_weighted(&RmatConfig { scale: 6, edge_factor: 4, ..Default::default() }, 64)
            .expect("rmat");
        for (i, j, w) in a.iter() {
            assert!((1.0..=64.0).contains(&w));
            assert_eq!(a.get(j, i), Some(w), "weights must be symmetric at ({i},{j})");
        }
    }

    #[test]
    fn uniform_degree_is_exact() {
        let a = uniform_degree(50, 7, 9).expect("uniform");
        let mut deg = vec![0usize; 50];
        for (i, j, _) in a.iter() {
            assert_ne!(i, j);
            deg[i] += 1;
        }
        assert!(deg.iter().all(|&d| d == 7), "degrees {deg:?}");
    }

    #[test]
    fn uniform_degree_rejects_impossible() {
        assert!(uniform_degree(4, 4, 0).is_err());
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(257, 11);
        let mut seen = vec![false; 257];
        for &v in &p {
            assert!(!seen[v], "duplicate {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Deterministic in the seed, different across seeds.
        assert_eq!(p, permutation(257, 11));
        assert_ne!(p, permutation(257, 12));
    }

    #[test]
    fn sample_distinct_is_distinct_and_seeded() {
        for (n, k) in [(1000, 8), (16, 12), (5, 5), (5, 9), (7, 0)] {
            let s = sample_distinct(n, k, 3);
            assert_eq!(s.len(), k.min(n), "n={n} k={k}");
            let uniq: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(uniq.len(), s.len(), "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&v| v < n));
            assert_eq!(s, sample_distinct(n, k, 3), "must be pure in the seed");
        }
        assert_ne!(sample_distinct(1000, 8, 3), sample_distinct(1000, 8, 4));
    }

    #[test]
    fn erdos_renyi_collapses_duplicates() {
        let a = erdos_renyi(64, 200, 5).expect("er");
        assert!(a.nvals() <= 400);
        assert!(a.nvals() > 250);
        for (i, j, _) in a.iter() {
            assert_ne!(i, j);
            assert_eq!(a.get(j, i), Some(true));
        }
    }

    #[test]
    fn workload_parse_round_trips() {
        for w in [Workload::Rmat, Workload::ErdosRenyi, Workload::UniformDegree] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn workload_graphs_are_undirected_and_weighted() {
        for w in [Workload::Rmat, Workload::ErdosRenyi, Workload::UniformDegree] {
            let g = w.graph(6, 4, 11, 8).expect("graph");
            g.check().expect("structurally valid");
            for (i, j, x) in g.a().iter() {
                assert!((1.0..=8.0).contains(&x), "{}: weight {x} at ({i},{j})", w.name());
                assert_eq!(g.a().get(j, i), Some(x));
            }
        }
    }
}
