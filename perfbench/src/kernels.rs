//! The GAP kernel round both workload families time: BFS and SSSP per
//! source, PageRank, connected components, and Sandia triangle counting,
//! called through `lagraph`'s public functions. Every output is either
//! validated with the `lagraph::harness` validators or compared bit for
//! bit with the validated output of an earlier call on the same input.

use std::collections::BTreeMap;
use std::time::Instant;

use graphblas::{Direction, Index, Scalar, Vector};
use lagraph::harness::{verify_bfs_levels, verify_components, verify_pagerank, verify_sssp};
use lagraph::{
    bfs_level_matrix, connected_components, pagerank, sssp_delta_stepping, triangle_count, Graph,
    PageRankOptions, TriCountMethod,
};

/// Edge weights are drawn from `1..=MAX_WEIGHT`.
pub const MAX_WEIGHT: u64 = 255;
/// Delta-stepping bucket width: a quarter of the weight range.
pub const DELTA: f64 = MAX_WEIGHT as f64 / 4.0;
/// PageRank at a fixed 20 iterations (GAP's iteration cap): on graphs of
/// these scales the iterations needed to converge swing with the seed.
pub const PAGERANK: PageRankOptions =
    PageRankOptions { damping: 0.85, tolerance: 0.0, max_iters: 20 };

/// The five timed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    Bfs,
    Sssp,
    PageRank,
    Cc,
    TriCount,
}

impl Algo {
    pub const ALL: [Algo; 5] = [Algo::Bfs, Algo::Sssp, Algo::PageRank, Algo::Cc, Algo::TriCount];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::PageRank => "pagerank",
            Algo::Cc => "cc",
            Algo::TriCount => "tricount",
        }
    }
}

/// Per-call wall times in milliseconds, by kernel.
#[derive(Default)]
pub struct Samples {
    pub ms: BTreeMap<Algo, Vec<f64>>,
}

impl Samples {
    pub fn get(&self, a: Algo) -> &[f64] {
        self.ms.get(&a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Median per-call time of each kernel.
    pub fn medians(&self) -> BTreeMap<Algo, f64> {
        Algo::ALL.iter().map(|&a| (a, crate::stats::median(self.get(a)))).collect()
    }
}

/// Order-stable fingerprint of a sparse vector's entries.
fn fingerprint<T: Scalar>(v: &Vector<T>, bits: impl Fn(T) -> u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ v.nvals() as u64;
    for (i, x) in v.iter() {
        for w in [i as u64, bits(x)] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(23);
        }
    }
    h
}

/// The first output seen for each kernel input, kept for validation,
/// and the fingerprints later calls must reproduce.
#[derive(Default)]
pub struct Outputs {
    bfs: BTreeMap<Index, (Vector<i32>, u64)>,
    sssp: BTreeMap<Index, (Vector<f64>, u64)>,
    pagerank: Option<(Vector<f64>, u64)>,
    cc: Option<(Vector<u64>, u64)>,
    tricount: Option<u64>,
    /// Calls whose output differed from the first call on the same input.
    pub mismatches: u64,
}

impl Outputs {
    fn keep<T: Scalar>(
        slot: &mut Option<(Vector<T>, u64)>,
        v: Vector<T>,
        bits: impl Fn(T) -> u64,
        mismatches: &mut u64,
    ) {
        let f = fingerprint(&v, bits);
        match slot {
            Some((_, first)) => *mismatches += u64::from(*first != f),
            None => *slot = Some((v, f)),
        }
    }

    /// Validate every kept output against `graph` with the harness
    /// validators, cross-check the triangle count with a second method
    /// (untimed), and report any run-to-run output drift.
    pub fn validate(&self, graph: &Graph) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        let ok = |r: graphblas::Result<bool>| r.unwrap_or(false);
        let bfs_ok = self.bfs.iter().all(|(&s, (l, _))| ok(verify_bfs_levels(graph, s, l)));
        checks.push((format!("bfs levels valid ({} sources)", self.bfs.len()), bfs_ok));
        let sssp_ok = self.sssp.iter().all(|(&s, (d, _))| ok(verify_sssp(graph, s, d)));
        checks.push((format!("sssp distances valid ({} sources)", self.sssp.len()), sssp_ok));
        if let Some((r, _)) = &self.pagerank {
            checks.push(("pagerank is a distribution".into(), ok(verify_pagerank(graph, r, 1e-6))));
        }
        if let Some((c, _)) = &self.cc {
            checks.push(("cc labels valid".into(), ok(verify_components(graph, c))));
        }
        if let Some(n) = self.tricount {
            let cohen = triangle_count(graph, TriCountMethod::Cohen).ok();
            checks.push(("tricount matches Cohen method".into(), cohen == Some(n)));
        }
        checks.push(("repeated calls reproduce outputs".into(), self.mismatches == 0));
        checks
    }
}

/// The inputs of one kernel round.
pub struct Round<'g> {
    pub graph: &'g Graph,
    pub bfs_sources: &'g [Index],
    pub sssp_sources: &'g [Index],
}

impl Round<'_> {
    /// Kernel calls in one round.
    pub fn calls(&self) -> usize {
        self.bfs_sources.len() + self.sssp_sources.len() + 3
    }

    /// Run every kernel once per source (BFS, SSSP) or once (the rest),
    /// recording wall times. `after` sees each call's kernel and wall
    /// time (the traced pass drains the trace ring there). Returns the
    /// number of calls and the number that failed.
    pub fn run(
        &self,
        samples: &mut Samples,
        outputs: &mut Outputs,
        mut after: impl FnMut(Algo, u64),
    ) -> (u64, u64) {
        let (mut calls, mut failed) = (0u64, 0u64);
        let structure = match self.graph.structure() {
            Ok(s) => s,
            Err(_) => return (1, 1),
        };
        let mut timed = |algo: Algo, f: &mut dyn FnMut(&mut Outputs) -> graphblas::Result<()>| {
            let t = Instant::now();
            let r = f(outputs);
            let ns = t.elapsed().as_nanos() as u64;
            calls += 1;
            if r.is_err() {
                failed += 1;
            } else {
                samples.ms.entry(algo).or_default().push(ns as f64 / 1e6);
            }
            after(algo, ns);
        };
        for &s in self.bfs_sources {
            timed(Algo::Bfs, &mut |o| {
                let l = bfs_level_matrix(&structure, s, Direction::Auto)?;
                let f = fingerprint(&l, |x| x as u64);
                match o.bfs.get(&s) {
                    Some((_, first)) => o.mismatches += u64::from(*first != f),
                    None => {
                        o.bfs.insert(s, (l, f));
                    }
                }
                Ok(())
            });
        }
        for &s in self.sssp_sources {
            timed(Algo::Sssp, &mut |o| {
                let d = sssp_delta_stepping(self.graph, s, DELTA)?;
                let f = fingerprint(&d, f64::to_bits);
                match o.sssp.get(&s) {
                    Some((_, first)) => o.mismatches += u64::from(*first != f),
                    None => {
                        o.sssp.insert(s, (d, f));
                    }
                }
                Ok(())
            });
        }
        timed(Algo::PageRank, &mut |o| {
            let (r, _) = pagerank(self.graph, &PAGERANK)?;
            Outputs::keep(&mut o.pagerank, r, f64::to_bits, &mut o.mismatches);
            Ok(())
        });
        timed(Algo::Cc, &mut |o| {
            let c = connected_components(self.graph)?;
            Outputs::keep(&mut o.cc, c, |x| x, &mut o.mismatches);
            Ok(())
        });
        timed(Algo::TriCount, &mut |o| {
            let n = triangle_count(self.graph, TriCountMethod::Sandia)?;
            match o.tricount {
                Some(first) => o.mismatches += u64::from(first != n),
                None => o.tricount = Some(n),
            }
            Ok(())
        });
        (calls, failed)
    }
}

/// `k` distinct vertices with at least one edge, from a seeded
/// permutation of the vertex set.
pub fn pick_sources(graph: &Graph, k: usize, seed: u64) -> graphblas::Result<Vec<Index>> {
    let deg = graph.out_degree()?;
    Ok(lagraph::gen::permutation(graph.nvertices(), seed)
        .into_iter()
        .filter(|&v| deg.get(v).unwrap_or(0) > 0)
        .take(k)
        .collect())
}
