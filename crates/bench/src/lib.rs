//! Shared helpers for the benchmark harness: graph construction,
//! criterion configuration, and simple wall-clock measurement for the
//! table/figure regeneration binaries. The [`harness`] module is the
//! GAP-style end-to-end harness behind the `lagraph-bench` binary, and
//! [`json`] its dependency-free report format.

pub mod harness;
pub mod json;

use graphblas::prelude::*;
use graphblas::trace;
use lagraph::gen::{permutation, random_matrix, rmat, RmatConfig};
use std::time::{Duration, Instant};

/// Criterion settings tuned so the full `cargo bench` pass finishes in
/// minutes: statistical rigor is secondary to reproducing the *shape* of
/// the paper's comparisons.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .configure_from_args()
}

/// The Boolean structure of an RMAT graph, with dual storage enabled so
/// both push and pull kernels are available.
pub fn rmat_structure_dual(scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let mut adj = rmat(&RmatConfig { scale, edge_factor, seed, ..Default::default() })
        .expect("rmat generation");
    adj.set_dual_storage(true);
    adj.wait();
    adj
}

/// A sparse Boolean frontier with exactly `min(k, n)` distinct,
/// uniformly-spread entries.
pub fn frontier(n: Index, k: usize) -> Vector<bool> {
    let k = k.clamp(1, n);
    let stride = n / k;
    let tuples: Vec<(Index, bool)> = (0..k).map(|t| (t * stride, true)).collect();
    Vector::from_tuples(n, tuples, |_, b| b).expect("frontier dims")
}

/// `e` uniform random entries of an `n × n` matrix (duplicate draws
/// collapsed) as a tuple list in random order, the input shape of the
/// build benchmarks.
pub fn random_tuples(n: Index, e: usize, seed: u64) -> Vec<(Index, Index, f64)> {
    let t = random_matrix(n, n, e, seed).expect("random matrix").extract_tuples();
    permutation(t.len(), seed).into_iter().map(|k| t[k]).collect()
}

/// Run `f` once with tracing in record mode on an emptied ring, leaving
/// its events for the caller to drain. The previous trace mode is
/// restored, so the timed criterion loops stay untraced.
fn traced<R>(f: impl FnOnce() -> R) -> R {
    let prev = trace::mode();
    trace::clear();
    trace::set_mode(trace::Mode::Record);
    let r = f();
    trace::set_mode(prev);
    r
}

/// Run `f` once traced and print one compact [`trace::RunAggregate`]
/// line, so a bench run shows *which* kernels and directions the
/// measured configuration actually took.
pub fn report_run<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let r = traced(f);
    let s = trace::RunAggregate::from_events(&trace::drain());
    eprintln!(
        "run[{label}]: mxm g/d/h={}/{}/{} mxv push/pull/fallback={}/{}/{} \
         flops~{} chunks={} early_exits={} assemblies={}",
        s.mxm_gustavson,
        s.mxm_dot,
        s.mxm_heap,
        s.push,
        s.pull,
        s.direction_fallbacks,
        s.total_flops,
        s.chunks,
        s.early_exits,
        s.assemblies,
    );
    r
}

/// Run `f` once traced and print the aggregated [`trace::Profile`] table
/// (per-span counts, latency quantiles, flops) for that single
/// invocation: benches profile one representative run instead of tracing
/// the timed loops.
pub fn profile_once<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let r = traced(f);
    let profile = trace::Profile::collect();
    if !profile.ops.is_empty() {
        eprint!("profile[{label}]\n{}", profile.report());
    }
    r
}

/// Wall-clock one invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Median wall-clock over `reps` invocations.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Format a duration in adaptive units for table printing.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3} s", us as f64 / 1_000_000.0)
    }
}
