//! Experiment S1: query latency under sustained update churn.
//!
//! The serving claim behind `lagraph::service` is that snapshot isolation
//! makes read latency *independent of write load*: queries run against an
//! immutable epoch while the drainer absorbs the stream through pending
//! tuples and zombies. This bench measures it directly — BFS, PageRank
//! and triangle-count latency percentiles on a quiescent service, then
//! again with writer threads saturating the update log — and reports
//! p50/p95/p99 side by side plus drainer throughput.
//!
//! Custom harness (criterion's model fits closed-loop microbenches, not
//! an open system with background threads). `SERVICE_CHURN_SECS` bounds
//! each measured phase; CI smoke sets it to 1.
//!
//! **Closed-loop mode** (`SERVICE_CHURN_CLOSED=<threads>`): instead of
//! the two-phase experiment, N query threads issue BFS-level queries
//! back-to-back through the *admission layer* (so concurrent queries
//! batch into multi-source traversals) while writers churn the log, and
//! the run reports sustained qps plus p50/p95/p99 latency — the SLO
//! numbers a sharded deployment is sized by. `SERVICE_CHURN_SHARDS`
//! sets the shard count and `SERVICE_CHURN_OUT=<path>` writes the
//! results as a JSON artifact for CI trend lines.
//!
//! **Views mode** (`SERVICE_CHURN_VIEWS=1`, closed-loop only): the
//! service registers every materialized view, the query mix rotates
//! through view-servable algorithms alongside BFS, and the artifact
//! gains per-view repair latency percentiles (read back from the
//! `lagraph_service_view_repair_seconds` histograms) plus the
//! repair-vs-rebuild split — the numbers that say whether incremental
//! maintenance is actually absorbing the churn.

use graphblas::metrics;
use lagraph::gen::{rmat_graph, RmatConfig};
use lagraph::service::{GraphService, Query, ServiceConfig, ViewKind, ViewsConfig};
use lagraph::{bfs_level, pagerank, triangle_count, PageRankOptions, TriCountMethod};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn report(label: &str, query: &str, samples: &mut [Duration]) {
    samples.sort();
    println!(
        "{label:<9} {query:<10} n={:<5} p50={:>9.3?} p95={:>9.3?} p99={:>9.3?} max={:>9.3?}",
        samples.len(),
        percentile(samples, 0.50),
        percentile(samples, 0.95),
        percentile(samples, 0.99),
        samples.last().copied().unwrap_or_default(),
    );
}

/// Run each query in a closed loop for `secs`, returning per-query
/// latency samples.
fn measure(service: &GraphService, secs: u64) -> [Vec<Duration>; 3] {
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut source = 0usize;
    while Instant::now() < deadline {
        let snap = service.snapshot();
        let g = snap.graph();
        let n = g.nvertices();

        let t = Instant::now();
        bfs_level(g, source % n).expect("bfs");
        out[0].push(t.elapsed());

        let t = Instant::now();
        pagerank(g, &PageRankOptions { max_iters: 10, ..PageRankOptions::default() })
            .expect("pagerank");
        out[1].push(t.elapsed());

        let t = Instant::now();
        triangle_count(g, TriCountMethod::Sandia).expect("tricount");
        out[2].push(t.elapsed());

        source = source.wrapping_add(17);
    }
    out
}

/// Spawn `writers` churn threads against the service; returns the stop
/// flag, the accepted-update counter, and the join handles.
fn spawn_writers(
    service: &Arc<GraphService>,
    writers: usize,
    n: usize,
) -> (Arc<AtomicBool>, Arc<AtomicU64>, Vec<std::thread::JoinHandle<()>>) {
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let service = Arc::clone(service);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            std::thread::spawn(move || {
                let mut state = (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut local = 0u64;
                while !stop.load(Relaxed) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let i = state as usize % n;
                    let j = (state >> 32) as usize % n;
                    let r = if state.is_multiple_of(8) {
                        service.delete_edge(i, j)
                    } else {
                        service.insert_edge(i, j, 1.0)
                    };
                    if r.is_ok() {
                        local += 1;
                    }
                }
                writes.fetch_add(local, Relaxed);
            })
        })
        .collect();
    (stop, writes, handles)
}

/// Read one gauge back from the rendered exposition page (the
/// percentile companions exist only there, not in `snapshot()`).
fn rendered_gauge(page: &str, key: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.trim().parse::<f64>().ok()))
        .unwrap_or(0.0)
}

/// Closed-loop SLO mode: `threads` query threads running admitted
/// queries back-to-back under writer churn — BFS-level only, or (in
/// views mode) a rotation that also exercises the view-served
/// algorithms. Reports qps and latency percentiles; optionally writes a
/// JSON artifact.
fn run_closed_loop(
    service: Arc<GraphService>,
    threads: usize,
    secs: u64,
    shards: usize,
    views: bool,
) {
    let n = service.snapshot().graph().nvertices();
    let (stop, writes, writer_handles) = spawn_writers(&service, 4, n);

    let epoch0 = service.snapshot().epoch();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(secs);
    let mut samples: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut state = (t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
                    let mut local = Vec::new();
                    while Instant::now() < deadline {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let source = state as usize % n;
                        let q = if views {
                            match state % 4 {
                                0 => Query::bfs_level(source),
                                1 => Query::connected_components(),
                                2 => Query::degrees(),
                                _ => Query::triangle_count(),
                            }
                        } else {
                            Query::bfs_level(source)
                        };
                        let t0 = Instant::now();
                        service.query(q).expect("query");
                        local.push(t0.elapsed());
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("query thread")).collect()
    });
    let wall = start.elapsed();
    stop.store(true, Relaxed);
    for w in writer_handles {
        w.join().expect("writer");
    }

    let queries = samples.len() as u64;
    let qps = queries as f64 / wall.as_secs_f64();
    samples.sort();
    let (p50, p95, p99) =
        (percentile(&samples, 0.50), percentile(&samples, 0.95), percentile(&samples, 0.99));
    let stats = service.stats();
    let adm = service.admission_stats();
    let epochs = stats.epoch - epoch0;
    println!(
        "closed-loop shards={shards} threads={threads}: {queries} queries in {wall:.2?} \
         ({qps:.0} qps) p50={p50:.3?} p95={p95:.3?} p99={p99:.3?}"
    );
    println!(
        "closed-loop load: {} updates ({} epochs), admission batches={} batched_queries={} \
         cache hit/miss={}/{} view_hits={}",
        writes.load(Relaxed),
        epochs,
        adm.batches,
        adm.batched_queries,
        adm.cache_hits,
        adm.cache_misses,
        adm.view_hits,
    );

    // In views mode, pull the per-view repair split and the repair
    // latency percentiles (from the rendered histogram companions) into
    // the report and the artifact.
    let mut views_json = String::new();
    if views {
        let page = metrics::render();
        let mut repairs_total = 0u64;
        let mut refreshes_total = 0u64;
        for vs in service.view_stats() {
            let name = vs.view.name();
            repairs_total += vs.repairs;
            refreshes_total += vs.repairs + vs.rebuilds;
            let pct = |q: &str| {
                let key = format!("lagraph_service_view_repair_seconds_{q}{{view=\"{name}\"}}");
                rendered_gauge(&page, &key) * 1e6 // seconds → µs
            };
            let (rp50, rp95, rp99) = (pct("p50"), pct("p95"), pct("p99"));
            println!(
                "view {name:<9} repairs={:<4} rebuilds={:<3} served={:<6} \
                 repair p50={rp50:.1}us p95={rp95:.1}us p99={rp99:.1}us",
                vs.repairs, vs.rebuilds, vs.served,
            );
            views_json.push_str(&format!(
                ",\n  \"view_{name}_repairs\": {},\n  \"view_{name}_rebuilds\": {},\n  \
                 \"view_{name}_served\": {},\n  \"view_{name}_repair_p50_us\": {rp50:.1},\n  \
                 \"view_{name}_repair_p95_us\": {rp95:.1},\n  \
                 \"view_{name}_repair_p99_us\": {rp99:.1}",
                vs.repairs, vs.rebuilds, vs.served,
            ));
        }
        let ratio =
            if refreshes_total > 0 { repairs_total as f64 / refreshes_total as f64 } else { 0.0 };
        println!("view repair ratio: {ratio:.3} ({repairs_total}/{refreshes_total} refreshes)");
        views_json.push_str(&format!(
            ",\n  \"view_hits\": {},\n  \"view_repair_ratio\": {ratio:.3}",
            adm.view_hits,
        ));
    }

    if let Ok(path) = std::env::var("SERVICE_CHURN_OUT") {
        // Hand-rolled JSON (no serde in the bench tree): flat scalar
        // fields only, stable key order for easy diffing in CI.
        let json = format!(
            "{{\n  \"bench\": \"service_churn\",\n  \"mode\": \"closed-loop\",\n  \
             \"views\": {views},\n  \
             \"shards\": {shards},\n  \"threads\": {threads},\n  \"secs\": {secs},\n  \
             \"queries\": {queries},\n  \"qps\": {qps:.1},\n  \"p50_us\": {},\n  \
             \"p95_us\": {},\n  \"p99_us\": {},\n  \"updates\": {},\n  \"epochs\": {epochs},\n  \
             \"batches\": {},\n  \"batched_queries\": {},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {}{views_json}\n}}\n",
            p50.as_micros(),
            p95.as_micros(),
            p99.as_micros(),
            writes.load(Relaxed),
            adm.batches,
            adm.batched_queries,
            adm.cache_hits,
            adm.cache_misses,
        );
        std::fs::write(&path, json).expect("write SERVICE_CHURN_OUT artifact");
        println!("closed-loop: wrote {path}");
    }
}

fn main() {
    let secs: u64 =
        std::env::var("SERVICE_CHURN_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let scale = 12; // 4096 vertices, ~64k edges: big enough to make
                    // assembly and queries non-trivial, small enough for CI
    let graph = rmat_graph(&RmatConfig { scale, edge_factor: 16, seed: 42, ..Default::default() })
        .expect("rmat");
    let n = graph.nvertices();
    println!("service_churn: rmat scale={scale} n={n} e={} phase={secs}s", graph.nedges());

    // Shard count: SERVICE_CHURN_SHARDS wins, then the service-level
    // LAGRAPH_SERVICE_* env knobs, then the config default.
    let mut config = ServiceConfig::from_env();
    if let Some(s) = std::env::var("SERVICE_CHURN_SHARDS").ok().and_then(|v| v.parse().ok()) {
        config.shards = std::cmp::max(1, s);
    }
    let shards = config.shards;

    // Views mode: register every materialized view and turn the metrics
    // registry on so the repair-latency histograms record.
    let views = std::env::var("SERVICE_CHURN_VIEWS").map(|v| v == "1").unwrap_or(false);
    if views {
        metrics::set_enabled(true);
        if config.views.is_none() {
            // Saturating writers produce epochs far beyond the default
            // staleness budget; the point of this mode is to measure
            // the incremental repair path, so lift the budget (set
            // LAGRAPH_VIEWS / LAGRAPH_VIEWS_STALENESS to override).
            config.views = Some(ViewsConfig { staleness: usize::MAX, ..ViewsConfig::default() });
        }
        println!("service_churn: views mode on ({} views registered)", ViewKind::ALL.len());
    }

    let service = Arc::new(GraphService::new(graph, config).expect("service"));

    if let Some(threads) =
        std::env::var("SERVICE_CHURN_CLOSED").ok().and_then(|v| v.parse::<usize>().ok())
    {
        run_closed_loop(service, threads.max(1), secs, shards, views);
        return;
    }

    // Phase 1: quiescent baseline.
    let mut base = measure(&service, secs);
    for (q, s) in ["bfs", "pagerank", "tricount"].iter().zip(base.iter_mut()) {
        report("baseline", q, s);
    }

    // Phase 2: the same closed loop with writers saturating the log.
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            std::thread::spawn(move || {
                let mut state = (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut local = 0u64;
                while !stop.load(Relaxed) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let i = state as usize % n;
                    let j = (state >> 32) as usize % n;
                    let r = if state.is_multiple_of(8) {
                        service.delete_edge(i, j)
                    } else {
                        service.insert_edge(i, j, 1.0)
                    };
                    if r.is_ok() {
                        local += 1;
                    }
                }
                writes.fetch_add(local, Relaxed);
            })
        })
        .collect();

    let churn_start = Instant::now();
    let epoch0 = service.snapshot().epoch();
    let mut churn = measure(&service, secs);
    let wall = churn_start.elapsed();
    stop.store(true, Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
    for (q, s) in ["bfs", "pagerank", "tricount"].iter().zip(churn.iter_mut()) {
        report("churn", q, s);
    }

    let stats = service.stats();
    let epochs = stats.epoch - epoch0;
    println!(
        "churn load: {} updates accepted ({:.0}/s), {} epochs ({:.1}/s), queue depth {} at end",
        writes.load(Relaxed),
        writes.load(Relaxed) as f64 / wall.as_secs_f64(),
        epochs,
        epochs as f64 / wall.as_secs_f64(),
        stats.queue_depth,
    );
}
