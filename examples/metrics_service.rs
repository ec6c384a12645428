//! Serve a live graph under churn and scrape its own Prometheus
//! endpoint.
//!
//! Demonstrates the whole live-metrics loop in one process:
//!
//! 1. metrics on + a `/metrics` endpoint bound to an ephemeral port
//!    (production sets `GRAPHBLAS_METRICS_ADDR=host:port` instead);
//! 2. a [`GraphService`] draining a stream of edge updates into epochs
//!    while BFS/PageRank queries run against its snapshots — which feeds
//!    queue-depth/epoch-lag/resident-bytes gauges and per-algorithm
//!    latency histograms without any extra instrumentation;
//! 3. an HTTP `GET /metrics` against our own listener, printing the
//!    service and algorithm series a scraper would collect.
//!
//! Run with: `cargo run --release --example metrics_service`

use lagraph_suite::graphblas::metrics;
use lagraph_suite::lagraph::gen::erdos_renyi_weighted;
use lagraph_suite::lagraph::service::{GraphService, ServiceConfig};
use lagraph_suite::prelude::*;
use std::io::{Read as _, Write as _};

fn main() -> graphblas::Result<()> {
    metrics::set_enabled(true);
    let addr = metrics::serve("127.0.0.1:0").expect("bind metrics endpoint");
    println!("metrics endpoint: http://{addr}/metrics (and /healthz)");

    // A small random graph to serve.
    let n = 1 << 10;
    let adj = erdos_renyi_weighted(n, 8 * n, 1, 42)?;
    let g = Graph::new(adj, GraphKind::Directed)?;
    println!("serving: {n} vertices, {} edges", g.nedges());
    let service = GraphService::new(g, ServiceConfig::default()).expect("start service");

    // Churn: stream updates and run queries across several epochs.
    let mut state = 0xC0FFEEu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    for round in 0..5 {
        for _ in 0..2_000 {
            let (i, j) = (rng() % n, rng() % n);
            if rng() % 8 == 0 {
                service.delete_edge(i, j).expect("delete");
            } else {
                service.insert_edge(i, j, 1.0).expect("insert");
            }
        }
        let snap = service.flush().expect("flush");
        let levels = bfs_level(snap.graph(), rng() % n)?;
        let (_, iters) = pagerank(snap.graph(), &PageRankOptions::default())?;
        println!(
            "round {round}: epoch {} ({} edges, bfs reached {}, pagerank {iters} iters)",
            snap.epoch(),
            snap.nedges(),
            levels.nvals(),
        );
    }

    // Scrape ourselves, exactly as Prometheus would.
    let health = http_get(&addr.to_string(), "/healthz");
    assert_eq!(health.trim(), "ok", "readiness probe failed");
    let page = http_get(&addr.to_string(), "/metrics");
    assert!(page.contains("lagraph_service_epoch_lag_seconds"), "missing epoch lag");
    assert!(page.contains("lagraph_service_queue_depth{shard=\"0\"}"), "missing queue depth");
    assert!(page.contains("lagraph_service_resident_bytes"), "missing resident bytes");
    assert!(page.contains("graphblas_span_seconds_p99"), "missing per-algorithm p99");

    println!("\nscraped {} bytes; service + algorithm series:", page.len());
    for line in page.lines() {
        if line.starts_with("lagraph_service_")
            || (line.starts_with("graphblas_span_seconds_p99") && line.contains("algo"))
        {
            println!("  {line}");
        }
    }
    Ok(())
}

/// A minimal HTTP/1.1 GET, returning the response body.
fn http_get(addr: &str, path: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("malformed response");
    assert!(head.starts_with("HTTP/1.1 200"), "unexpected status: {head}");
    body.to_string()
}
