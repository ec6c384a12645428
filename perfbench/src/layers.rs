//! Per-layer analysis of the traced pass. Everything here is read from
//! outside the library: trace-ring events, the metrics registry, and
//! the service's stats structs. A layer's self time is its span's
//! duration minus the part its child spans on the same thread cover.

use std::collections::BTreeMap;

use graphblas::trace::{Cat, Event, RunAggregate};

use crate::kernels::Algo;
use crate::report::Report;

/// Ops whose self time the traced pass reports per kernel: the ones
/// that carry most of each kernel's time on these graphs.
pub const OPS_REPORTED: [(Algo, &str); 14] = [
    (Algo::Bfs, "mxv"),
    (Algo::Bfs, "assign"),
    (Algo::Bfs, "write"),
    (Algo::Sssp, "vxm"),
    (Algo::Sssp, "ewise_add"),
    (Algo::Sssp, "select"),
    (Algo::PageRank, "mxv"),
    (Algo::PageRank, "ewise_add"),
    (Algo::PageRank, "assign"),
    (Algo::Cc, "ewise_add"),
    (Algo::Cc, "mxv"),
    (Algo::Cc, "extract"),
    (Algo::TriCount, "mxm.fused"),
    (Algo::TriCount, "select"),
];

/// Views whose repair times are reported.
pub const VIEWS: [&str; 5] = ["cc", "pagerank", "degree", "tricount", "kcore"];

/// Service query kinds whose call times are reported.
pub const QUERY_KINDS: [&str; 5] =
    ["bfs_level", "degree", "connected_components", "triangle_count", "pagerank"];

/// The per-layer catalogue: name, unit, and the end-to-end metric and
/// workload the layer metric should move.
pub fn catalogue() -> Vec<(String, &'static str, String)> {
    let mut c: Vec<(String, &'static str, String)> = Vec::new();
    let mut add = |n: String, u: &'static str, m: &str| c.push((n, u, m.to_string()));
    add("gen.graph_s".into(), "s", "setup_s, all workloads");
    add("gen.structure_s".into(), "s", "setup_s, all workloads");
    for a in Algo::ALL {
        add(format!("{}.glue_frac", a.name()), "frac", &format!("{}_ms, analytics-rmat", a.name()));
    }
    for (a, op) in OPS_REPORTED {
        let moves = format!("{}_ms, analytics-rmat", a.name());
        add(format!("{}.ops.{op}.self_ms", a.name()), "ms", &moves);
    }
    for a in Algo::ALL {
        add(format!("{}.flops", a.name()), "count", &format!("{}_ms, analytics-rmat", a.name()));
        add(
            format!("{}.flops_per_s", a.name()),
            "1/s",
            &format!("{}_ms, analytics-rmat", a.name()),
        );
    }
    add("ops.specialized".into(), "count", "tricount_ms, pagerank_ms, analytics-rmat");
    add("ops.mxm_fused".into(), "count", "tricount_ms, analytics-rmat");
    add("cost.push_ns".into(), "ns", "bfs_ms, sssp_ms, analytics-rmat");
    add("cost.pull_ns".into(), "ns", "bfs_ms, sssp_ms, analytics-rmat");
    add("cost.push".into(), "count", "bfs_ms, sssp_ms, analytics-rmat");
    add("cost.pull".into(), "count", "bfs_ms, sssp_ms, analytics-rmat");
    add("cost.mispredict_ratio".into(), "frac", "bfs_ms, sssp_ms, analytics-rmat");
    add("parallel.dispatches".into(), "count", "pagerank_ms, tricount_ms, cc_ms, analytics-rmat");
    add(
        "parallel.seq_dispatch_frac".into(),
        "frac",
        "pagerank_ms, tricount_ms, cc_ms, analytics-rmat",
    );
    add(
        "parallel.chunk_imbalance".into(),
        "ratio",
        "pagerank_ms, tricount_ms, cc_ms, analytics-rmat",
    );
    for a in Algo::ALL {
        add(
            format!("parallel.speedup_1t.{}", a.name()),
            "x",
            &format!("{}_ms, analytics-rmat", a.name()),
        );
    }
    add("parallel.threads".into(), "count", "provenance, all workloads");
    add("parallel.pool_workers".into(), "count", "provenance, all workloads");
    add(
        "threads.pool.cpu_s".into(),
        "s",
        "query_p50_ms, serve-views (spinning pool); kernels, analytics-rmat",
    );
    add("threads.main.cpu_s".into(), "s", "kernel *_ms, analytics-rmat");
    let updates = "update_visible_*, analytics-rmat and serve-views";
    add("assembly.count".into(), "count", &format!("{updates}; sssp_ms"));
    add("assembly.self_ms".into(), "ms", &format!("{updates}; sssp_ms"));
    add("assembly.peak_pending".into(), "count", &format!("{updates}; peak_rss_mb"));
    add("assembly.peak_zombies".into(), "count", &format!("{updates}; peak_rss_mb"));
    add("memory.bytes_per_edge".into(), "B", "peak_rss_mb, all workloads");
    add("drainer.epochs_per_s".into(), "1/s", "update_visible_*, update_slo_ok_frac, serve-views");
    add("drainer.epoch_ms".into(), "ms", "update_visible_*, update_slo_ok_frac, serve-views");
    add("drainer.updates_per_epoch".into(), "count", "update_visible_*, serve-views");
    add("threads.drainer.cpu_s".into(), "s", "update_visible_*, serve-views");
    add("threads.coordinator.cpu_s".into(), "s", "update_visible_*, serve-views (view repair)");
    add("service.submit_us.p50".into(), "us", "update_visible_*, serve-views");
    add("service.submit_us.tail".into(), "us", "update_visible_*, serve-views");
    for k in QUERY_KINDS {
        add(format!("service.query_call_ms.{k}"), "ms", "query_*, serve-views");
    }
    add("admission.batch_width_mean".into(), "count", "query_*, serve-views");
    add("admission.batched_frac".into(), "frac", "query_*, serve-views");
    add("cache.hit_ratio".into(), "frac", "query_*, serve-views");
    for v in VIEWS {
        add(format!("views.{v}.repair_ms.p50"), "ms", "update_visible_*, serve-views");
        add(format!("views.{v}.repair_ms.tail"), "ms", "update_visible_*, serve-views");
    }
    add("views.repair_ratio".into(), "frac", "update_visible_*, serve-views");
    add("views.hit_ratio".into(), "frac", "query_*, serve-views");
    add("loadgen.late_p50_ms".into(), "ms", "validity of every serve-views number");
    add("loadgen.late_max_ms".into(), "ms", "validity of every serve-views number");
    add("loadgen.backlog_end".into(), "count", "validity of every serve-views number");
    add("threads.loadgen.cpu_s".into(), "s", "validity of every serve-views number");
    add("tracing.overhead_frac".into(), "frac", "validity of the traced pass");
    add("tracing.dropped".into(), "count", "validity of the traced pass (must be 0)");
    c
}

/// Emit every catalogue metric: measured values where the workload
/// exercises the layer, 0 (noted `n/a`) where it does not.
pub fn emit(report: &mut Report, values: &BTreeMap<String, (f64, usize)>) {
    for (name, unit, moves) in catalogue() {
        match values.get(&name) {
            Some(&(v, n)) => report.push(&name, v, unit, n, format!("moves {moves}")),
            None => report.push(&name, 0.0, unit, 0, format!("n/a here; moves {moves}")),
        }
    }
}

/// Layer breakdown of every traced call of one kernel.
#[derive(Default)]
pub struct AlgoLayers {
    pub calls: u64,
    pub wall_ns: u64,
    pub glue_ns: u64,
    pub op_self_ns: BTreeMap<&'static str, u64>,
    pub assembly_ns: u64,
    pub flops: u64,
}

/// Roll-up of the traced kernel calls.
#[derive(Default)]
pub struct KernelTrace {
    pub algos: BTreeMap<Algo, AlgoLayers>,
    pub agg: RunAggregate,
    /// Sum of per-dispatch max/mean chunk time, weighted by the
    /// dispatch's slowest chunk, and the weight.
    imbalance_sum: f64,
    imbalance_weight: f64,
}

impl KernelTrace {
    /// Fold in the events drained right after one kernel call made from
    /// a single calling thread.
    pub fn record_call(&mut self, algo: Algo, events: &[Event]) {
        for e in events {
            self.agg.record(e);
        }
        let Some(root) =
            events.iter().filter(|e| e.cat == Cat::Algo && e.dur_ns > 0).max_by_key(|e| e.dur_ns)
        else {
            return;
        };
        let layers = self.algos.entry(algo).or_default();
        layers.calls += 1;
        layers.wall_ns += root.dur_ns;
        layers.flops += RunAggregate::from_events(events).total_flops;
        let (t0, t1) = (root.t0_ns, root.t0_ns + root.dur_ns);
        let mut spans: Vec<&Event> = events
            .iter()
            .filter(|e| {
                e.tid == root.tid
                    && e.dur_ns > 0
                    && e.name != "chunk"
                    && e.t0_ns >= t0
                    && e.t0_ns + e.dur_ns <= t1
            })
            .collect();
        spans.sort_by_key(|e| (e.t0_ns, std::cmp::Reverse(e.dur_ns)));
        for (e, self_ns) in spans.iter().zip(self_times(&spans)) {
            match e.cat {
                Cat::Op => *layers.op_self_ns.entry(e.name).or_default() += self_ns,
                Cat::Runtime if e.name.starts_with("assemble") => layers.assembly_ns += self_ns,
                _ => layers.glue_ns += self_ns,
            }
        }
        self.record_imbalance(root.tid, events);
    }

    /// Group chunk spans by the `dispatch` instant that issued them (on
    /// one calling thread, a dispatch's chunks all start after it and
    /// finish before the next one) and take max/mean chunk time.
    fn record_imbalance(&mut self, caller: u64, events: &[Event]) {
        let mut dispatches: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.name == "dispatch" && e.dur_ns == 0 && e.tid == caller)
            .map(|e| (e.t0_ns, e.arg_u64("chunks").unwrap_or(0)))
            .collect();
        dispatches.sort_unstable();
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); dispatches.len()];
        for c in events.iter().filter(|e| e.name == "chunk" && e.dur_ns > 0) {
            let idx = dispatches.partition_point(|&(t, _)| t <= c.t0_ns);
            if idx > 0 {
                groups[idx - 1].push(c.dur_ns);
            }
        }
        for ((_, chunks), g) in dispatches.iter().zip(&groups) {
            if g.len() as u64 != *chunks || g.len() < 2 {
                continue;
            }
            let max = *g.iter().max().expect("non-empty") as f64;
            let mean = g.iter().sum::<u64>() as f64 / g.len() as f64;
            self.imbalance_sum += max / mean * max;
            self.imbalance_weight += max;
        }
    }

    pub fn chunk_imbalance(&self) -> Option<f64> {
        (self.imbalance_weight > 0.0).then(|| self.imbalance_sum / self.imbalance_weight)
    }

    /// Fill the algorithm, ops, cost and parallel layer values; counts
    /// are per kernel round.
    pub fn fill(&self, rounds: u64, v: &mut BTreeMap<String, (f64, usize)>) {
        let r = rounds.max(1) as f64;
        for (algo, l) in &self.algos {
            let n = l.calls as usize;
            let calls = l.calls.max(1) as f64;
            let a = algo.name();
            v.insert(format!("{a}.glue_frac"), (l.glue_ns as f64 / l.wall_ns.max(1) as f64, n));
            v.insert(format!("{a}.flops"), (l.flops as f64 / calls, n));
            v.insert(
                format!("{a}.flops_per_s"),
                (l.flops as f64 / (l.wall_ns.max(1) as f64 / 1e9), n),
            );
            for (op_algo, op) in OPS_REPORTED {
                if op_algo == *algo {
                    let ns = l.op_self_ns.get(op).copied().unwrap_or(0);
                    v.insert(format!("{a}.ops.{op}.self_ms"), (ns as f64 / 1e6 / calls, n));
                }
            }
        }
        let g = &self.agg;
        v.insert("ops.specialized".into(), (g.specialized as f64 / r, rounds as usize));
        v.insert("ops.mxm_fused".into(), (g.mxm_fused as f64 / r, rounds as usize));
        v.insert("cost.push".into(), (g.push as f64 / r, rounds as usize));
        v.insert("cost.pull".into(), (g.pull as f64 / r, rounds as usize));
        let products = (g.push + g.pull) as usize;
        v.insert(
            "cost.mispredict_ratio".into(),
            (g.mispredicts as f64 / products.max(1) as f64, products),
        );
        if let Some(im) = self.chunk_imbalance() {
            v.insert("parallel.chunk_imbalance".into(), (im, rounds as usize));
        }
    }

    /// Every (kernel, op) self time seen, for choosing [`OPS_REPORTED`].
    pub fn op_table(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (algo, l) in &self.algos {
            let mut ops: Vec<_> = l.op_self_ns.iter().collect();
            ops.sort_by_key(|(_, ns)| std::cmp::Reverse(**ns));
            let calls = l.calls.max(1) as f64;
            let parts: Vec<String> = ops
                .iter()
                .map(|(op, ns)| format!("{op}={:.3}ms", **ns as f64 / 1e6 / calls))
                .collect();
            out.push(format!(
                "ops-by-self-time {} (per call, wall {:.3}ms, glue {:.3}ms, assembly {:.3}ms): {}",
                algo.name(),
                l.wall_ns as f64 / 1e6 / calls,
                l.glue_ns as f64 / 1e6 / calls,
                l.assembly_ns as f64 / 1e6 / calls,
                parts.join(" ")
            ));
        }
        out
    }
}

/// Self time of each span in a start-ordered, properly nested list.
fn self_times(spans: &[&Event]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if spans[top].t0_ns + spans[top].dur_ns <= e.t0_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child[parent] += e.dur_ns;
        }
        stack.push(i);
    }
    spans.iter().zip(child).map(|(e, c)| e.dur_ns.saturating_sub(c)).collect()
}

/// Assembly totals over a batch of events from any threads.
pub fn assembly(events: &[Event]) -> (u64, u64) {
    let spans = events.iter().filter(|e| e.name.starts_with("assemble") && e.dur_ns > 0);
    spans.fold((0, 0), |(n, ns), e| (n + 1, ns + e.dur_ns))
}

/// The value of the first registry series whose name starts with
/// `prefix` and carries every `label="value"` pair in `labels`.
pub fn registry_sum(snapshot: &[(String, f64)], prefix: &str, labels: &[&str]) -> f64 {
    snapshot
        .iter()
        .filter(|(k, _)| {
            k.starts_with(prefix)
                && k[prefix.len()..].chars().next().is_none_or(|c| c == '{')
                && labels.iter().all(|l| k.contains(l))
        })
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let mut names = 0;
        for (name, unit) in crate::report::END_TO_END {
            assert!(
                flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
                "{name}"
            );
            names += 1;
        }
        for (name, unit, _) in catalogue() {
            assert!(
                flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
                "{name}"
            );
            names += 1;
        }
        let workloads = flat.matches("\"why\":").count();
        assert_eq!(flat.matches("\"name\":").count(), names + workloads);
        assert!(catalogue().len() <= 128);
    }
}
