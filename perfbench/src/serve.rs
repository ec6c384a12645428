//! The `serve-views` workload: a `GraphService` with all five analytic
//! views over an RMAT graph, driven open loop by two client threads (no
//! more than the host's CPU count), each sending seeded Poisson streams
//! of mixed queries and edge inserts.
//! Latencies run from each operation's due time, so a stall counts
//! against every operation it delays. A third thread only observes:
//! it polls `stats().processed` to time when each update became
//! visible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use graphblas::trace::{self, Event};
use graphblas::{Index, Vector};
use lagraph::gen::Workload;
use lagraph::harness::verify_bfs_levels;
use lagraph::service::{
    AdmissionStats, GraphService, Query, QueryResult, ServiceConfig, Update, ViewsConfig,
};
use lagraph::{bfs_level, connected_components, core_numbers, pagerank, triangle_count, Graph};
use lagraph::{PageRankOptions, TriCountMethod};

use crate::host;
use crate::kernels::{pick_sources, Algo, Outputs, Round, Samples, MAX_WEIGHT};
use crate::layers::{self, KernelTrace};
use crate::probe::Probe;
use crate::report::Report;
use crate::stats::{median, tail, Rng};
use crate::Args;

/// Query kinds a client may send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bfs,
    Degrees,
    Cc,
    TriCount,
    PageRank,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Bfs => "bfs_level",
            Kind::Degrees => "degree",
            Kind::Cc => "connected_components",
            Kind::TriCount => "triangle_count",
            Kind::PageRank => "pagerank",
        }
    }

    fn query(self, source: Index) -> Query {
        match self {
            Kind::Bfs => Query::bfs_level(source),
            Kind::Degrees => Query::degrees(),
            Kind::Cc => Query::connected_components(),
            Kind::TriCount => Query::triangle_count(),
            Kind::PageRank => Query::pagerank(&PageRankOptions::default()),
        }
    }

    /// A cheap shape check of an answer; the full check against a
    /// from-scratch computation runs after the window.
    fn sane(self, r: &QueryResult, source: Index, n: Index) -> bool {
        match self {
            Kind::Bfs => r.levels().is_some_and(|l| l.get(source) == Some(1)),
            Kind::Degrees => r.degrees().is_some(),
            Kind::Cc => r.components().is_some_and(|c| c.nvals() == n),
            Kind::TriCount => r.count().is_some(),
            Kind::PageRank => r.ranks().is_some_and(|(v, _)| v.nvals() == n),
        }
    }
}

const SCALE: u32 = 12;
/// Queries per second, summed over clients.
const QUERY_RATE: f64 = 100.0;
/// Edge inserts per second, summed over clients. Inserts only: a delete
/// makes the k-core view rebuild (it has no delete repair), which pins
/// update visibility above the SLO (see README.md). The graph grows: at
/// 500/s a 40 s run adds about 40% to the scale-12 graph.
const UPDATE_RATE: f64 = 500.0;
/// Query kinds and their weights.
const MIX: [(Kind, u64); 5] = [
    (Kind::Bfs, 70),
    (Kind::Degrees, 10),
    (Kind::Cc, 10),
    (Kind::TriCount, 5),
    (Kind::PageRank, 5),
];

/// Client threads; at most the host's CPU count.
const CLIENTS: usize = 2;
const EDGE_FACTOR: usize = 16;
/// Set-ups per run; `setup_s` is their median at reference speed.
/// Serving set-up is short, so more repeats steady it.
const SETUPS: usize = 5;
/// Candidate BFS sources for queries.
const QUERY_SOURCES: usize = 256;
/// How long after the window clients may keep sending operations that
/// fell due inside it; anything still unsent then counts as failed.
const DRAIN_GRACE_S: f64 = 5.0;
/// The `*_ms` kernel metrics of a serving workload are timed on the
/// final snapshot and on `FINAL_GRAPHS - 1` fresh seeded graphs of the
/// same scale, round robin: at these scales one graph's kernel work
/// swings by a fifth from seed to seed, and the mix steadies it.
const FINAL_GRAPHS: usize = 6;
/// Kernel rounds run for this share of the window, half before it and
/// half after.
const FINAL_SHARE: f64 = 0.2;
const FINAL_BFS_SOURCES: usize = 16;
const FINAL_SSSP_SOURCES: usize = 2;
/// Latency tails are the median over this many equal time slices of
/// the window.
const TAIL_SLICES: usize = 8;
/// BFS answers checked against a from-scratch run after the flush.
const VERIFY_BFS: usize = 8;

struct Setup {
    service: GraphService,
    sources: Vec<Index>,
    n: Index,
    gen_s: f64,
    structure_s: f64,
    setup_s: f64,
}

/// One graph of the serving workloads' from-scratch kernel rounds, with
/// its sources and the outputs its rounds must reproduce.
struct KernelInput<'g> {
    graph: &'g Graph,
    bfs: Vec<Index>,
    sssp: Vec<Index>,
    outputs: Outputs,
}

impl<'g> KernelInput<'g> {
    /// Pick sources and run one untimed warm-up round.
    fn new(graph: &'g Graph, seed: u64) -> Result<KernelInput<'g>, String> {
        let bfs = pick_sources(graph, FINAL_BFS_SOURCES, seed ^ 0xB5).map_err(|e| e.to_string())?;
        let sssp =
            pick_sources(graph, FINAL_SSSP_SOURCES, seed ^ 0x55).map_err(|e| e.to_string())?;
        let mut inp = KernelInput { graph, bfs, sssp, outputs: Outputs::default() };
        inp.run(&mut Samples::default(), |_| {});
        Ok(inp)
    }

    /// One kernel round on this graph; returns (calls, failed).
    fn run(&mut self, samples: &mut Samples, mut after: impl FnMut(Algo)) -> (u64, u64) {
        let round = Round { graph: self.graph, bfs_sources: &self.bfs, sssp_sources: &self.sssp };
        round.run(samples, &mut self.outputs, |a, _| after(a))
    }
}

/// Kernel rounds round robin over `inputs` for `seconds` (and one round
/// per input at least), each after a probe of the host's speed; returns
/// the rounds run.
fn kernel_phase(
    inputs: &mut [KernelInput],
    probe: &mut Probe,
    seconds: f64,
    samples: &mut Samples,
    report: &mut Report,
    mut after: impl FnMut(Algo),
) -> u64 {
    let t = Instant::now();
    let mut rounds = 0u64;
    while rounds < inputs.len() as u64 || t.elapsed().as_secs_f64() < seconds {
        let inp = &mut inputs[rounds as usize % inputs.len()];
        rounds += 1;
        probe.take();
        let (calls, failed) = inp.run(samples, &mut after);
        report.attempted += calls;
        report.failed += failed;
    }
    rounds
}

/// Generate the graph and its dual structure, start the service (views
/// materialize here), and warm up: one query of each kind and a flushed
/// batch of updates.
fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let graph =
        Workload::Rmat.graph(SCALE, EDGE_FACTOR, seed, MAX_WEIGHT).map_err(|e| e.to_string())?;
    let gen_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    graph.structure().map_err(|e| e.to_string())?.wait();
    let structure_s = t1.elapsed().as_secs_f64();
    let sources = pick_sources(&graph, QUERY_SOURCES, seed ^ 0x5E).map_err(|e| e.to_string())?;
    let n = graph.nvertices();
    let config = ServiceConfig { views: Some(ViewsConfig::default()), ..ServiceConfig::default() };
    let service = GraphService::new(graph, config).map_err(|e| e.to_string())?;
    for (kind, _) in MIX {
        service.query(kind.query(sources[0])).map_err(|e| e.to_string())?;
    }
    let mut rng = Rng::new(seed, 0x3A);
    for _ in 0..64 {
        let (i, j, w) = random_edge(&mut rng, n);
        service.insert_edge(i, j, w).map_err(|e| e.to_string())?;
    }
    service.flush().map_err(|e| e.to_string())?;
    Ok(Setup { service, sources, n, gen_s, structure_s, setup_s: t.elapsed().as_secs_f64() })
}

fn random_edge(rng: &mut Rng, n: Index) -> (Index, Index, f64) {
    let i = rng.below(n as u64) as Index;
    let j = (i + 1 + rng.below(n as u64 - 1) as Index) % n;
    (i, j, (1 + rng.below(MAX_WEIGHT)) as f64)
}

/// One answered query.
struct Answered {
    kind: Kind,
    /// Due time, seconds since the window opened.
    due_s: f64,
    /// From due time to answer.
    latency_ms: f64,
    /// The `query` call alone.
    call_ms: f64,
}

/// What one client recorded.
#[derive(Default)]
struct ClientLog {
    queries: Vec<Answered>,
    failed_queries: u64,
    /// (due in seconds since the window opened, `submitted` count after
    /// the submit returned) of accepted updates.
    updates: Vec<(f64, u64)>,
    failed_updates: u64,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Operations due inside the window but unsent when it ended.
    backlog_end: u64,
    /// Operations still unsent when the grace period ran out.
    unsent: u64,
    /// CPU seconds this client thread used.
    cpu_s: f64,
}

/// A client's arrivals inside the window: independent Poisson streams of
/// queries and updates, as `(due seconds, is_query)` in due order.
/// Random gaps keep the two clients from locking into a fixed phase for
/// the whole run, which a fixed-rate schedule does for some seeds.
fn schedule(rng: &mut Rng, query_rate: f64, update_rate: f64, window: f64) -> Vec<(f64, bool)> {
    let mut out = Vec::new();
    for (rate, is_query) in [(query_rate, true), (update_rate, false)] {
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= window {
                break;
            }
            out.push((t, is_query));
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

fn client(s: &Setup, rng: &mut Rng, start: Instant, window: f64) -> ClientLog {
    let mut log = ClientLog::default();
    let clients = CLIENTS as f64;
    let arrivals = schedule(rng, QUERY_RATE / clients, UPDATE_RATE / clients, window);
    let weight_sum: u64 = MIX.iter().map(|(_, w)| w).sum();
    let mut past_window = false;
    for (sent, &(due, is_query)) in arrivals.iter().enumerate() {
        let mut now = start.elapsed().as_secs_f64();
        if !past_window && now >= window {
            past_window = true;
            log.backlog_end = (arrivals.len() - sent) as u64;
        }
        if now >= window + DRAIN_GRACE_S {
            log.unsent = (arrivals.len() - sent) as u64;
            break;
        }
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
            now = start.elapsed().as_secs_f64();
        }
        log.late_ms.push((now - due) * 1e3);
        if is_query {
            let mut pick = rng.below(weight_sum);
            let kind = MIX
                .iter()
                .find(|(_, w)| {
                    let hit = pick < *w;
                    pick = pick.saturating_sub(*w);
                    hit
                })
                .map(|(k, _)| *k)
                .unwrap_or(Kind::Bfs);
            let source = s.sources[rng.below(s.sources.len() as u64) as usize];
            let sent = Instant::now();
            let r = s.service.query(kind.query(source));
            let done = start.elapsed().as_secs_f64();
            match r {
                Ok(res) if kind.sane(&res, source, s.n) => log.queries.push(Answered {
                    kind,
                    due_s: due,
                    latency_ms: (done - due) * 1e3,
                    call_ms: sent.elapsed().as_secs_f64() * 1e3,
                }),
                _ => log.failed_queries += 1,
            }
        } else {
            let (i, j, w) = random_edge(rng, s.n);
            let t = Instant::now();
            let r = s.service.submit(Update::Insert(i, j, w));
            log.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            match r {
                Ok(()) => log.updates.push((due, s.service.stats().submitted)),
                Err(_) => log.failed_updates += 1,
            }
        }
    }
    log.cpu_s = host::own_cpu_s();
    log
}

/// One open-loop window and what the service reported around it.
struct Window {
    logs: Vec<ClientLog>,
    /// Per accepted update: (due s, ms from due until `processed`
    /// covered it).
    visible: Vec<(f64, f64)>,
    cpu: BTreeMap<&'static str, f64>,
    epochs: u64,
    processed: u64,
    admission: AdmissionStats,
    views: Vec<(u64, u64, u64)>,
    seconds: f64,
    /// Events kept from the trace ring when tracing was on.
    events: Vec<Event>,
    traced_agg: graphblas::trace::RunAggregate,
}

impl Window {
    fn queries(&self) -> impl Iterator<Item = &Answered> {
        self.logs.iter().flat_map(|l| l.queries.iter())
    }

    /// (due s, latency ms) of every answered query.
    fn query_latency(&self) -> Vec<(f64, f64)> {
        self.queries().map(|q| (q.due_s, q.latency_ms)).collect()
    }

    fn query_ms(&self) -> Vec<f64> {
        self.queries().map(|q| q.latency_ms).collect()
    }

    fn attempted(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| {
                l.queries.len() as u64
                    + l.failed_queries
                    + l.updates.len() as u64
                    + l.failed_updates
                    + l.unsent
            })
            .sum()
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed_queries + l.failed_updates + l.unsent).sum()
    }
}

fn run_window(s: &Setup, seed: u64, stream: u64, seconds: f64, traced: bool) -> Window {
    let stats0 = s.service.stats();
    let adm0 = s.service.admission_stats();
    let views0 = s.service.view_stats();
    let cpu0 = host::thread_cpu();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut events = Vec::new();
    let mut agg = graphblas::trace::RunAggregate::default();
    let (logs, timeline) = std::thread::scope(|scope| {
        let observer = std::thread::Builder::new()
            .name("loadgen-observe".into())
            .spawn_scoped(scope, || {
                let mut timeline: Vec<(f64, u64)> = Vec::new();
                let mut last = u64::MAX;
                loop {
                    let done = stop.load(Ordering::SeqCst);
                    let p = s.service.stats().processed;
                    if p != last {
                        timeline.push((start.elapsed().as_secs_f64() * 1e3, p));
                        last = p;
                    }
                    if done {
                        break (timeline, host::own_cpu_s());
                    }
                    std::thread::sleep(Duration::from_micros(250));
                }
            })
            .expect("spawn observer thread");
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::new(seed, stream * 16 + c as u64);
                std::thread::Builder::new()
                    .name(format!("loadgen-{c}"))
                    .spawn_scoped(scope, move || client(s, &mut rng, start, seconds))
                    .expect("spawn client thread")
            })
            .collect();
        // The main thread drains the trace ring while the clients run.
        while traced && clients.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(20));
            keep_events(&mut events, &mut agg);
        }
        let logs: Vec<ClientLog> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        let _ = s.service.flush();
        stop.store(true, Ordering::SeqCst);
        (logs, observer.join().expect("observer thread"))
    });
    let (timeline, observer_cpu_s) = timeline;
    let loadgen_cpu_s = observer_cpu_s + logs.iter().map(|l| l.cpu_s).sum::<f64>();
    if traced {
        keep_events(&mut events, &mut agg);
    }
    let mut cpu = host::cpu_delta(&cpu0, &host::thread_cpu());
    cpu.insert("loadgen", loadgen_cpu_s);
    let stats1 = s.service.stats();
    let adm1 = s.service.admission_stats();
    let views1 = s.service.view_stats();
    let visible = logs
        .iter()
        .flat_map(|l| l.updates.iter())
        .map(|&(due, target)| {
            let k = timeline.partition_point(|&(_, p)| p < target);
            (due, timeline.get(k).map_or(f64::INFINITY, |&(t, _)| t - due * 1e3))
        })
        .collect();
    let admission = AdmissionStats {
        queries: adm1.queries - adm0.queries,
        batches: adm1.batches - adm0.batches,
        batched_queries: adm1.batched_queries - adm0.batched_queries,
        cache_hits: adm1.cache_hits - adm0.cache_hits,
        cache_misses: adm1.cache_misses - adm0.cache_misses,
        view_hits: adm1.view_hits - adm0.view_hits,
    };
    let views = views1
        .iter()
        .map(|v1| {
            let v0 = views0.iter().find(|v| v.view == v1.view);
            let (r0, b0, s0) = v0.map_or((0, 0, 0), |v| (v.repairs, v.rebuilds, v.served));
            (v1.repairs - r0, v1.rebuilds - b0, v1.served - s0)
        })
        .collect();
    Window {
        logs,
        visible,
        cpu,
        epochs: stats1.epoch - stats0.epoch,
        processed: stats1.processed - stats0.processed,
        admission,
        views,
        seconds: start.elapsed().as_secs_f64(),
        events,
        traced_agg: agg,
    }
}

/// Drain the ring, folding every event into `agg` and keeping the
/// service and assembly spans the layer analysis reads.
fn keep_events(events: &mut Vec<Event>, agg: &mut graphblas::trace::RunAggregate) {
    for e in trace::drain() {
        agg.record(&e);
        if e.dur_ns > 0
            && (e.name == "service.epoch"
                || e.name == "service.batch"
                || e.name.starts_with("assemble"))
        {
            events.push(e);
        }
    }
}

fn same<T: graphblas::Scalar + PartialEq>(a: &Vector<T>, b: &Vector<T>) -> bool {
    a.nvals() == b.nvals() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

/// After the flush: BFS answers and every view-served answer must equal
/// a from-scratch computation on the final snapshot.
fn verify_final(s: &Setup, report: &mut Report) -> Result<(), String> {
    let snap = s.service.flush().map_err(|e| e.to_string())?;
    let g: &Graph = snap.graph();
    let mut bfs_ok = true;
    for &src in &s.sources[..VERIFY_BFS] {
        let served = s.service.query(Query::bfs_level(src)).map_err(|e| e.to_string())?;
        let fresh = bfs_level(g, src).map_err(|e| e.to_string())?;
        bfs_ok &= served.levels().is_some_and(|l| same(l, &fresh))
            && verify_bfs_levels(g, src, &fresh).unwrap_or(false);
    }
    report.check(format!("served bfs equals fresh bfs ({VERIFY_BFS} sources)"), bfs_ok);
    let q = |query: Query| s.service.query(query).map_err(|e| e.to_string());
    let cc = connected_components(g).map_err(|e| e.to_string())?;
    report.check(
        "view cc equals fresh cc",
        q(Query::connected_components())?.components().is_some_and(|c| same(c, &cc)),
    );
    let deg = g.out_degree().map_err(|e| e.to_string())?;
    report.check(
        "view degree equals fresh degree",
        q(Query::degrees())?.degrees().is_some_and(|d| same(d, &deg)),
    );
    let tc = triangle_count(g, TriCountMethod::Sandia).map_err(|e| e.to_string())?;
    report.check(
        "view tricount equals fresh tricount",
        q(Query::triangle_count())?.count() == Some(tc),
    );
    let opts = PageRankOptions::default();
    let (pr, _) = pagerank(g, &opts).map_err(|e| e.to_string())?;
    let served = q(Query::pagerank(&opts))?;
    let pr_ok = served.ranks().is_some_and(|(r, _)| {
        r.nvals() == pr.nvals()
            && r.iter().zip(pr.iter()).all(|((i, a), (j, b))| i == j && (a - b).abs() < 1e-6)
    });
    report.check("view pagerank within 1e-6 of fresh pagerank", pr_ok);
    let cores = core_numbers(g).map_err(|e| e.to_string())?;
    report.check(
        "view kcore equals fresh kcore",
        q(Query::core_numbers())?.cores().is_some_and(|c| same(c, &cores)),
    );
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUPS {
        drop(current.take());
        let s = setup(args.seed)?;
        setups.push((s.setup_s, s.gen_s, s.structure_s));
        current = Some(s);
    }
    let s = current.expect("at least one set-up");

    // The first kernel phase, before the serving window, on fresh graphs
    // of the serving scale; the second follows the window. Two phases far
    // apart average over the host's slow speed drift.
    let mut fresh = Vec::new();
    for k in 1..FINAL_GRAPHS as u64 {
        let seed = args.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
        fresh.push(
            Workload::Rmat
                .graph(SCALE, EDGE_FACTOR, seed, MAX_WEIGHT)
                .map_err(|e| e.to_string())?,
        );
    }
    let mut fresh_inputs = Vec::new();
    for g in &fresh {
        fresh_inputs.push(KernelInput::new(g, args.seed)?);
    }
    let phase_s = FINAL_SHARE / 2.0 * args.seconds;
    let mut samples = Samples::default();
    kernel_phase(&mut fresh_inputs, &mut probe, phase_s, &mut samples, report, |_| {});

    let half = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let main = run_window(&s, args.seed, 1, half, false);
    report.attempted += main.attempted();
    report.failed += main.failed();
    let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    // Events the ring dropped in the traced window; the kernel phase
    // clears the ring (and its count) again.
    let mut dropped = 0;
    let traced = if args.trace {
        graphblas::metrics::set_enabled(true);
        trace::clear();
        trace::enable();
        let w = run_window(&s, args.seed, 2, half, true);
        trace::disable();
        dropped += trace::dropped();
        report.attempted += w.attempted();
        report.failed += w.failed();
        Some(w)
    } else {
        None
    };
    report.check("every update became visible", main.visible.iter().all(|v| v.1.is_finite()));
    report.check("views served queries", main.admission.view_hits > 0);
    verify_final(&s, report)?;

    // The second kernel phase: the final snapshot and the fresh graphs.
    let snap = s.service.snapshot();
    let mut inputs = vec![KernelInput::new(snap.graph(), args.seed)?];
    inputs.append(&mut fresh_inputs);
    let mut kt = KernelTrace::default();
    if args.trace {
        trace::clear();
        trace::enable();
    }
    let rounds = kernel_phase(&mut inputs, &mut probe, phase_s, &mut samples, report, |a| {
        if args.trace {
            kt.record_call(a, &trace::drain());
        }
    });
    trace::disable();
    let kernel_probe = probe.stretch();
    for (k, inp) in inputs.iter().enumerate() {
        let which = if k == 0 { "final snapshot".to_string() } else { format!("fresh graph {k}") };
        for (name, ok) in inp.outputs.validate(inp.graph) {
            report.check(format!("{which}: {name}"), ok);
        }
    }

    if let Some(w) = traced {
        graphblas::parallel::set_threads(1);
        let mut one = Samples::default();
        for inp in inputs.iter_mut() {
            inp.run(&mut one, |_| {});
        }
        graphblas::parallel::set_threads(0);
        let base = samples.medians();
        for (a, t1) in one.medians() {
            let tn = base.get(&a).copied().unwrap_or(0.0);
            if tn > 0.0 {
                values.insert(
                    format!("parallel.speedup_1t.{}", a.name()),
                    (t1 / tn, one.get(a).len()),
                );
            }
        }
        kt.fill(rounds, &mut values);
        for line in kt.op_table() {
            report.provenance.push(line);
        }
        layer_values(&main, &w, &setups, &mut values);
        dropped += trace::dropped();
        values.insert("tracing.dropped".into(), (dropped as f64, 1));
        report.check("trace ring dropped no events", dropped == 0);
        let g = snap.graph();
        let bpe = g.a().memory_usage().total() as f64 / g.nedges().max(1) as f64;
        values.insert("memory.bytes_per_edge".into(), (bpe, 1));
        layers::emit(report, &values);
        return Ok(());
    }

    let setup_s: Vec<f64> = setups.iter().map(|x| x.0).collect();
    report.setup(&setup_s, kernel_probe);
    report.kernels(&samples, kernel_probe, "kernel_phases");
    report.push("peak_rss_mb", host::peak_rss_mb(), "MB", 1, "VmHWM".into());
    let failed_q: usize = main.logs.iter().map(|l| (l.failed_queries + l.unsent) as usize).sum();
    let slices = (args.seconds, TAIL_SLICES);
    report.latency("query", &main.query_latency(), slices, failed_q, "query from due time");
    let failed_u: usize = main.logs.iter().map(|l| l.failed_updates as usize).sum();
    // Visibility waits on the epoch pipeline, CPU-bound work (view repair
    // keeps the coordinator nearly busy), so it is scaled to reference
    // speed by the probes of the kernel phases either side of the window.
    // Queries are not: much of their latency is the fixed admission wait.
    let visible: Vec<(f64, f64)> =
        main.visible.iter().map(|&(t, ms)| (t, ms * kernel_probe.scale)).collect();
    let what = "update due to visible, at reference speed";
    report.latency("update_visible", &visible, slices, failed_u, what);
    report.ok_frac();
    let late: Vec<f64> = main.logs.iter().flat_map(|l| l.late_ms.iter().copied()).collect();
    let backlog: u64 = main.logs.iter().map(|l| l.backlog_end).sum();
    report.provenance.push(format!(
        "loadgen: {} clients, {:.0} queries/s + {:.0} updates/s due; late p50 {:.3} ms, max {:.3} ms; backlog at end {backlog}; {} epochs",
        CLIENTS,
        QUERY_RATE,
        UPDATE_RATE,
        median(&late),
        late.iter().copied().fold(0.0, f64::max),
        main.epochs
    ));
    Ok(())
}

/// Service, loadgen and gen layer values: rates and CPU from the
/// untraced window, span-derived values from the traced one.
fn layer_values(
    main: &Window,
    traced: &Window,
    setups: &[(f64, f64, f64)],
    v: &mut BTreeMap<String, (f64, usize)>,
) {
    let mut put = |k: &str, x: f64, n: usize| {
        v.insert(k.to_string(), (x, n));
    };
    put("gen.graph_s", median(&setups.iter().map(|x| x.1).collect::<Vec<_>>()), setups.len());
    put("gen.structure_s", median(&setups.iter().map(|x| x.2).collect::<Vec<_>>()), setups.len());
    put("parallel.threads", graphblas::parallel::threads() as f64, 1);
    if let Some(w) = host::registry_value("graphblas_pool_workers") {
        put("parallel.pool_workers", w, 1);
    }
    let m = graphblas::cost::model();
    put("cost.push_ns", m.push_ns, 1);
    put("cost.pull_ns", m.pull_ns, 1);
    for (group, name) in [
        ("pool", "threads.pool.cpu_s"),
        ("main", "threads.main.cpu_s"),
        ("drainer", "threads.drainer.cpu_s"),
        ("coordinator", "threads.coordinator.cpu_s"),
        ("loadgen", "threads.loadgen.cpu_s"),
    ] {
        put(name, main.cpu[group], 1);
    }
    put("drainer.epochs_per_s", main.epochs as f64 / main.seconds, main.epochs as usize);
    put(
        "drainer.updates_per_epoch",
        main.processed as f64 / main.epochs.max(1) as f64,
        main.epochs as usize,
    );
    let epochs: Vec<&Event> = traced.events.iter().filter(|e| e.name == "service.epoch").collect();
    let epoch_ms: Vec<f64> = epochs.iter().map(|e| e.dur_ns as f64 / 1e6).collect();
    put("drainer.epoch_ms", median(&epoch_ms), epoch_ms.len());
    let submit: Vec<f64> = main.logs.iter().flat_map(|l| l.submit_us.iter().copied()).collect();
    put("service.submit_us.p50", median(&submit), submit.len());
    put("service.submit_us.tail", tail(&submit).1, submit.len());
    for kind in [Kind::Bfs, Kind::Degrees, Kind::Cc, Kind::TriCount, Kind::PageRank] {
        let calls: Vec<f64> =
            main.queries().filter(|q| q.kind == kind).map(|q| q.call_ms).collect();
        if !calls.is_empty() {
            put(&format!("service.query_call_ms.{}", kind.label()), median(&calls), calls.len());
        }
    }
    let widths: Vec<f64> = traced
        .events
        .iter()
        .filter(|e| e.name == "service.batch")
        .filter_map(|e| e.arg_u64("width"))
        .map(|w| w as f64)
        .collect();
    if !widths.is_empty() {
        put(
            "admission.batch_width_mean",
            widths.iter().sum::<f64>() / widths.len() as f64,
            widths.len(),
        );
    }
    let a = &main.admission;
    put(
        "admission.batched_frac",
        a.batched_queries as f64 / a.queries.max(1) as f64,
        a.queries as usize,
    );
    let lookups = a.cache_hits + a.cache_misses;
    put("cache.hit_ratio", a.cache_hits as f64 / lookups.max(1) as f64, lookups as usize);
    if !main.views.is_empty() {
        let (rep, reb): (u64, u64) = main.views.iter().fold((0, 0), |(r, b), x| (r + x.0, b + x.1));
        put("views.repair_ratio", rep as f64 / (rep + reb).max(1) as f64, (rep + reb) as usize);
        put("views.hit_ratio", a.view_hits as f64 / a.queries.max(1) as f64, a.queries as usize);
        let rendered = graphblas::metrics::render();
        for view in layers::VIEWS {
            let series = |q: &str| {
                let key = format!("lagraph_service_view_repair_seconds_{q}{{view=\"{view}\"}} ");
                rendered
                    .lines()
                    .find_map(|l| l.strip_prefix(&key))
                    .and_then(|x| x.trim().parse::<f64>().ok())
            };
            let count = series("count").unwrap_or(0.0);
            // The registry keeps p50/p95/p99 only; the tail is the
            // highest of them with ten repairs beyond it.
            let tail_q = if count >= 1000.0 { "p99" } else { "p95" };
            if let (Some(p50), Some(t)) = (series("p50"), series(tail_q)) {
                put(&format!("views.{view}.repair_ms.p50"), p50 * 1e3, count as usize);
                put(&format!("views.{view}.repair_ms.tail"), t * 1e3, count as usize);
            }
        }
    }
    let late: Vec<f64> = main.logs.iter().flat_map(|l| l.late_ms.iter().copied()).collect();
    put("loadgen.late_p50_ms", median(&late), late.len());
    put("loadgen.late_max_ms", late.iter().copied().fold(0.0, f64::max), late.len());
    put("loadgen.backlog_end", main.logs.iter().map(|l| l.backlog_end).sum::<u64>() as f64, 1);
    let base = median(&main.query_ms());
    put(
        "tracing.overhead_frac",
        median(&traced.query_ms()) / base.max(1e-9) - 1.0,
        traced.query_ms().len(),
    );
    let (n, ns) = layers::assembly(&traced.events);
    let epochs_traced = epochs.len().max(1) as f64;
    put("assembly.count", n as f64 / epochs_traced, epochs.len());
    put("assembly.self_ms", ns as f64 / 1e6 / epochs_traced, epochs.len());
    put("assembly.peak_pending", traced.traced_agg.peak_pending as f64, 1);
    put("assembly.peak_zombies", traced.traced_agg.peak_zombies as f64, 1);
}
