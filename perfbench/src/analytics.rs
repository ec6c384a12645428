//! The `analytics-rmat` workload: GAP kernel rounds on one RMAT graph,
//! closed loop from the calling thread, plus batches of edge updates
//! applied to a second copy of the graph through the library's
//! non-blocking path (pending tuples and zombies, then `wait` and a
//! rebuild of the dual structure). After each batch the updated copy
//! answers one BFS point query, the workload's `query_*` sample.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use graphblas::trace;
use graphblas::{Direction, Index};
use lagraph::gen::Workload;
use lagraph::harness::verify_bfs_levels;
use lagraph::{bfs_level_matrix, Graph, GraphKind};

use crate::host;
use crate::kernels::{pick_sources, Algo, Outputs, Round, Samples, MAX_WEIGHT};
use crate::layers::{self, KernelTrace};
use crate::probe::Probe;
use crate::report::Report;
use crate::stats::{median, Rng};
use crate::Args;

const SCALE: u32 = 14;
const EDGE_FACTOR: usize = 16;
const BFS_SOURCES: usize = 16;
const SSSP_SOURCES: usize = 2;
/// Edge updates per batch (7/8 inserts, 1/8 deletes of earlier inserts)
/// and batches per round, spread between the kernels.
const UPDATE_BATCH: usize = 256;
const BATCHES_PER_ROUND: usize = 8;
/// Inserts draw their edge from this many fixed random pairs, so the
/// copy's size levels off (about 6/7 of the pairs live, where inserts of
/// new pairs balance deletes) within the warm-up batches, whatever the
/// run's length; an insert of a live pair reweights it.
const UPDATE_PAIRS: usize = 2048;
/// Update batches in the warm-up, enough to fill more than half of the
/// pairs.
const WARM_BATCHES: usize = 8;
/// Every this many point queries, the answer is checked with the harness
/// validator (untimed).
const QUERY_CHECK_EVERY: u64 = 4;
/// Latency tails are the median over this many equal time slices of a
/// phase.
const TAIL_SLICES: usize = 8;
/// Set-ups per run; `setup_s` is their median at reference speed.
const SETUPS: usize = 5;

/// A second copy of the graph that takes the update batches, so the
/// timed kernels always see the same input.
struct Shadow {
    graph: Graph,
    rng: Rng,
    /// The pairs (canonical `lo < hi`) inserts draw from.
    pairs: Vec<(Index, Index)>,
    /// Inserted pairs that a later delete may pick, as a list to draw
    /// from and a set to keep it free of repeats.
    live: Vec<(Index, Index)>,
    live_set: HashSet<(Index, Index)>,
    /// Expected final state of every pair an update touched.
    expect: HashMap<(Index, Index), Option<f64>>,
}

impl Shadow {
    /// A prepared copy of `base` and its update pairs.
    fn copy(base: &Graph, mut rng: Rng) -> graphblas::Result<Shadow> {
        let graph = Graph::new(base.a().clone(), GraphKind::Undirected)?;
        prepare(&graph)?;
        let n = graph.nvertices() as u64;
        let pairs = (0..UPDATE_PAIRS)
            .map(|_| {
                let i = rng.below(n) as Index;
                let j = (i + 1 + rng.below(n - 1) as Index) % n as Index;
                (i.min(j), i.max(j))
            })
            .collect();
        let (live, live_set, expect) = (Vec::new(), HashSet::new(), HashMap::new());
        Ok(Shadow { graph, rng, pairs, live, live_set, expect })
    }

    /// Apply one batch; returns the time until it is visible (assembled
    /// and the dual structure rebuilt), in milliseconds.
    fn batch(&mut self) -> graphblas::Result<f64> {
        let t = Instant::now();
        for _ in 0..UPDATE_BATCH {
            let a = self.graph.a();
            if self.rng.below(8) == 0 && !self.live.is_empty() {
                let k = self.rng.below(self.live.len() as u64) as usize;
                let (i, j) = self.live.swap_remove(k);
                self.live_set.remove(&(i, j));
                a.remove_element_sync(i, j)?;
                a.remove_element_sync(j, i)?;
                self.expect.insert((i, j), None);
            } else {
                let (i, j) = self.pairs[self.rng.below(self.pairs.len() as u64) as usize];
                let w = (1 + self.rng.below(MAX_WEIGHT)) as f64;
                a.set_element_sync(i, j, w)?;
                a.set_element_sync(j, i, w)?;
                if self.live_set.insert((i, j)) {
                    self.live.push((i, j));
                }
                self.expect.insert((i, j), Some(w));
            }
        }
        self.graph.a().wait();
        self.graph.invalidate_caches();
        self.graph.structure()?.wait();
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// One BFS point query on the updated copy from a random one of
    /// `sources`; returns its wall time in ms and, when `check` is set,
    /// whether the harness validator accepts the levels.
    fn query(&mut self, sources: &[Index], check: bool) -> graphblas::Result<(f64, bool)> {
        let src = sources[self.rng.below(sources.len() as u64) as usize];
        let structure = self.graph.structure()?;
        let t = Instant::now();
        let levels = bfs_level_matrix(&structure, src, Direction::Auto)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((ms, !check || verify_bfs_levels(&self.graph, src, &levels)?))
    }

    /// Every touched pair holds its last written value in both arcs and
    /// in the rebuilt structure.
    fn valid(&self) -> bool {
        let a = self.graph.a();
        let Ok(st) = self.graph.structure() else { return false };
        st.nvals() == a.nvals()
            && self.expect.iter().all(|(&(i, j), &w)| {
                a.get(i, j) == w && a.get(j, i) == w && st.get(i, j).is_some() == w.is_some()
            })
    }
}

struct Inputs {
    graph: Graph,
    shadow: Shadow,
    bfs_sources: Vec<Index>,
    sssp_sources: Vec<Index>,
    gen_s: f64,
    structure_s: f64,
    setup_s: f64,
}

/// Build a graph's cached structure, transpose and degrees.
fn prepare(g: &Graph) -> graphblas::Result<()> {
    g.structure()?.wait();
    g.at()?;
    g.out_degree()?;
    Ok(())
}

/// Generate the graph, build its cached structure, transpose and
/// degrees, pick sources, copy the shadow, and run one warm-up round.
fn setup(seed: u64) -> Result<Inputs, String> {
    let t = Instant::now();
    let graph =
        Workload::Rmat.graph(SCALE, EDGE_FACTOR, seed, MAX_WEIGHT).map_err(|e| e.to_string())?;
    let gen_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    prepare(&graph).map_err(|e| e.to_string())?;
    let structure_s = t1.elapsed().as_secs_f64();
    let bfs_sources = pick_sources(&graph, BFS_SOURCES, seed ^ 0xB5).map_err(|e| e.to_string())?;
    let sssp_sources =
        pick_sources(&graph, SSSP_SOURCES, seed ^ 0x55).map_err(|e| e.to_string())?;
    let mut shadow = Shadow::copy(&graph, Rng::new(seed, 0xAB)).map_err(|e| e.to_string())?;
    // Warm-up: one call of each kernel and a few update batches.
    let warm =
        Round { graph: &graph, bfs_sources: &bfs_sources[..1], sssp_sources: &sssp_sources[..1] };
    let (_, failed) = warm.run(&mut Samples::default(), &mut Outputs::default(), |_, _| {});
    if failed > 0 {
        return Err("warm-up kernel call failed".into());
    }
    for _ in 0..WARM_BATCHES {
        shadow.batch().map_err(|e| e.to_string())?;
    }
    Ok(Inputs {
        graph,
        shadow,
        bfs_sources,
        sssp_sources,
        gen_s,
        structure_s,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Measurements of one timed phase.
#[derive(Default)]
struct Phase {
    samples: Samples,
    /// (seconds into the phase, ms until visible) of each update batch.
    update_ms: Vec<(f64, f64)>,
    failed_batches: usize,
    /// (seconds into the phase, ms) of each answered point query.
    query_ms: Vec<(f64, f64)>,
    failed_queries: usize,
    /// Point queries whose answer failed the validator.
    bad_queries: u64,
    seconds: f64,
    rounds: u64,
    calls: u64,
    failed: u64,
}

/// Run rounds until `seconds` have passed (at least one round), each
/// after a probe of the host's speed.
fn phase(
    inp: &mut Inputs,
    outputs: &mut Outputs,
    probe: &mut Probe,
    seconds: f64,
    mut after: impl FnMut(Option<Algo>),
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let round =
        Round { graph: &inp.graph, bfs_sources: &inp.bfs_sources, sssp_sources: &inp.sssp_sources };
    while p.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        // The round's update batches are spread evenly between its
        // kernel calls, so they sample the whole round.
        let per_round = round.calls();
        let mut k = 0;
        let shadow = &mut inp.shadow;
        probe.take();
        let (calls, failed) = round.run(&mut p.samples, outputs, |a, _| {
            after(Some(a));
            k += 1;
            if k * BATCHES_PER_ROUND / per_round != (k - 1) * BATCHES_PER_ROUND / per_round {
                let t = start.elapsed().as_secs_f64();
                match shadow.batch() {
                    Ok(ms) => p.update_ms.push((t, ms)),
                    Err(_) => {
                        p.failed += UPDATE_BATCH as u64;
                        p.failed_batches += 1;
                    }
                }
                p.calls += UPDATE_BATCH as u64;
                let check = (p.update_ms.len() as u64).is_multiple_of(QUERY_CHECK_EVERY);
                let t = start.elapsed().as_secs_f64();
                match shadow.query(&inp.bfs_sources, check) {
                    Ok((ms, true)) => p.query_ms.push((t, ms)),
                    Ok((_, false)) => p.bad_queries += 1,
                    Err(_) => p.failed_queries += 1,
                }
                p.calls += 1;
                after(None);
            }
        });
        p.calls += calls;
        p.failed += failed;
        p.rounds += 1;
    }
    p.failed += (p.failed_queries as u64) + p.bad_queries;
    p.seconds = start.elapsed().as_secs_f64();
    p
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let inp = setup(args.seed)?;
        setups.push((inp.setup_s, inp.gen_s, inp.structure_s));
        inputs = Some(inp);
    }
    let mut inp = inputs.expect("at least one set-up");
    let mut outputs = Outputs::default();
    let cpu0 = host::thread_cpu();
    let half = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let main = phase(&mut inp, &mut outputs, &mut probe, half, |_| {});
    let main_probe = probe.stretch();
    let cpu = host::cpu_delta(&cpu0, &host::thread_cpu());
    report.attempted += main.calls;
    report.failed += main.failed;

    let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    if args.trace {
        let mut kt = KernelTrace::default();
        graphblas::metrics::set_enabled(true);
        trace::clear();
        trace::enable();
        let mut assembly = (0u64, 0u64);
        let traced = phase(&mut inp, &mut outputs, &mut probe, half, |a| {
            let events = trace::drain();
            match a {
                Some(algo) => kt.record_call(algo, &events),
                None => {
                    for e in &events {
                        kt.agg.record(e);
                    }
                    let (n, ns) = layers::assembly(&events);
                    assembly = (assembly.0 + n, assembly.1 + ns);
                }
            }
        });
        trace::disable();
        let dropped = trace::dropped();
        report.attempted += traced.calls;
        report.failed += traced.failed;
        // One single-thread round per kernel, untraced.
        graphblas::parallel::set_threads(1);
        let one = phase(&mut inp, &mut outputs, &mut probe, 0.0, |_| {});
        graphblas::parallel::set_threads(0);
        report.attempted += one.calls;
        report.failed += one.failed;

        let base = main.samples.medians();
        let traced_med = traced.samples.medians();
        let base_sum: f64 = base.values().sum();
        let traced_sum: f64 = traced_med.values().sum();
        for (a, t1) in one.samples.medians() {
            let tn = base.get(&a).copied().unwrap_or(0.0);
            if tn > 0.0 {
                values.insert(
                    format!("parallel.speedup_1t.{}", a.name()),
                    (t1 / tn, one.samples.get(a).len()),
                );
            }
        }
        values.insert(
            "tracing.overhead_frac".into(),
            (traced_sum / base_sum.max(1e-9) - 1.0, traced.rounds as usize),
        );
        values.insert("tracing.dropped".into(), (dropped as f64, 1));
        report.check("trace ring dropped no events", dropped == 0);
        kt.fill(traced.rounds, &mut values);
        let r = traced.rounds.max(1) as f64;
        values.insert("assembly.count".into(), (assembly.0 as f64 / r, traced.rounds as usize));
        values.insert(
            "assembly.self_ms".into(),
            (assembly.1 as f64 / 1e6 / r, traced.rounds as usize),
        );
        values.insert("assembly.peak_pending".into(), (kt.agg.peak_pending as f64, 1));
        values.insert("assembly.peak_zombies".into(), (kt.agg.peak_zombies as f64, 1));
        let snap = graphblas::metrics::snapshot();
        let par = layers::registry_sum(&snap, "graphblas_dispatch_total", &["mode=\"parallel\""]);
        let seq = layers::registry_sum(&snap, "graphblas_dispatch_total", &["mode=\"sequential\""]);
        values.insert("parallel.dispatches".into(), ((par + seq) / r, traced.rounds as usize));
        values.insert(
            "parallel.seq_dispatch_frac".into(),
            (seq / (par + seq).max(1.0), (par + seq) as usize),
        );
        for line in kt.op_table() {
            report.provenance.push(line);
        }
    }

    // Correctness: every kept output, the shadow's updates.
    for (name, ok) in outputs.validate(&inp.graph) {
        report.check(name, ok);
    }
    report.check("shadow graph holds every update", inp.shadow.valid());
    report.check("checked point queries valid", main.bad_queries == 0);

    let gen_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let structure_s = median(&setups.iter().map(|s| s.2).collect::<Vec<_>>());
    if args.trace {
        values.insert("gen.graph_s".into(), (gen_s, SETUPS));
        values.insert("gen.structure_s".into(), (structure_s, SETUPS));
        values.insert("parallel.threads".into(), (graphblas::parallel::threads() as f64, 1));
        if let Some(w) = host::registry_value("graphblas_pool_workers") {
            values.insert("parallel.pool_workers".into(), (w, 1));
        }
        values.insert("threads.pool.cpu_s".into(), (cpu["pool"], 1));
        values.insert("threads.main.cpu_s".into(), (cpu["main"], 1));
        values.insert("cost.push_ns".into(), (graphblas::cost::model().push_ns, 1));
        values.insert("cost.pull_ns".into(), (graphblas::cost::model().pull_ns, 1));
        let bpe = inp.graph.a().memory_usage().total() as f64 / inp.graph.nedges().max(1) as f64;
        values.insert("memory.bytes_per_edge".into(), (bpe, 1));
        layers::emit(report, &values);
        return Ok(());
    }

    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    report.setup(&setup_s, main_probe);
    report.kernels(&main.samples, main_probe, "rounds");
    report.push("peak_rss_mb", host::peak_rss_mb(), "MB", 1, "VmHWM".into());
    let slices = (main.seconds, TAIL_SLICES);
    let failed_q = main.failed_queries + main.bad_queries as usize;
    let at_reference = |v: &[(f64, f64)]| -> Vec<(f64, f64)> {
        v.iter().map(|&(t, ms)| (t, ms * main_probe.scale)).collect()
    };
    report.latency(
        "query",
        &at_reference(&main.query_ms),
        slices,
        failed_q,
        "BFS point query after a batch, at reference speed",
    );
    // Every update of a batch is due when the batch starts and becomes
    // visible with it, so the batch is the sample.
    report.latency(
        "update_visible",
        &at_reference(&main.update_ms),
        slices,
        main.failed_batches,
        "update batch to visible, at reference speed",
    );
    report.ok_frac();
    Ok(())
}
