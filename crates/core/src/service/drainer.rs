//! The sharded drain path: one drainer thread per shard replays that
//! shard's slice of the update log into a private sub-matrix, and a
//! coordinator thread cuts consistent batches, barriers the shards at
//! one epoch, combines the disjoint sub-matrices, and publishes the
//! snapshot.
//!
//! Consistency argument: the coordinator swaps *all* shard queues out
//! before dispatching any of them, so one epoch contains exactly the
//! updates accepted before the cut — never a prefix of one shard and a
//! suffix of another. Each edge is routed to exactly one shard by a
//! pure function of its canonical key ([`RowBlock`]), so per-edge
//! replay order equals submission order at any shard count, and the
//! combined matrix is a disjoint union — the S∈{1,2,4} differential
//! tests check it is *bit-identical* to a single-shard replay.
//!
//! Failure semantics: a shard drainer that panics mid-replay marks the
//! service failed. The coordinator stops publishing (the last good
//! epoch keeps serving), and every `submit`/`flush`/`query` thereafter
//! returns [`ServiceError::DrainerFailed`] instead of hanging on an
//! epoch that will never arrive.
//!
//! [`RowBlock`]: super::RowBlock

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use graphblas::binaryop;
use graphblas::trace;
use graphblas::{ops, Descriptor, Error as GrbError, Matrix};

use super::{now_unix_ns, panic_message, RowBlock, Shared, Snapshot, Update};
use crate::graph::{Graph, GraphKind};

/// What the coordinator asks a shard worker to do next.
pub(crate) enum SlotCmd {
    /// Nothing pending; the worker waits.
    Idle,
    /// Replay `batch` and assemble, reporting completion as `epoch`.
    Drain { epoch: u64, batch: Vec<Update> },
    /// Exit the worker thread.
    Shutdown,
}

/// Completion report a shard worker posts after each drain.
pub(crate) struct ShardDone {
    /// Last epoch this shard finished (success or failure).
    pub(crate) epoch: u64,
    /// Pending tuples the assembly resolved.
    pub(crate) pending: usize,
    /// Zombies the assembly resolved.
    pub(crate) zombies: usize,
    /// Panic message if the replay failed.
    pub(crate) failed: Option<String>,
}

/// Per-shard worker state: a command slot, a completion slot, and the
/// shard's private master sub-matrix (holding exactly the edges the
/// router sends to this shard).
pub(crate) struct ShardWorker {
    cmd: Mutex<SlotCmd>,
    cmd_cv: Condvar,
    done: Mutex<ShardDone>,
    done_cv: Condvar,
    master: Mutex<Matrix<f64>>,
}

impl ShardWorker {
    fn new(master: Matrix<f64>, epoch: u64) -> Self {
        ShardWorker {
            cmd: Mutex::new(SlotCmd::Idle),
            cmd_cv: Condvar::new(),
            done: Mutex::new(ShardDone { epoch, pending: 0, zombies: 0, failed: None }),
            done_cv: Condvar::new(),
            master: Mutex::new(master),
        }
    }

    fn send(&self, cmd: SlotCmd) {
        let mut c = self.cmd.lock().unwrap_or_else(|e| e.into_inner());
        *c = cmd;
        self.cmd_cv.notify_all();
    }
}

/// Split the initial graph into per-shard sub-matrices: every stored
/// arc is routed by the canonical key of its edge, so both arcs of an
/// undirected edge land in the owning shard.
pub(crate) fn split_masters(
    initial: &Graph,
    router: &RowBlock,
    compressed: bool,
) -> Result<Vec<ShardWorker>, GrbError> {
    let n = initial.nvertices();
    let undirected = initial.kind() == GraphKind::Undirected;
    let epoch = initial.epoch();
    let mut per: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); router.shards()];
    for (i, j, v) in initial.a().iter() {
        let (ki, kj) = if undirected && i > j { (j, i) } else { (i, j) };
        per[router.shard_of(ki, kj)].push((i, j, v));
    }
    per.into_iter()
        .map(|tuples| {
            let mut m = Matrix::from_tuples(n, n, tuples, |_, b| b)?;
            if compressed {
                m.set_compressed(true);
            }
            Ok(ShardWorker::new(m, epoch))
        })
        .collect()
}

/// The per-shard drainer loop: wait for a command, replay the batch
/// into this shard's master through the deferred-update path, assemble
/// once, report. Panics are caught and reported, never propagated into
/// a hung barrier.
pub(crate) fn shard_loop(
    workers: Arc<Vec<ShardWorker>>,
    index: usize,
    kind: GraphKind,
    fail_epoch: Option<u64>,
) {
    let w = &workers[index];
    loop {
        let cmd = {
            let mut c = w.cmd.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match *c {
                    SlotCmd::Idle => {
                        c = w.cmd_cv.wait(c).unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break std::mem::replace(&mut *c, SlotCmd::Idle),
                }
            }
        };
        let (epoch, batch) = match cmd {
            SlotCmd::Shutdown => return,
            SlotCmd::Idle => continue,
            SlotCmd::Drain { epoch, batch } => (epoch, batch),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if index == 0 && fail_epoch == Some(epoch) {
                panic!("injected shard-drainer failure at epoch {epoch}");
            }
            let mut master = w.master.lock().unwrap_or_else(|e| e.into_inner());
            let apply_errors = replay(&mut master, &batch, kind);
            if apply_errors > 0 {
                trace::warn_once(
                    "service.apply",
                    &format!("{apply_errors} service updates failed to apply (skipped)"),
                );
            }
            let (pending, zombies) = master.deferred();
            // One amortized assembly for the whole shard batch, parallel
            // on the par_chunks pool.
            master.wait();
            (pending, zombies)
        }));
        let mut d = w.done.lock().unwrap_or_else(|e| e.into_inner());
        match outcome {
            Ok((pending, zombies)) => {
                d.pending = pending;
                d.zombies = zombies;
                d.failed = None;
            }
            Err(p) => d.failed = Some(panic_message(&*p).to_string()),
        }
        d.epoch = epoch;
        w.done_cv.notify_all();
    }
}

/// Replay one shard batch: inserts become pending tuples, deletes
/// become zombies; undirected graphs mirror both arcs into the same
/// shard master. Returns the count of (internal-bug) apply failures.
fn replay(master: &mut Matrix<f64>, batch: &[Update], kind: GraphKind) -> usize {
    let mirror = kind == GraphKind::Undirected;
    let mut apply_errors = 0usize;
    for u in batch {
        let r = match *u {
            Update::Insert(i, j, w) => master.set_element(i, j, w).and_then(|()| {
                if mirror && i != j {
                    master.set_element(j, i, w)
                } else {
                    Ok(())
                }
            }),
            Update::Delete(i, j) => master.remove_element(i, j).and_then(|()| {
                if mirror && i != j {
                    master.remove_element(j, i)
                } else {
                    Ok(())
                }
            }),
        };
        if r.is_err() {
            apply_errors += 1;
        }
    }
    apply_errors
}

/// Union the (disjoint) shard masters into one publishable matrix. With
/// one shard this is exactly the pre-sharding publish path — a clone of
/// the single master — which is what makes S=1 the differential oracle.
fn combine_masters(workers: &[ShardWorker], compressed: bool) -> Result<Matrix<f64>, GrbError> {
    let first = workers[0].master.lock().unwrap_or_else(|e| e.into_inner());
    if workers.len() == 1 {
        return Ok(first.clone());
    }
    let (nr, nc) = (first.nrows(), first.ncols());
    let mut acc = first.clone();
    drop(first);
    for w in &workers[1..] {
        let shard = w.master.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Matrix::<f64>::new(nr, nc)?;
        // Shard supports are disjoint, so any merge op is a pure union;
        // Plus never actually combines two values.
        ops::ewise_add_matrix(
            &mut out,
            None,
            ops::NOACC,
            binaryop::Plus,
            &acc,
            &shard,
            &Descriptor::default(),
        )?;
        drop(shard);
        acc = out;
    }
    if compressed {
        acc.set_compressed(true);
    }
    Ok(acc)
}

/// Mark the service failed (shard `shard` died with `message`), wake
/// every waiter, and stop accepting work. The last published snapshot
/// keeps serving reads.
fn fail_service(shared: &Shared, shard: usize, message: String) {
    trace::warn_once(
        "service.drainer",
        &format!("shard {shard} drainer failed, service stopping: {message}"),
    );
    *shared.failed.lock().unwrap_or_else(|e| e.into_inner()) = Some((shard, message));
    shared.failed_flag.store(true, SeqCst);
    shared.shutting_down.store(true, SeqCst);
    shared.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
    shared.work.notify_all();
    shared.published.notify_all();
    for s in &shared.shards {
        s.not_full.notify_all();
    }
}

pub(crate) fn shutdown_workers(workers: &[ShardWorker]) {
    for w in workers {
        w.send(SlotCmd::Shutdown);
    }
}

/// The epoch coordinator: cut a consistent batch across all shard
/// queues, fan it out, barrier, combine, publish.
pub(crate) fn coordinator_loop(
    shared: &Arc<Shared>,
    workers: &Arc<Vec<ShardWorker>>,
    max_batch: usize,
    compressed: bool,
) {
    let mut epoch = shared.snapshot.read().epoch;
    loop {
        // Sleep until there is work or a shutdown request. The timeout
        // guards against a notify racing ahead of this wait.
        {
            let state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if shared.depth() == 0 {
                if state.shutdown {
                    drop(state);
                    shutdown_workers(workers);
                    return;
                }
                let _ = shared.work.wait_timeout(state, Duration::from_millis(5));
            }
        }
        if shared.depth() == 0 {
            continue;
        }

        // Cut the epoch: swap every shard's queue out (bounded by
        // max_batch overall) *before* dispatching any of them, freeing
        // blocked writers immediately.
        let mut batches: Vec<Vec<Update>> = Vec::with_capacity(workers.len());
        let mut total = 0usize;
        for (si, shard) in shared.shards.iter().enumerate() {
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            let room = max_batch.saturating_sub(total);
            let b: Vec<Update> = if q.len() <= room {
                std::mem::take(&mut *q).into()
            } else {
                q.drain(..room).collect()
            };
            total += b.len();
            shared.metrics.queue_depth[si].set(q.len() as f64);
            drop(q);
            shard.not_full.notify_all();
            batches.push(b);
        }
        if total == 0 {
            continue;
        }

        epoch += 1;
        let mut span = trace::service_span("service.epoch");
        span.arg("epoch", epoch);
        span.arg("batch", total);
        span.arg("shards", workers.len());
        shared.metrics.batch_updates.observe(total as u64);
        let shard_counts: Vec<usize> = batches.iter().map(Vec::len).collect();
        // Capture the epoch's whole delta for the view engine before the
        // batches are consumed. Shard order here is not submission order
        // across edges, but per-edge order is preserved (one shard owns
        // each edge) and every view's final value is order-independent
        // across distinct edges, so the concatenation is sound.
        let views_delta: Option<Vec<Update>> = if shared.views.wants_deltas() {
            Some(batches.iter().flatten().copied().collect())
        } else {
            None
        };

        // Fan out. Every shard gets a command (empty batches included)
        // so the barrier below is uniform.
        for (si, b) in batches.into_iter().enumerate() {
            workers[si].send(SlotCmd::Drain { epoch, batch: b });
        }

        // Barrier: all shards at this epoch before anything publishes.
        let mut pending_sum = 0usize;
        let mut zombies_sum = 0usize;
        let mut failure: Option<(usize, String)> = None;
        for (si, w) in workers.iter().enumerate() {
            let mut d = w.done.lock().unwrap_or_else(|e| e.into_inner());
            while d.epoch < epoch {
                d = w.done_cv.wait(d).unwrap_or_else(|e| e.into_inner());
            }
            pending_sum += d.pending;
            zombies_sum += d.zombies;
            if failure.is_none() {
                if let Some(m) = &d.failed {
                    failure = Some((si, m.clone()));
                }
            }
        }
        span.arg("pending", pending_sum);
        span.arg("zombies", zombies_sum);
        shared.metrics.pending_peak.set_max(pending_sum as f64);
        shared.metrics.zombies_peak.set_max(zombies_sum as f64);

        if let Some((si, message)) = failure {
            span.arg("failed_shard", si);
            drop(span);
            fail_service(shared, si, message);
            shutdown_workers(workers);
            return;
        }

        let master_bytes: usize = workers
            .iter()
            .map(|w| w.master.lock().unwrap_or_else(|e| e.into_inner()).memory_usage().total())
            .sum();
        shared.metrics.master_bytes.set(master_bytes as f64);

        // Combine the disjoint shard masters and publish: an immutable
        // Graph with fresh (lazily computed) caches, stamped with this
        // epoch. Readers swap over atomically on their next snapshot().
        match combine_masters(workers, compressed).and_then(|m| Graph::new(m, shared.kind)) {
            Ok(mut g) => {
                g.set_epoch(epoch);
                let nedges = g.nedges();
                span.arg("nedges", nedges);
                span.arg("queue_depth", shared.depth());
                let graph = Arc::new(g);
                // Views advance *before* the snapshot swap, so a flush
                // that observes epoch e also observes views at e; a
                // failed epoch never reaches this point, leaving the
                // views at the last good epoch alongside the snapshot.
                shared.views.on_epoch(&graph, epoch, views_delta.as_deref());
                *shared.snapshot.write() = Arc::new(Snapshot { epoch, nedges, graph });
                let now_ns = now_unix_ns();
                shared.metrics.publish_unix_ns.store(now_ns, Relaxed);
                shared.metrics.last_publish.set(now_ns as f64 / 1e9);
                shared.metrics.epochs.inc();
                shared.metrics.epoch.set(epoch as f64);
            }
            Err(_) => {
                // Shard dimensions never change, so this is unreachable;
                // keep serving the previous snapshot if it somehow isn't.
                trace::warn_once("service.publish", "failed to rebuild service snapshot graph");
            }
        }
        drop(span);
        for (si, &n) in shard_counts.iter().enumerate() {
            if n > 0 {
                shared.metrics.shard_processed[si].add(n as u64);
            }
        }
        shared.processed.fetch_add(total as u64, SeqCst);
        shared.metrics.processed.add(total as u64);
        shared.published.notify_all();
    }
}
