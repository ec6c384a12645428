//! Runtime tracing & profiling — the library's observability layer.
//!
//! SuiteSparse:GraphBLAS ships a "burble" diagnostic mode that narrates
//! which kernel each operation chose and what it cost; the LAGraph
//! follow-up paper stresses that studying *algorithm behaviour*, not just
//! end-to-end time, is the repository's purpose. This module is the Rust
//! analogue, always compiled and toggled at runtime:
//!
//! * every operation in [`crate::ops`] emits a **span** ([`Span`])
//!   recording operand dimensions and nnz, the kernel/direction chosen,
//!   a flops-order work estimate, the number of parallel chunks
//!   dispatched, and wall time;
//! * [`crate::parallel`] records dispatch and per-chunk events, and the
//!   matrix/vector assembly paths record pending-tuple/zombie resolution;
//! * algorithms in the `lagraph` crate add iteration-level spans
//!   (frontier size, residual, …) through the same API.
//!
//! Events land in a fixed-capacity **lock-light ring buffer** (one
//! relaxed `fetch_add` to claim a slot plus one uncontended per-slot
//! mutex), drained with [`drain`] and consumed by:
//!
//! * [`Profile`] — per-op aggregation: counts, latency and work
//!   histograms (log₂ buckets), totals;
//! * [`chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`format_burble`] / burble mode — human-readable log lines,
//!   printed live to stderr when `GRAPHBLAS_TRACE=burble`.
//!
//! # Toggling
//!
//! Set the environment variable `GRAPHBLAS_TRACE` to `on` (record into
//! the ring), `burble` (record *and* narrate each event to stderr), or
//! `off` (default), or call [`set_mode`]/[`enable`]/[`disable`] at
//! runtime. The ring capacity defaults to 65 536 events and can be set
//! with `GRAPHBLAS_TRACE_CAPACITY` or [`set_capacity`] before the first
//! event is recorded.
//!
//! # Overhead budget
//!
//! With tracing disabled the per-operation cost is **one relaxed atomic
//! load** in the span constructor (plus one per parallel dispatch) — no
//! clock reads, no allocation, no branches on the data path. Spans are
//! the only instrumentation hook: each closed span feeds the ring (when
//! tracing is on) and the [`crate::metrics`] registry (when that layer
//! is on), so kernels call a single API.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Mode
// ---------------------------------------------------------------------------

/// What the tracing subsystem does with events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record nothing. Hot-path cost: one relaxed atomic load per op.
    Off = 0,
    /// Record events into the ring buffer.
    Record = 1,
    /// Record events *and* print a human-readable line per event to
    /// stderr as it completes — the SuiteSparse "burble" analogue.
    Burble = 2,
}

const MODE_UNINIT: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[inline]
fn mode_u8() -> u8 {
    let m = MODE.load(Relaxed);
    if m == MODE_UNINIT {
        init_mode_from_env()
    } else {
        m
    }
}

/// First-use initialization from `GRAPHBLAS_TRACE`. Runs at most a few
/// times (racing threads), settles via compare-exchange.
#[cold]
fn init_mode_from_env() -> u8 {
    let raw = std::env::var("GRAPHBLAS_TRACE").ok();
    let (m, bad) = match raw.as_deref().map(|v| v.trim().to_ascii_lowercase()) {
        None => (Mode::Off as u8, None),
        Some(v) => match v.as_str() {
            "" | "0" | "off" | "false" => (Mode::Off as u8, None),
            "1" | "on" | "true" | "record" | "ring" => (Mode::Record as u8, None),
            "2" | "burble" => (Mode::Burble as u8, None),
            _ => (Mode::Off as u8, Some(v)),
        },
    };
    // set_mode or a racing thread may have won; keep the winner. Warn
    // only after the mode is settled so warn_once cannot recurse here.
    let settled = match MODE.compare_exchange(MODE_UNINIT, m, Relaxed, Relaxed) {
        Ok(_) => m,
        Err(cur) => cur,
    };
    if let Some(v) = bad {
        warn_once(
            "GRAPHBLAS_TRACE",
            &format!("ignoring unrecognized GRAPHBLAS_TRACE={v:?} (expected off, on, or burble)"),
        );
    }
    settled
}

/// Set the trace mode, overriding the `GRAPHBLAS_TRACE` environment.
pub fn set_mode(m: Mode) {
    MODE.store(m as u8, Relaxed);
}

/// The current trace mode.
pub fn mode() -> Mode {
    match mode_u8() {
        1 => Mode::Record,
        2 => Mode::Burble,
        _ => Mode::Off,
    }
}

/// True when events are being recorded (`Record` or `Burble`).
#[inline]
pub fn enabled() -> bool {
    mode_u8() != Mode::Off as u8
}

/// Shorthand for `set_mode(Mode::Record)`.
pub fn enable() {
    set_mode(Mode::Record);
}

/// Shorthand for `set_mode(Mode::Off)`.
pub fn disable() {
    set_mode(Mode::Off);
}

// ---------------------------------------------------------------------------
// Clock and thread identity
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small dense thread id, assigned in order of first traced event.
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
    /// Chunks dispatched by this thread since process start; spans diff
    /// this around their lifetime to attribute chunk counts per op.
    static CHUNKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A typed argument value attached to an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, sizes, nnz, epoch numbers).
    U64(u64),
    /// A floating-point quantity (residuals, calibrated costs).
    F64(f64),
    /// A static string (kernel names, configuration keys).
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Event category, mapped to the `cat` field of the Chrome trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// A GraphBLAS operation (`mxm`, `mxv`, …).
    Op,
    /// An algorithm-level span (whole run or one iteration).
    Algo,
    /// Runtime machinery: dispatch, chunks, assembly, warnings.
    Runtime,
    /// Serving-layer machinery (epoch publication, queue backpressure) —
    /// emitted by systems built on top of the library, e.g.
    /// `lagraph::service`, through [`service_span`] / [`service_instant`].
    Service,
}

impl Cat {
    /// The category label used in burble lines and the Chrome trace `cat`
    /// field.
    pub fn name(self) -> &'static str {
        match self {
            Cat::Op => "op",
            Cat::Algo => "algo",
            Cat::Runtime => "runtime",
            Cat::Service => "service",
        }
    }
}

/// One recorded event: a span (`dur_ns > 0`) or an instant (`dur_ns == 0`).
#[derive(Debug, Clone)]
pub struct Event {
    /// Operation or span name (`"mxv"`, `"bfs.iter"`, `"dispatch"`, …).
    pub name: &'static str,
    /// Which layer emitted the event (op, algorithm, runtime, service).
    pub cat: Cat,
    /// Kernel / direction chosen, when the op selects among several
    /// (`"gustavson"`, `"dot"`, `"heap"`, `"push"`, `"pull"`, …).
    pub kernel: Option<&'static str>,
    /// Start time, nanoseconds since the trace epoch (first use).
    pub t0_ns: u64,
    /// Wall time in nanoseconds; `0` marks an instant event.
    pub dur_ns: u64,
    /// Dense per-thread id (0 = first thread that traced).
    pub tid: u64,
    /// Structured details: operand nnz, dims, flops, chunk count, ….
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// Look up a numeric argument by key.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Op / kernel vocabulary
// ---------------------------------------------------------------------------

/// The instrumented operations. Every entry point in [`crate::ops`] opens
/// a span tagged with one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Matrix-matrix multiply.
    Mxm,
    /// Fused masked multiply-then-reduce/select (never materializes the
    /// product matrix).
    MxmFused,
    /// Matrix-vector multiply.
    Mxv,
    /// Vector-matrix multiply.
    Vxm,
    /// Element-wise "add" (pattern union).
    EwiseAdd,
    /// Element-wise "multiply" (pattern intersection).
    EwiseMult,
    /// Unary/binary operator application.
    Apply,
    /// Entry selection by predicate.
    Select,
    /// Reduction to vector or scalar.
    Reduce,
    /// Explicit transpose.
    Transpose,
    /// Submatrix/subvector assignment.
    Assign,
    /// Submatrix/subvector extraction.
    Extract,
    /// Kronecker product.
    Kron,
    /// Tiling matrices together.
    Concat,
    /// Splitting a matrix into tiles.
    Split,
    /// Diagonal matrix construction/extraction.
    Diag,
    /// Whole-object write (`GrB_assign` with `GrB_ALL` on both axes).
    Write,
    /// Lazy resolution of a matrix's pending tuples and zombies.
    AssembleMatrix,
    /// Lazy resolution of a vector's pending tuples and zombies.
    AssembleVector,
}

impl Op {
    /// The span name this op records (`"mxm"`, `"assemble.matrix"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Op::Mxm => "mxm",
            Op::MxmFused => "mxm.fused",
            Op::Mxv => "mxv",
            Op::Vxm => "vxm",
            Op::EwiseAdd => "ewise_add",
            Op::EwiseMult => "ewise_mult",
            Op::Apply => "apply",
            Op::Select => "select",
            Op::Reduce => "reduce",
            Op::Transpose => "transpose",
            Op::Assign => "assign",
            Op::Extract => "extract",
            Op::Kron => "kron",
            Op::Concat => "concat",
            Op::Split => "split",
            Op::Diag => "diag",
            Op::Write => "write",
            Op::AssembleMatrix => "assemble.matrix",
            Op::AssembleVector => "assemble.vector",
        }
    }
}

/// Which kernel / direction an op chose, recorded on the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    Gustavson,
    Dot,
    Heap,
    Push,
    /// Push with a non-transparent mask: the scatter kernel filtered
    /// masked-out positions itself instead of deferring to the write rule.
    PushMasked,
    Pull,
    /// Ran push because the cost model's pull choice lacked dual storage.
    PushFallback,
    /// Ran pull because the cost model's push choice lacked dual storage.
    PullFallback,
    /// Gustavson with a specialized (hot-semiring) inner loop.
    GustavsonSpec,
    /// Dot-product method with a specialized inner loop.
    DotSpec,
    /// Dot-product method where an operand is decoded on the fly from the
    /// compressed (gap-encoded) storage form.
    CompressedDot,
    /// Push with a specialized scatter loop.
    PushSpec,
    /// Masked push with a specialized scatter loop.
    PushMaskedSpec,
    /// Pull with a specialized row-dot loop.
    PullSpec,
    /// Fused masked dot product folding straight into a reduction.
    FusedReduce,
    /// Fused masked dot product filtered by a select predicate.
    FusedSelect,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Gustavson => "gustavson",
            Kernel::Dot => "dot",
            Kernel::Heap => "heap",
            Kernel::Push => "push",
            Kernel::PushMasked => "push(masked)",
            Kernel::Pull => "pull",
            Kernel::PushFallback => "push(fallback)",
            Kernel::PullFallback => "pull(fallback)",
            Kernel::GustavsonSpec => "gustavson(specialized)",
            Kernel::DotSpec => "dot(specialized)",
            Kernel::CompressedDot => "dot(compressed)",
            Kernel::PushSpec => "push(specialized)",
            Kernel::PushMaskedSpec => "push(masked,specialized)",
            Kernel::PullSpec => "pull(specialized)",
            Kernel::FusedReduce => "fused(dot+reduce)",
            Kernel::FusedSelect => "fused(dot+select)",
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A RAII span: created at op entry, pushed to the ring on drop with the
/// measured wall time (and fed to the [`crate::metrics`] sink when that
/// layer is on). When both tracing and metrics are off the constructor
/// costs two relaxed atomic loads and every method is a no-op.
#[derive(Debug)]
#[must_use = "a span records its wall time when dropped"]
pub struct Span {
    rec: Option<SpanRec>,
}

#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    cat: Cat,
    kernel: Option<&'static str>,
    args: Vec<(&'static str, ArgValue)>,
    t0_ns: u64,
    t0: Instant,
    chunks0: u64,
    /// Tracing was on at creation: push the event to the ring on drop.
    /// (A span can be live for the metrics sink alone, leaving the ring
    /// untouched.)
    ring: bool,
}

impl Span {
    fn new(name: &'static str, cat: Cat) -> Span {
        let ring = enabled();
        // The metrics layer consumes span closes too, so a span is live
        // when either consumer is on; both off keeps the two-load cost.
        if !ring && !crate::metrics::enabled() {
            return Span { rec: None };
        }
        let t0 = Instant::now();
        Span {
            rec: Some(SpanRec {
                name,
                cat,
                kernel: None,
                args: Vec::new(),
                t0_ns: t0.saturating_duration_since(epoch()).as_nanos() as u64,
                t0,
                chunks0: CHUNKS.with(|c| c.get()),
                ring,
            }),
        }
    }

    /// True when this span is live (tracing was on at creation). Lets
    /// callers skip computing expensive details for dead spans.
    #[inline]
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Attach a structured argument (operand nnz, dims, residual, …).
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(r) = &mut self.rec {
            r.args.push((key, value.into()));
        }
    }

    /// Record the kernel/direction chosen.
    pub(crate) fn kernel(&mut self, k: Kernel) {
        if let Some(r) = &mut self.rec {
            r.kernel = Some(k.name());
        }
    }

    /// Record the op's work estimate (order of flops).
    pub(crate) fn flops(&mut self, n: usize) {
        if let Some(r) = &mut self.rec {
            r.args.push(("flops", ArgValue::U64(n as u64)));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let dur_ns = (rec.t0.elapsed().as_nanos() as u64).max(1);
        let flops = rec.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == "flops" => Some(*n),
            _ => None,
        });
        crate::metrics::observe_span(rec.cat.name(), rec.name, dur_ns, flops);
        if !rec.ring {
            return;
        }
        let chunks = CHUNKS.with(|c| c.get()).wrapping_sub(rec.chunks0);
        let mut args = rec.args;
        if chunks > 0 {
            args.push(("chunks", ArgValue::U64(chunks)));
        }
        push_event(Event {
            name: rec.name,
            cat: rec.cat,
            kernel: rec.kernel,
            t0_ns: rec.t0_ns,
            dur_ns,
            tid: tid(),
            args,
        });
    }
}

/// Open a span for a GraphBLAS operation.
pub(crate) fn op_span(op: Op) -> Span {
    Span::new(op.name(), Cat::Op)
}

/// Open an algorithm-level span (whole algorithm run).
pub fn algo_span(name: &'static str) -> Span {
    Span::new(name, Cat::Algo)
}

/// Open a span for one algorithm iteration, pre-tagged with its number.
pub fn iter_span(name: &'static str, iter: u64) -> Span {
    let mut s = Span::new(name, Cat::Algo);
    s.arg("iter", iter);
    s
}

/// Open a runtime-machinery span (pool chunks, assembly).
pub(crate) fn runtime_span(name: &'static str) -> Span {
    Span::new(name, Cat::Runtime)
}

// ---------------------------------------------------------------------------
// Runtime hooks (parallel dispatch, assembly, diagnostics)
// ---------------------------------------------------------------------------

/// Record one `par_chunks` dispatch: `chunks == 1` means the work stayed
/// on the calling thread. Counted in the metrics registry when that layer
/// is on; when tracing is on the chunk count is accumulated for the
/// enclosing span and parallel dispatches emit an instant event.
pub(crate) fn dispatch(chunks: usize, est_work: usize) {
    crate::metrics::record_dispatch(chunks);
    if !enabled() {
        return;
    }
    CHUNKS.with(|c| c.set(c.get() + chunks as u64));
    if chunks > 1 {
        push_event(Event {
            name: "dispatch",
            cat: Cat::Runtime,
            kernel: None,
            t0_ns: epoch().elapsed().as_nanos() as u64,
            dur_ns: 0,
            tid: tid(),
            args: vec![
                ("chunks", ArgValue::U64(chunks as u64)),
                ("est_work", ArgValue::U64(est_work as u64)),
            ],
        });
    }
}

/// Record a reduction that short-circuited on a terminal value.
pub(crate) fn early_exit() {
    if !enabled() {
        return;
    }
    push_event(Event {
        name: "reduce.early_exit",
        cat: Cat::Runtime,
        kernel: None,
        t0_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid: tid(),
        args: Vec::new(),
    });
}

/// Record a direction misprediction: after the kernel ran, the measured
/// flop count priced higher than the cost model's estimate for the
/// direction it rejected. When tracing is on an instant event (tagged with the chosen kernel and both estimates) makes the
/// mispredicted products visible in the Chrome trace.
pub(crate) fn mxv_mispredict(
    chosen: &'static str,
    est_chosen: usize,
    est_other: usize,
    actual: usize,
) {
    if !enabled() {
        return;
    }
    push_event(Event {
        name: "mxv.mispredict",
        cat: Cat::Runtime,
        kernel: Some(chosen),
        t0_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid: tid(),
        args: vec![
            ("est_chosen", ArgValue::U64(est_chosen as u64)),
            ("est_other", ArgValue::U64(est_other as u64)),
            ("actual", ArgValue::U64(actual as u64)),
        ],
    });
}

/// Record the cost model's calibrated per-flop constants (once per
/// process) so traces show which numbers every direction choice used.
pub(crate) fn cost_calibrated(push_ns: f64, pull_ns: f64) {
    if !enabled() {
        return;
    }
    push_event(Event {
        name: "cost.calibrate",
        cat: Cat::Runtime,
        kernel: None,
        t0_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid: tid(),
        args: vec![("push_ns", ArgValue::F64(push_ns)), ("pull_ns", ArgValue::F64(pull_ns))],
    });
}

/// Open a span around a lazy assembly, tagged with the deferred-update
/// backlog it resolves.
pub(crate) fn assemble_span(op: Op, pending: usize, zombies: usize) -> Span {
    let mut s = Span::new(op.name(), Cat::Runtime);
    s.arg("pending", pending);
    s.arg("zombies", zombies);
    s
}

/// Open a serving-layer span ([`Cat::Service`]): epoch publication,
/// update-log drains, and similar machinery in systems built on top of
/// the library. Like every span, it is free when tracing is off and
/// records wall time plus any attached [`Span::arg`]s on drop.
pub fn service_span(name: &'static str) -> Span {
    Span::new(name, Cat::Service)
}

/// Record a serving-layer instant event (duration 0) with structured
/// arguments — queue-depth samples, backpressure rejections, coalesced
/// writes. No-op when tracing is off.
pub fn service_instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !enabled() {
        return;
    }
    push_event(Event {
        name,
        cat: Cat::Service,
        kernel: None,
        t0_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid: tid(),
        args,
    });
}

/// One-shot diagnostic: print `msg` to stderr the first time `key` is
/// seen in this process (diagnostics must not be silent, so this prints
/// regardless of trace mode) and record an instant event when tracing is
/// on. Used for misconfiguration that would otherwise be ignored, e.g.
/// an unparsable `GRAPHBLAS_THREADS`.
pub fn warn_once(key: &'static str, msg: &str) {
    static SEEN: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()));
    if !seen.lock().insert(key) {
        return;
    }
    eprintln!("[graphblas] warning: {msg}");
    if enabled() {
        push_event(Event {
            name: "warn",
            cat: Cat::Runtime,
            kernel: None,
            t0_ns: epoch().elapsed().as_nanos() as u64,
            dur_ns: 0,
            tid: tid(),
            args: vec![("key", ArgValue::Str(key))],
        });
    }
}

// ---------------------------------------------------------------------------
// The ring buffer
// ---------------------------------------------------------------------------

const DEFAULT_CAPACITY: usize = 1 << 16;

static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

struct Ring {
    slots: Box<[Mutex<Option<Event>>]>,
    head: AtomicUsize,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| {
        let cap = match CAPACITY.load(Relaxed) {
            0 => std::env::var("GRAPHBLAS_TRACE_CAPACITY")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_CAPACITY),
            n => n,
        };
        Ring {
            slots: (0..cap).map(|_| Mutex::new(None)).collect::<Vec<_>>().into_boxed_slice(),
            head: AtomicUsize::new(0),
        }
    })
}

/// Set the ring capacity (events retained before the oldest are
/// overwritten). Effective only before the first event is recorded; the
/// `GRAPHBLAS_TRACE_CAPACITY` environment variable is the env-level
/// equivalent.
pub fn set_capacity(n: usize) {
    CAPACITY.store(n.max(1), Relaxed);
}

/// Events overwritten before being drained (ring overflow). The counter
/// accumulates across [`drain`] calls and is reset only by [`clear`],
/// which starts a fresh measurement window.
pub fn dropped() -> u64 {
    DROPPED.load(Relaxed)
}

fn push_event(e: Event) {
    if mode_u8() == Mode::Burble as u8 {
        eprintln!("[graphblas] {}", burble_line(&e));
    }
    let r = ring();
    let seq = r.head.fetch_add(1, Relaxed);
    let slot = &r.slots[seq % r.slots.len()];
    if slot.lock().replace(e).is_some() {
        DROPPED.fetch_add(1, Relaxed);
    }
}

/// Take every buffered event, oldest first, leaving the ring empty.
/// Events are returned in completion order (a span is stamped when it
/// closes); sort by [`Event::t0_ns`] for start order.
pub fn drain() -> Vec<Event> {
    let r = ring();
    let cap = r.slots.len();
    let head = r.head.load(Relaxed);
    let start = head.saturating_sub(cap);
    let mut out = Vec::new();
    for seq in start..head {
        if let Some(e) = r.slots[seq % cap].lock().take() {
            out.push(e);
        }
    }
    out
}

/// Discard all buffered events **and reset the [`dropped`] counter** —
/// `clear()` starts a fresh measurement window, so the overflow count
/// always refers to the ring contents drained *after* the last clear.
/// ([`drain`] by itself intentionally leaves `dropped()` alone: the
/// events it returns are exactly the ones that survived that overflow.)
pub fn clear() {
    drop(drain());
    DROPPED.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Burble exporter
// ---------------------------------------------------------------------------

/// Format a duration in adaptive units.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// One human-readable line for an event — the burble format.
pub fn burble_line(e: &Event) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{:>11.3}ms t{} {}", e.t0_ns as f64 / 1e6, e.tid, e.name);
    if let Some(k) = e.kernel {
        let _ = write!(s, " [{k}]");
    }
    for (k, v) in &e.args {
        match v {
            // String args can carry hostile content (labels derived from
            // input); quote and escape anything that would corrupt the
            // one-line format, mirroring the Chrome exporter's escaping.
            ArgValue::Str(val)
                if val.chars().any(|c| c.is_control() || c == '"' || c == '\\' || c == ' ') =>
            {
                let _ = write!(s, " {k}=\"");
                for c in val.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        c if c.is_control() => {
                            for esc in c.escape_default() {
                                s.push(esc);
                            }
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            v => {
                let _ = write!(s, " {k}={v}");
            }
        }
    }
    if e.dur_ns > 0 {
        let _ = write!(s, " ({})", fmt_ns(e.dur_ns));
    }
    s
}

/// The burble log for a batch of events, in start order.
pub fn format_burble(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.t0_ns);
    let mut out = String::new();
    for e in sorted {
        out.push_str(&burble_line(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
    }
}

/// Serialize events as Chrome trace-event JSON (the "Trace Event Format"
/// consumed by `chrome://tracing` and Perfetto). Spans become complete
/// (`"ph":"X"`) events with microsecond timestamps; instants become
/// thread-scoped instant (`"ph":"i"`) events. The chosen kernel and all
/// structured arguments land in `args`.
pub fn chrome_trace(events: &[Event]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.t0_ns);
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (k, e) in sorted.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat.name());
        out.push('"');
        if e.dur_ns > 0 {
            let _ =
                write!(out, ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3}", us(e.t0_ns), us(e.dur_ns));
        } else {
            let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3}", us(e.t0_ns));
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{},\"args\":{{", e.tid);
        let mut first = true;
        if let Some(kernel) = e.kernel {
            out.push_str("\"kernel\":\"");
            json_escape_into(&mut out, kernel);
            out.push('"');
            first = false;
        }
        for (key, v) in &e.args {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            json_escape_into(&mut out, key);
            out.push_str("\":");
            json_arg_value(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace`] output to a file.
pub fn write_chrome_trace<P: AsRef<std::path::Path>>(
    path: P,
    events: &[Event],
) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(events))
}

// ---------------------------------------------------------------------------
// Profile aggregation
// ---------------------------------------------------------------------------

/// Number of log₂ histogram buckets: bucket `b` holds values in
/// `[2^(b-1), 2^b)`, so 44 buckets cover latencies beyond two hours.
pub const HIST_BUCKETS: usize = 44;

/// Log₂ bucket index for a value — shared with [`crate::metrics`] so
/// live histograms and post-hoc profiles bucket identically.
pub(crate) fn bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Number of spans aggregated.
    pub count: u64,
    /// Summed wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    min_ns: u64,
    /// Slowest recorded span, in nanoseconds.
    pub max_ns: u64,
    /// Flops-work accumulated over spans carrying a `flops` argument.
    pub total_flops: u64,
    /// Latency histogram over log₂-nanosecond buckets.
    pub latency_hist: [u64; HIST_BUCKETS],
    /// Work (flops) histogram over log₂ buckets.
    pub work_hist: [u64; HIST_BUCKETS],
}

impl OpProfile {
    fn new() -> Self {
        OpProfile {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            total_flops: 0,
            latency_hist: [0; HIST_BUCKETS],
            work_hist: [0; HIST_BUCKETS],
        }
    }

    /// Fastest recorded span (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the histogram bucket containing the `q`-quantile
    /// sample (`0.0 < q <= 1.0`) — within 2× of the true quantile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.latency_hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << b;
            }
        }
        self.max_ns
    }
}

/// Per-op aggregation of a batch of span events: counts, latency and
/// work histograms: the way benches and tools summarize *what ran and
/// what it cost*.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Aggregates keyed by span name, sorted for stable reports.
    pub ops: BTreeMap<&'static str, OpProfile>,
}

impl Profile {
    /// Aggregate a batch of events (instants are skipped).
    pub fn from_events(events: &[Event]) -> Self {
        let mut p = Profile::default();
        for e in events {
            p.record(e);
        }
        p
    }

    /// Drain the ring buffer and aggregate everything in it.
    pub fn collect() -> Self {
        Self::from_events(&drain())
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, e: &Event) {
        if e.dur_ns == 0 {
            return;
        }
        let op = self.ops.entry(e.name).or_insert_with(OpProfile::new);
        op.count += 1;
        op.total_ns += e.dur_ns;
        op.min_ns = op.min_ns.min(e.dur_ns);
        op.max_ns = op.max_ns.max(e.dur_ns);
        op.latency_hist[bucket(e.dur_ns)] += 1;
        if let Some(f) = e.arg_u64("flops") {
            op.total_flops += f;
            op.work_hist[bucket(f)] += 1;
        }
    }

    /// A fixed-width table: per op, the count, total/mean/median/max
    /// latency, and accumulated flops estimate.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "span", "count", "total", "mean", "~p50", "max", "flops"
        );
        for (name, p) in &self.ops {
            let _ = writeln!(
                s,
                "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>14}",
                name,
                p.count,
                fmt_ns(p.total_ns),
                fmt_ns(p.mean_ns()),
                fmt_ns(p.quantile_ns(0.5)),
                fmt_ns(p.max_ns),
                p.total_flops,
            );
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Per-run aggregate (machine-readable benchmark export)
// ---------------------------------------------------------------------------

/// Whole-run roll-up of a batch of trace events into the handful of
/// scalar facts a benchmark run wants to persist: accumulated work
/// estimate, direction-choice counts, mispredictions, and the peak
/// deferred-update backlog any single assembly resolved. Unlike
/// [`Profile`] (per-span histograms for humans) this is flat and
/// schema-friendly — `lagraph-bench` writes one `RunAggregate` per
/// algorithm into its `BENCH_*.json` reports.
///
/// Build incrementally with [`record`](RunAggregate::record) across
/// several [`drain`] calls (e.g. once per trial), or in one shot with
/// [`from_events`](RunAggregate::from_events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunAggregate {
    /// Spans aggregated (instant events are counted separately below).
    pub spans: u64,
    /// Summed wall time of GraphBLAS-op spans ([`Cat::Op`]), in
    /// nanoseconds. Algorithm and runtime spans are excluded so nested
    /// spans are not double-counted.
    pub op_wall_ns: u64,
    /// Accumulated flops-order work estimate over spans carrying a
    /// `flops` argument.
    pub total_flops: u64,
    /// Products that ran the push (scatter) kernel, masked or not,
    /// including dual-storage fallbacks into push.
    pub push: u64,
    /// Products that ran the pull (dot) kernel, including fallbacks.
    pub pull: u64,
    /// Push/pull products where the cost model's preferred direction
    /// lacked dual storage, so the natural orientation ran instead.
    pub direction_fallbacks: u64,
    /// `mxv.mispredict` instants: products whose measured work priced
    /// higher than the model's estimate for the rejected direction.
    pub mispredicts: u64,
    /// `mxm` invocations per kernel: Gustavson (row-merge).
    pub mxm_gustavson: u64,
    /// `mxm` invocations that ran the masked/unmasked dot kernel.
    pub mxm_dot: u64,
    /// `mxm` invocations that ran the heap (k-way merge) kernel.
    pub mxm_heap: u64,
    /// Lazy assemblies (pending-tuple/zombie resolutions) observed.
    pub assemblies: u64,
    /// Largest pending-tuple backlog any single assembly resolved.
    pub peak_pending: u64,
    /// Largest zombie count any single assembly resolved.
    pub peak_zombies: u64,
    /// Total parallel chunks accumulated on spans.
    pub chunks: u64,
    /// Reductions that short-circuited on a terminal value.
    pub early_exits: u64,
    /// Products (mxm/mxv/vxm/fused) that ran a specialized inner loop.
    pub specialized: u64,
    /// Fused multiply-reduce/select invocations (product never
    /// materialized).
    pub mxm_fused: u64,
    /// Largest `resident_bytes` figure any span reported (assemblies
    /// attach the post-rebuild [`crate::MemoryUsage`] total) — the
    /// peak resident matrix footprint observed during the run.
    pub peak_resident_bytes: u64,
}

impl RunAggregate {
    /// Aggregate a batch of drained events.
    pub fn from_events(events: &[Event]) -> Self {
        let mut agg = RunAggregate::default();
        for e in events {
            agg.record(e);
        }
        agg
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, e: &Event) {
        if e.dur_ns == 0 {
            match e.name {
                "mxv.mispredict" => self.mispredicts += 1,
                "reduce.early_exit" => self.early_exits += 1,
                _ => {}
            }
            return;
        }
        self.spans += 1;
        if e.cat == Cat::Op {
            self.op_wall_ns += e.dur_ns;
        }
        if let Some(f) = e.arg_u64("flops") {
            self.total_flops += f;
        }
        if let Some(c) = e.arg_u64("chunks") {
            self.chunks += c;
        }
        if let Some(b) = e.arg_u64("resident_bytes") {
            self.peak_resident_bytes = self.peak_resident_bytes.max(b);
        }
        match e.kernel {
            Some("push") | Some("push(masked)") => self.push += 1,
            Some("pull") => self.pull += 1,
            Some("push(fallback)") => {
                self.push += 1;
                self.direction_fallbacks += 1;
            }
            Some("pull(fallback)") => {
                self.pull += 1;
                self.direction_fallbacks += 1;
            }
            Some("gustavson") => self.mxm_gustavson += 1,
            Some("dot") => self.mxm_dot += 1,
            Some("heap") => self.mxm_heap += 1,
            Some("push(specialized)") | Some("push(masked,specialized)") => {
                self.push += 1;
                self.specialized += 1;
            }
            Some("pull(specialized)") => {
                self.pull += 1;
                self.specialized += 1;
            }
            Some("gustavson(specialized)") => {
                self.mxm_gustavson += 1;
                self.specialized += 1;
            }
            Some("dot(specialized)") => {
                self.mxm_dot += 1;
                self.specialized += 1;
            }
            Some("fused(dot+reduce)") | Some("fused(dot+select)") => {
                self.mxm_fused += 1;
                self.specialized += 1;
            }
            _ => {}
        }
        if matches!(e.name, "assemble.matrix" | "assemble.vector") {
            self.assemblies += 1;
            if let Some(p) = e.arg_u64("pending") {
                self.peak_pending = self.peak_pending.max(p);
            }
            if let Some(z) = e.arg_u64("zombies") {
                self.peak_zombies = self.peak_zombies.max(z);
            }
        }
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;

    fn span(name: &'static str, cat: Cat, kernel: Option<&'static str>, dur: u64) -> Event {
        Event { name, cat, kernel, t0_ns: 0, dur_ns: dur, tid: 0, args: Vec::new() }
    }

    #[test]
    fn run_aggregate_rolls_up_directions_flops_and_assembly_peaks() {
        let mut push = span("mxv", Cat::Op, Some("push"), 10);
        push.args.push(("flops", ArgValue::U64(100)));
        let mut pull = span("mxv", Cat::Op, Some("pull(fallback)"), 20);
        pull.args.push(("flops", ArgValue::U64(50)));
        let mut asm_small = span("assemble.matrix", Cat::Runtime, None, 5);
        asm_small.args.push(("pending", ArgValue::U64(3)));
        asm_small.args.push(("zombies", ArgValue::U64(1)));
        let mut asm_big = span("assemble.vector", Cat::Runtime, None, 5);
        asm_big.args.push(("pending", ArgValue::U64(77)));
        asm_big.args.push(("zombies", ArgValue::U64(0)));
        let mis = span("mxv.mispredict", Cat::Runtime, Some("push"), 0);
        let ee = span("reduce.early_exit", Cat::Runtime, None, 0);
        let algo = span("bfs", Cat::Algo, None, 1000);

        let agg = RunAggregate::from_events(&[push, pull, asm_small, asm_big, mis, ee, algo]);
        assert_eq!(agg.spans, 5);
        assert_eq!(agg.op_wall_ns, 30, "only Cat::Op spans count toward op wall");
        assert_eq!(agg.total_flops, 150);
        assert_eq!((agg.push, agg.pull), (1, 1));
        assert_eq!(agg.direction_fallbacks, 1);
        assert_eq!(agg.mispredicts, 1);
        assert_eq!(agg.early_exits, 1);
        assert_eq!(agg.assemblies, 2);
        assert_eq!((agg.peak_pending, agg.peak_zombies), (77, 1));
    }

    #[test]
    fn run_aggregate_counts_mxm_kernels() {
        let events: Vec<Event> = [("gustavson", 3), ("dot", 2), ("heap", 1)]
            .iter()
            .flat_map(|&(k, c)| (0..c).map(move |_| span("mxm", Cat::Op, Some(k), 7)))
            .collect();
        let agg = RunAggregate::from_events(&events);
        assert_eq!((agg.mxm_gustavson, agg.mxm_dot, agg.mxm_heap), (3, 2, 1));
        assert_eq!(agg.spans, 6);
    }

    #[test]
    fn run_aggregate_counts_specialized_and_fused_kernels() {
        let events = vec![
            span("mxm", Cat::Op, Some("dot(specialized)"), 7),
            span("mxm", Cat::Op, Some("gustavson(specialized)"), 7),
            span("mxv", Cat::Op, Some("pull(specialized)"), 7),
            span("mxv", Cat::Op, Some("push(specialized)"), 7),
            span("vxm", Cat::Op, Some("push(masked,specialized)"), 7),
            span("mxm.fused", Cat::Op, Some("fused(dot+reduce)"), 7),
            span("mxm.fused", Cat::Op, Some("fused(dot+select)"), 7),
            span("mxm", Cat::Op, Some("dot"), 7),
        ];
        let agg = RunAggregate::from_events(&events);
        assert_eq!(agg.specialized, 7);
        assert_eq!(agg.mxm_fused, 2);
        // Specialized variants still count toward their base kernel tally.
        assert_eq!(agg.mxm_dot, 2);
        assert_eq!(agg.mxm_gustavson, 1);
        assert_eq!((agg.push, agg.pull), (2, 1));
    }
}

// ---------------------------------------------------------------------------
// Tests (run under `--features trace`: they toggle process-global trace
// state, so the dedicated CI feature job runs them while default test
// runs — which share the process with unrelated concurrent tests — skip
// them; tests/trace.rs covers the integration surface unconditionally).
// ---------------------------------------------------------------------------

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// Serializes tests that flip the global mode or drain the ring.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        disable();
        clear();
        {
            let mut s = algo_span("test.off");
            s.arg("x", 1u64);
            assert!(!s.on());
        }
        assert!(drain().iter().all(|e| e.name != "test.off"));
    }

    #[test]
    fn spans_record_args_kernel_and_duration() {
        let _g = lock();
        enable();
        clear();
        {
            let mut s = op_span(Op::Mxv);
            s.kernel(Kernel::Pull);
            s.arg("u_nnz", 7u64);
            s.flops(42);
            assert!(s.on());
        }
        let evs = drain();
        disable();
        let e = evs.iter().find(|e| e.name == "mxv").expect("mxv span recorded");
        assert_eq!(e.kernel, Some("pull"));
        assert_eq!(e.arg_u64("u_nnz"), Some(7));
        assert_eq!(e.arg_u64("flops"), Some(42));
        assert!(e.dur_ns > 0);
    }

    #[test]
    fn mode_round_trips() {
        let _g = lock();
        set_mode(Mode::Burble);
        assert_eq!(mode(), Mode::Burble);
        assert!(enabled());
        set_mode(Mode::Off);
        assert_eq!(mode(), Mode::Off);
        assert!(!enabled());
    }

    #[test]
    fn warn_once_is_one_shot() {
        let _g = lock();
        enable();
        clear();
        warn_once("trace-test-warn", "first");
        warn_once("trace-test-warn", "second");
        let warns = drain()
            .into_iter()
            .filter(|e| {
                e.name == "warn" && e.args.contains(&("key", ArgValue::Str("trace-test-warn")))
            })
            .count();
        disable();
        assert_eq!(warns, 1);
    }

    #[test]
    fn chrome_trace_serializes_spans_and_instants() {
        let events = vec![
            Event {
                name: "mxv",
                cat: Cat::Op,
                kernel: Some("push"),
                t0_ns: 1_000,
                dur_ns: 2_500,
                tid: 0,
                args: vec![("u_nnz", ArgValue::U64(3)), ("res", ArgValue::F64(0.5))],
            },
            Event {
                name: "dispatch",
                cat: Cat::Runtime,
                kernel: None,
                t0_ns: 1_200,
                dur_ns: 0,
                tid: 1,
                args: vec![("chunks", ArgValue::U64(4))],
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"kernel\":\"push\""));
        assert!(json.contains("\"u_nnz\":3"));
        assert!(json.contains("\"res\":0.5"));
    }

    #[test]
    fn chrome_trace_escapes_and_nan_is_null() {
        let events = vec![Event {
            name: "x",
            cat: Cat::Op,
            kernel: None,
            t0_ns: 0,
            dur_ns: 5,
            tid: 0,
            args: vec![("bad", ArgValue::F64(f64::NAN)), ("s", ArgValue::Str("a\"b"))],
        }];
        let json = chrome_trace(&events);
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("a\\\"b"));
    }

    #[test]
    fn profile_aggregates_latency_and_work() {
        let mk = |dur: u64, flops: u64| Event {
            name: "mxm",
            cat: Cat::Op,
            kernel: None,
            t0_ns: 0,
            dur_ns: dur,
            tid: 0,
            args: vec![("flops", ArgValue::U64(flops))],
        };
        let p = Profile::from_events(&[mk(100, 10), mk(300, 30), mk(200, 20)]);
        let op = &p.ops["mxm"];
        assert_eq!(op.count, 3);
        assert_eq!(op.total_ns, 600);
        assert_eq!(op.min_ns(), 100);
        assert_eq!(op.max_ns, 300);
        assert_eq!(op.total_flops, 60);
        assert_eq!(op.mean_ns(), 200);
        assert!(op.quantile_ns(0.5) >= 128 && op.quantile_ns(0.5) <= 512);
        assert!(p.report().contains("mxm"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn burble_lines_are_readable() {
        let e = Event {
            name: "mxv",
            cat: Cat::Op,
            kernel: Some("pull"),
            t0_ns: 2_000_000,
            dur_ns: 1_500,
            tid: 2,
            args: vec![("u_nnz", ArgValue::U64(9))],
        };
        let line = burble_line(&e);
        assert!(line.contains("mxv"));
        assert!(line.contains("[pull]"));
        assert!(line.contains("u_nnz=9"));
        let log = format_burble(std::slice::from_ref(&e));
        assert!(log.ends_with('\n'));
    }
}
