//! Wall-clock spans recorded from outside the program.
//!
//! The traced run wraps calls into each layer's public functions in
//! [`span`], and the two public trait seams — `Medium` (every Gen2
//! command) and `Storage` (every durable write and read) — in
//! [`TimedMedium`] and [`TimedStorage`]. Spans are kept in memory and
//! written out once the run ends. Hot leaf calls (one per Gen2
//! command, one per storage operation) are folded into one span per
//! enclosing span carrying their summed busy time and call count, so a
//! mission's ~200k transactions cost one record per inventory round.
//!
//! Nothing here writes into the program's deterministic streams: the
//! clock lives only in this benchmark's own output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use rfly_chaos::{Storage, StorageError};
use rfly_protocol::commands::Command;
use rfly_reader::inventory::{Medium, Observation};

/// One recorded span. Leaf spans fold many calls: `busy_ns` is their
/// summed duration and `calls` their count; for an ordinary span
/// `busy_ns = end_ns - start_ns` and `calls = 1`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Self time and call count of every span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Open leaf folds: (enclosing span, name) → index into `spans`.
    leaves: BTreeMap<(usize, &'static str), usize>,
    counters: BTreeMap<&'static str, f64>,
    op: usize,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording on this thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            leaves: BTreeMap::new(),
            counters: BTreeMap::new(),
            op: 0,
        })
    });
}

/// Stops recording and hands back every span and counter.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(tr) => (tr.spans, tr.counters),
        None => (Vec::new(), BTreeMap::new()),
    })
}

/// Tags every span opened from now on with operation id `op`.
pub fn set_op(op: usize) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.op = op;
        }
    });
}

/// Runs `f` inside a span named `name` (a plain call when no tracer is
/// installed).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let start = now_ns(tr.epoch);
        let idx = tr.spans.len();
        tr.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
            calls: 1,
            parent: tr.stack.last().copied(),
            op: tr.op,
        });
        tr.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let end = now_ns(tr.epoch);
                let s = &mut tr.spans[idx];
                s.end_ns = end;
                s.busy_ns = end - s.start_ns;
                tr.stack.pop();
                tr.leaves.retain(|&(parent, _), _| parent != idx);
            }
        });
    }
    out
}

/// The span name of benchmark-only work nested in an operation; its
/// time is subtracted from the operation's.
pub const OUTSIDE_OP: &str = "bench.outside_op";

/// Runs `f` — a measurement of the benchmark's own, not program work —
/// in a span whose time the operation does not count.
pub fn outside_op<T>(f: impl FnOnce() -> T) -> T {
    span(OUTSIDE_OP, f)
}

/// Folds one call of the leaf `name`, which started at `start`, into
/// the enclosing span.
fn leaf(name: &'static str, start: Instant) {
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else { return };
        let Some(&parent) = tr.stack.last() else {
            return;
        };
        let busy = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(start.saturating_duration_since(tr.epoch).as_nanos()).unwrap_or(u64::MAX);
        let end_ns = start_ns + busy;
        let op = tr.op;
        let next = tr.spans.len();
        let idx = *tr.leaves.entry((parent, name)).or_insert(next);
        if idx == next {
            tr.spans.push(Span {
                name,
                start_ns,
                end_ns,
                busy_ns: 0,
                calls: 0,
                parent: Some(parent),
                op,
            });
        }
        let s = &mut tr.spans[idx];
        s.end_ns = end_ns;
        s.busy_ns += busy;
        s.calls += 1;
    });
}

/// Adds `v` to the counter `name`.
pub fn count(name: &'static str, v: f64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.counters.entry(name).or_insert(0.0) += v;
        }
    });
}

/// Busy time, self time (busy minus the busy time of direct children)
/// and calls per span name. Children never overlap: everything traced
/// runs on one thread, one call at a time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.busy_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.busy_ns += s.busy_ns;
        e.self_ns += s.busy_ns.saturating_sub(child);
        e.calls += s.calls;
    }
    out
}

/// The spans as one JSON document.
pub fn spans_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"parent\":{parent},\"op\":{}}}",
            sp.name, sp.start_ns, sp.end_ns, sp.busy_ns, sp.calls, sp.op
        ));
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s
}

/// A `Medium` that times every Gen2 command as the leaf
/// `sim.transact`.
pub struct TimedMedium<M>(pub M);

impl<M: Medium> Medium for TimedMedium<M> {
    fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
        let t0 = Instant::now();
        let out = self.0.transact(cmd);
        leaf("sim.transact", t0);
        out
    }
}

/// A `Storage` that times every operation as a `chaos.*` leaf and
/// counts the bytes it moves.
pub struct TimedStorage<'a>(pub &'a mut dyn Storage);

/// The counter that receives the bytes written to `path`.
fn bytes_counter(path: &str) -> &'static str {
    if path.starts_with("campaign") {
        "ops.log_bytes"
    } else {
        "replay.bytes_written"
    }
}

impl Storage for TimedStorage<'_> {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = self.0.append(path, bytes);
        leaf("chaos.append", t0);
        count("chaos.bytes", bytes.len() as f64);
        count(bytes_counter(path), bytes.len() as f64);
        out
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = self.0.write_atomic(path, bytes);
        leaf("chaos.write_atomic", t0);
        count("chaos.bytes", bytes.len() as f64);
        count(bytes_counter(path), bytes.len() as f64);
        out
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let t0 = Instant::now();
        let out = self.0.read(path);
        leaf("chaos.read", t0);
        if let Ok(bytes) = &out {
            count("chaos.bytes", bytes.len() as f64);
        }
        out
    }

    fn exists(&self, path: &str) -> bool {
        let t0 = Instant::now();
        let out = self.0.exists(path);
        leaf("chaos.meta", t0);
        out
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let out = self.0.remove(path);
        leaf("chaos.meta", t0);
        out
    }

    fn list(&self) -> Vec<String> {
        let t0 = Instant::now();
        let out = self.0.list();
        leaf("chaos.meta", t0);
        out
    }
}
