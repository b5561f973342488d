//! The RFly benchmark: closed-loop, seeded workloads over the
//! simulator's public entry points, timed in host seconds.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times every operation with nothing wrapped and prints
//! the end-to-end metrics. `--trace 1` runs every operation twice with
//! the same inputs — once through the entry point, once through its
//! loop rebuilt from public calls with a span at every layer boundary —
//! requires the two outputs to be equal, and prints per-layer self
//! times and counts; the spans go to `perfbench/out/`. Either way the
//! last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Any failed operation makes the exit code 1.

mod durable;
mod fleet;
mod loc;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use rfly_sim::pool::{global_workers, set_global_workers};

use crate::durable::DurableRecovery;
use crate::fleet::FleetInventoryWorkload;
use crate::loc::SarLocalizeWorkload;
use crate::trace::{self_times, span, SelfTime, OUTSIDE_OP};
use crate::workload::Workload;

/// Work-pool width: fixed, so a bigger machine does not silently widen
/// the pool and change what is measured; clamped to the cores present.
const POOL_WIDTH: usize = 2;
/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run's environment, recorded with every result.
struct Env {
    nproc: usize,
    pool_width: usize,
    git_rev: String,
    profile: &'static str,
}

/// The checkout's commit when it is a git checkout (read from `.git`
/// directly; no process is started).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Peak resident set size (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// What a run measured.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Host seconds per successful operation (untraced).
    op_s: Vec<f64>,
    /// Simulated work units per successful operation.
    work: Vec<f64>,
    read_rates: Vec<f64>,
    errors_m: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, op: usize, e: &str) {
        self.failed += 1;
        eprintln!("perfbench: operation {op} failed: {e}");
    }
}

/// One timed operation through the entry point.
fn timed<W: Workload>(w: &W, op: usize) -> Result<(f64, W::Output), String> {
    let input = w.prepare(op)?;
    let t0 = Instant::now();
    let out = w.run(input)?;
    Ok((t0.elapsed().as_secs_f64(), out))
}

/// Sets `W` up [`SETUP_REPS`] times, then runs operations for
/// `seconds` (at least `min_ops`). One set-up is everything before the
/// first timed operation: the workload's shared state, the first
/// operation's inputs, and one checked warm-up operation, so caches
/// are filled and lazy initialisation is done before timing starts.
/// Returns the set-up times and the tally.
fn drive<W: Workload>(
    args: &Args,
    min_ops: usize,
    setup: impl Fn(u64) -> Result<W, String>,
) -> Result<(Vec<f64>, Tally), String> {
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = guarded(|| {
            span("bench.setup", || {
                let built = setup(args.seed)?;
                let warm = built.run(built.prepare(0)?)?;
                built
                    .check(&warm)
                    .map_err(|e| format!("warm-up operation: {e}"))?;
                Ok(built)
            })
        })?;
        setup_s.push(t0.elapsed().as_secs_f64());
        w = Some(built);
    }
    let w = w.ok_or("no set-up ran")?;

    let mut tally = Tally::default();
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < args.seconds || op < min_ops {
        tally.attempted += 1;
        let result = guarded(|| {
            let (dt, out) = timed(&w, op)?;
            let sample = w.check(&out)?;
            if !args.trace {
                return Ok((dt, sample));
            }
            // The traced twin: same inputs, rebuilt loop, equal output.
            let input = w.prepare(op)?;
            trace::set_op(op);
            let traced = span("op", || w.run_traced(input))?;
            w.same(&out, &traced)?;
            let twin = w.check(&traced)?;
            if twin.read_rate != sample.read_rate || twin.error_m != sample.error_m {
                return Err("traced run changed the simulated statistics".into());
            }
            Ok((dt, sample))
        });
        match result {
            Ok((dt, sample)) => {
                tally.op_s.push(dt);
                tally.work.push(sample.work);
                tally.read_rates.push(sample.read_rate);
                tally.errors_m.extend(sample.error_m);
            }
            Err(e) => tally.fail(op, &e),
        }
        op += 1;
    }
    Ok((setup_s, tally))
}

/// The end-to-end metrics: `(name, unit, value)`.
fn end_to_end(
    setup_s: &[f64],
    t: &Tally,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let ops = sorted(t.op_s.clone());
    let rates = sorted(t.work.iter().zip(&t.op_s).map(|(w, s)| w / s).collect());
    Ok(vec![
        ("setup_s", "s", quantile(&sorted(setup_s.to_vec()), 0.5)),
        ("peak_rss_mb", "MB", peak_rss_mb()?),
        ("op_s_p50", "s", quantile(&ops, 0.5)),
        ("work_per_s", "1/s", quantile(&rates, 0.5)),
        ("read_rate", "ratio", mean(&t.read_rates)),
    ])
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: `(name, unit, value)`.
fn per_layer(
    spans: &[trace::Span],
    counters: &BTreeMap<&'static str, f64>,
    t: &Tally,
) -> Vec<(&'static str, &'static str, f64)> {
    let st = self_times(spans);
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let s = |name: &str| get(name).self_ns as f64 * 1e-9;
    let calls = |name: &str| get(name).calls as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);

    let op = get("op");
    let outside = get(OUTSIDE_OP).busy_ns as f64 * 1e-9;
    let op_s = op.busy_ns as f64 * 1e-9 - outside;
    let covered = op.busy_ns as f64 * 1e-9 - op.self_ns as f64 * 1e-9 - outside;
    let slots = c("reader.slots_empty") + c("reader.slots_single") + c("reader.slots_collision");
    let chaos_ops: f64 = [
        "chaos.append",
        "chaos.write_atomic",
        "chaos.read",
        "chaos.meta",
    ]
    .iter()
    .map(|n| calls(n))
    .sum();
    let untraced: f64 = t.op_s.iter().sum();
    vec![
        ("sim.transact_s", "s", s("sim.transact")),
        ("sim.transactions", "count", calls("sim.transact")),
        (
            "sim.transact_us_per_call",
            "us",
            ratio(s("sim.transact") * 1e6, calls("sim.transact")),
        ),
        (
            "tag.powered_fraction",
            "ratio",
            ratio(c("tag.powered"), c("tag.present")),
        ),
        ("sim.fleetrf_trace_s", "s", s("sim.fleetrf_trace")),
        ("sim.fleetrf_traces", "count", calls("sim.fleetrf_trace")),
        ("sim.power_cycle_s", "s", s("sim.power_cycle")),
        ("reader.self_s", "s", s("reader.round")),
        ("reader.rounds", "count", calls("reader.round")),
        ("reader.slots_empty", "count", c("reader.slots_empty")),
        ("reader.slots_single", "count", c("reader.slots_single")),
        (
            "reader.slots_collision",
            "count",
            c("reader.slots_collision"),
        ),
        (
            "reader.single_ratio",
            "ratio",
            ratio(c("reader.slots_single"), slots),
        ),
        (
            "reader.slot_cap_rounds",
            "count",
            c("reader.slot_cap_rounds"),
        ),
        ("fleet.plan_s", "s", s("fleet.plan")),
        ("fleet.observe_s", "s", s("fleet.observe")),
        ("fleet.partition_s", "s", s("fleet.partition")),
        ("fleet.assign_s", "s", s("fleet.assign")),
        ("loc.inventory_s", "s", s("loc.inventory")),
        ("loc.disentangle_s", "s", s("loc.disentangle")),
        ("loc.heatmap_s", "s", s("loc.heatmap")),
        ("loc.peak_select_s", "s", s("loc.peak_select")),
        ("loc.heatmap_cells", "count", c("loc.heatmap_cells")),
        ("loc.phasor_evals", "count", c("loc.phasor_evals")),
        (
            "loc.error_m_p50",
            "m",
            quantile(&sorted(t.errors_m.clone()), 0.5),
        ),
        ("faults.advance_s", "s", s("faults.advance")),
        ("faults.steps", "count", calls("faults.advance")),
        ("faults.into_outcome_s", "s", s("faults.into_outcome")),
        ("replay.build_s", "s", s("replay.build")),
        ("replay.step_encode_s", "s", s("replay.step_encode")),
        (
            "replay.checkpoint_encode_s",
            "s",
            s("replay.checkpoint_encode"),
        ),
        ("replay.bytes_written", "bytes", c("replay.bytes_written")),
        ("replay.salvage_s", "s", s("replay.salvage")),
        (
            "replay.checkpoint_decode_s",
            "s",
            s("replay.checkpoint_decode"),
        ),
        ("chaos.append_s", "s", s("chaos.append")),
        ("chaos.write_atomic_s", "s", s("chaos.write_atomic")),
        ("chaos.read_s", "s", s("chaos.read")),
        ("chaos.ops", "count", chaos_ops),
        ("chaos.bytes", "bytes", c("chaos.bytes")),
        ("ops.tick_s", "s", s("ops.campaign_write")),
        ("ops.ticks", "count", c("ops.ticks")),
        ("ops.log_bytes", "bytes", c("ops.log_bytes")),
        ("ops.recover_s", "s", s("ops.recover")),
        ("inventory.read_rate", "ratio", mean(&t.read_rates)),
        ("trace.op_s", "s", op_s),
        ("trace.layer_share", "ratio", ratio(covered, op_s)),
        ("trace.overhead_ratio", "ratio", ratio(op_s, untraced)),
    ]
}

/// Each layer's share of traced operation time, by crate prefix.
fn layer_shares(st: &BTreeMap<&'static str, SelfTime>) -> BTreeMap<String, f64> {
    let op = st.get("op").copied().unwrap_or_default();
    let outside = st.get(OUTSIDE_OP).copied().unwrap_or_default().busy_ns;
    let total = op.busy_ns.saturating_sub(outside) as f64;
    let mut shares = BTreeMap::new();
    for (name, t) in st {
        let layer = match *name {
            "op" => "unattributed".to_string(),
            n if n == OUTSIDE_OP || n == "bench.setup" => continue,
            n if n.starts_with("fleet.partition") || n.starts_with("fleet.assign") => continue,
            n => n.split('.').next().unwrap_or(n).to_string(),
        };
        *shares.entry(layer).or_insert(0.0) += ratio(t.self_ns as f64, total);
    }
    shares
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    set_global_workers(POOL_WIDTH.min(nproc));
    let env = Env {
        nproc,
        pool_width: global_workers(),
        git_rev: git_rev(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    };
    if env.pool_width > env.nproc {
        return Err(format!(
            "pool width {} exceeds the {} cores present",
            env.pool_width, env.nproc
        ));
    }
    let env_json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"pool_width\": {}, \"git_rev\": \"{}\", \"profile\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env.nproc,
        env.pool_width,
        env.git_rev,
        env.profile
    );
    println!("env {env_json}");
    if args.trace {
        trace::install();
    }

    let (setup_s, tally) = match args.workload.as_str() {
        "fleet-inventory" => drive(&args, 3, FleetInventoryWorkload::setup)?,
        "sar-localize" => drive(&args, 20, |seed| Ok(SarLocalizeWorkload::setup(seed)))?,
        "durable-recovery" => drive(&args, 20, |seed| Ok(DurableRecovery::setup(seed)))?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if tally.attempted == tally.failed {
        return Err("every operation failed".into());
    }

    let metrics = if args.trace {
        let (spans, counters) = trace::take();
        let st = self_times(&spans);
        for (layer, share) in layer_shares(&st) {
            println!(
                "layer {layer:<14} {:>6.2}% of traced op time",
                share * 100.0
            );
        }
        let metrics = per_layer(&spans, &counters, &tally);
        std::fs::create_dir_all("perfbench/out").map_err(|e| e.to_string())?;
        let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
        let doc = format!(
            "{{\"env\": {env_json}, \"metrics\": {}, \"spans\": {}}}\n",
            json_metrics(&metrics),
            trace::spans_json(&spans)
        );
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        metrics
    } else {
        end_to_end(&setup_s, &tally)?
    };
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "detail ops={} setup_s=[{}] op_s=[{}] work=[{}]",
        tally.op_s.len(),
        list(&setup_s),
        list(&tally.op_s),
        list(&tally.work)
    );
    if !tally.errors_m.is_empty() {
        println!(
            "detail loc_error_m_p50={}",
            quantile(&sorted(tally.errors_m.clone()), 0.5)
        );
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
