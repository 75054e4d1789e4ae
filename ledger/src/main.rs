//! The fiq performance ledger: one benchmark command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload paper-grid|exact-census|serve-fleet \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run repeats its workload's study (source to report) for about
//! `--seconds` seconds, checks the program's outputs, and prints a table
//! followed by one JSON result line. With `--trace 0` the result holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, taken from spans around the pipeline calls and from the
//! engine's telemetry stream. See `ledger/README.md`.

mod census;
mod checks;
mod fleet;
mod grid;
mod pipeline;
mod stats;
mod tel;
mod trace;

use fiq_core::json::Json;
use stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tel::EngineTel;
use trace::Tracer;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Worker threads of the in-process engine (the daemon runs this many
/// executors instead).
pub const THREADS: usize = 2;

/// Studies a run makes at least (a trace run makes one more, so that it
/// has an untraced baseline and two traced studies to compare).
const MIN_ITERATIONS: usize = 2;

/// The end-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("study_s", "s"),
    ("injections_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// The per-layer metrics, in output order, with units.
const PER_LAYER: [(&str, &str); 42] = [
    ("frontend.compile_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("backend.lower_ms", "ms"),
    ("profile.llfi_ms", "ms"),
    ("profile.pinfi_ms", "ms"),
    ("interp.golden_ns_per_step", "ns"),
    ("asm.golden_ns_per_step", "ns"),
    ("profile.snapshots_ms", "ms"),
    ("profile.snapshots", "count"),
    ("engine.plan_ms", "ms"),
    ("engine.tasks", "count"),
    ("collapse.fault_space", "count"),
    ("collapse.executed", "count"),
    ("collapse.reduction", "ratio"),
    ("engine.run_s", "s"),
    ("engine.fast_forward_ratio", "ratio"),
    ("engine.early_exit_ratio", "ratio"),
    ("engine.steps_executed", "count"),
    ("engine.steps_quiescent_ratio", "ratio"),
    ("engine.steps_skipped_ff", "count"),
    ("engine.digest_compares", "count"),
    ("engine.digest_match_ratio", "ratio"),
    ("engine.restore_ms", "ms"),
    ("engine.task_us_p50", "us"),
    ("engine.task_us_p99", "us"),
    ("engine.ns_per_step", "ns"),
    ("io.records_bytes", "bytes"),
    ("io.record_flushes", "count"),
    ("divergence.timelines", "count"),
    ("divergence.bytes", "bytes"),
    ("report.build_ms", "ms"),
    ("report.render_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.merge_ms", "ms"),
    ("serve.spool_bytes", "bytes"),
    ("serve.shard_attempts", "count"),
    ("trace.study_s", "s"),
    ("trace.overhead_s", "s"),
    ("tripwire.mismatches", "count"),
];

/// The counters that must repeat exactly for a given seed. A study
/// fills in those its mode observes (the telemetry-derived ones only
/// when traced); every pair of studies of a run must agree on the ones
/// both have.
pub const EXACT_COUNTERS: [&str; 9] = [
    "engine.tasks",
    "collapse.fault_space",
    "collapse.executed",
    "engine.steps_executed",
    "engine.steps_skipped_ff",
    "engine.digest_compares",
    "divergence.timelines",
    "io.records_bytes",
    "io.records_hash",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper-grid", "exact-census", "serve-fleet"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper-grid, exact-census or serve-fleet (got `{}`)",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a workload run shares across its studies.
pub struct Ctx {
    pub seed: u64,
    pub tracer: Tracer,
}

/// Attempted and failed operations: injection tasks, program
/// preparations, API calls, and output comparisons.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Ops {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation (an engine or API error, a failed
    /// campaign, a retried shard).
    pub fn fail(&mut self, msg: String) {
        eprintln!("ledger: failed: {msg}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Counts one output comparison: `Ok(n)` compared `n` items.
    pub fn check(&mut self, r: Result<usize, String>) {
        match r {
            Ok(n) => self.ok(n.max(1) as u64),
            Err(msg) => {
                self.mismatches += 1;
                self.fail(format!("output check: {msg}"));
            }
        }
    }
}

/// What one study (one pass of the workload, source to report) measured.
#[derive(Default)]
pub struct Study {
    pub traced: bool,
    /// Seconds before the first injection could run.
    pub setup_s: f64,
    /// Seconds from source to the last report.
    pub study_s: f64,
    /// Seconds of the execution phase.
    pub exec_s: f64,
    /// Peak resident set size during the study, MB.
    pub peak_rss_mb: f64,
    /// Injection tasks executed.
    pub tasks: u64,
    /// Work measured in golden steps, for the golden ns/step figures.
    pub golden_llfi_steps: u64,
    pub golden_pinfi_steps: u64,
    /// Deterministic counters (see [`EXACT_COUNTERS`]).
    pub exact: BTreeMap<&'static str, u64>,
    /// Other per-layer observations (counts, ratios, times).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Engine telemetry (traced studies; always for serve-fleet).
    pub tel: Option<EngineTel>,
}

impl Study {
    /// Folds engine telemetry into the exact counters and keeps it.
    pub fn set_tel(&mut self, tel: EngineTel) {
        self.exact
            .insert("engine.steps_executed", tel.steps_executed);
        self.exact
            .insert("engine.steps_skipped_ff", tel.steps_skipped_ff);
        self.exact
            .insert("engine.digest_compares", tel.digest_compares);
        self.exact.insert("divergence.timelines", tel.timelines);
        self.tel = Some(tel);
    }
}

/// FNV-1a over a file's bytes: a cheap fingerprint for the tripwire,
/// read in chunks so a large stream adds nothing to the peak RSS.
pub fn file_hash(path: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("read {}: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(err)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    loop {
        let n = file.read(&mut buf).map_err(err)?;
        if n == 0 {
            return Ok(h);
        }
        for &b in &buf[..n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Repeats `one` for about `seconds`, at least [`MIN_ITERATIONS`] times.
/// A trace run interleaves: untraced, traced, traced, then alternating,
/// so it holds at least one untraced study (the baseline of the tracing
/// overhead) and two traced ones (for the tripwire). Each study gets a
/// fresh directory; only the last one is kept, together with what `one`
/// returned for it.
pub fn iterate<K>(
    ctx: &Ctx,
    dir: &Path,
    seconds: f64,
    trace: bool,
    mut one: impl FnMut(&Path, bool) -> Result<(Study, K), String>,
) -> Result<(Vec<Study>, K, PathBuf), String> {
    let start = Instant::now();
    let mut studies: Vec<Study> = Vec::new();
    let mut last: Option<(K, PathBuf)> = None;
    loop {
        let n = studies.len();
        let elapsed = start.elapsed().as_secs_f64();
        let need = n < if trace {
            MIN_ITERATIONS + 1
        } else {
            MIN_ITERATIONS
        };
        let per = if n == 0 { 0.0 } else { elapsed / n as f64 };
        if !need && elapsed + per > seconds {
            break;
        }
        let traced = trace && n != 0 && !(n >= 3 && n % 2 == 1);
        // The previous study's outputs are released first, so studies
        // never hold memory or disk space at the same time.
        if let Some((keep, old)) = last.take() {
            drop(keep);
            std::fs::remove_dir_all(&old).map_err(|e| format!("remove {}: {e}", old.display()))?;
        }
        let it = n as u64 + 1;
        let sdir = dir.join(format!("study{it}"));
        fresh_dir(&sdir)?;
        reset_peak_rss();
        ctx.tracer.set(traced, it);
        let (mut study, keep) = ctx.tracer.span("study", it, || one(&sdir, traced))?;
        ctx.tracer.set(false, 0);
        study.traced = traced;
        study.peak_rss_mb = peak_rss_mb();
        studies.push(study);
        last = Some((keep, sdir));
    }
    let (keep, sdir) = last.expect("at least one study ran");
    Ok((studies, keep, sdir))
}

/// Compares the exact counters of every study against the first study
/// that has each. A difference is flagged on stderr and counted; it is
/// not a failed operation (see README.md, "Determinism tripwire").
/// Returns the number of differences.
fn tripwire(studies: &[Study]) -> usize {
    let mut mismatches = 0;
    for name in EXACT_COUNTERS {
        let mut seen: Option<u64> = None;
        for (i, s) in studies.iter().enumerate() {
            let Some(&v) = s.exact.get(name) else {
                continue;
            };
            match seen {
                None => seen = Some(v),
                Some(first) if v != first => {
                    mismatches += 1;
                    eprintln!(
                        "ledger: tripwire: {name} is {v} in study {} but {first} in an earlier \
                         study of the same seed",
                        i + 1
                    );
                }
                Some(_) => {}
            }
        }
    }
    mismatches
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so each study's peak is its own. Best effort: without
/// `/proc/self/clear_refs` the peak spans the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line of the human-readable table: a timing's median, its
/// highest percentile with ten samples beyond it, and the sample count.
fn timing_row(name: &str, unit: &str, samples: &[f64]) {
    let tail = tail_percentile(samples.len())
        .filter(|p| *p > 50.0)
        .map_or(String::new(), |p| {
            format!("  p{p} {:.4}", percentile(samples, p))
        });
    println!(
        "  {name:<28} median {:.4} {unit}{tail}  (n={})",
        median(samples),
        samples.len()
    );
}

/// Median of one gauge over the studies that observed it.
fn gauge(studies: &[Study], name: &str) -> f64 {
    let v: Vec<f64> = studies
        .iter()
        .filter_map(|s| s.gauges.get(name).copied())
        .collect();
    median(&v)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Assembles the per-layer metrics from the traced studies.
fn per_layer(ctx: &Ctx, studies: &[Study], mismatches: usize) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&Study> = studies.iter().filter(|s| s.traced).collect();
    let untraced: Vec<f64> = studies
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.study_s)
        .collect();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Self time per layer, per study, then the median over studies.
    let selfs: Vec<BTreeMap<&'static str, f64>> = studies
        .iter()
        .zip(1..)
        .filter(|(s, _)| s.traced)
        .map(|(_, it)| ctx.tracer.self_secs(it))
        .collect();
    let self_ms = |span: &str| {
        let v: Vec<f64> = selfs
            .iter()
            .map(|s| s.get(span).copied().unwrap_or(0.0) * 1e3)
            .collect();
        median(&v)
    };
    for (metric, span) in [
        ("frontend.compile_ms", "frontend.compile"),
        ("opt.optimize_ms", "opt.optimize"),
        ("backend.lower_ms", "backend.lower"),
        ("profile.llfi_ms", "profile.llfi"),
        ("profile.pinfi_ms", "profile.pinfi"),
        ("profile.snapshots_ms", "profile.snapshots"),
        ("engine.plan_ms", "engine.plan"),
        ("report.build_ms", "report.build"),
        ("report.render_ms", "report.render"),
    ] {
        m.insert(metric, self_ms(span));
    }
    let golden = |ms: f64, steps: fn(&Study) -> u64| {
        let steps = traced.first().map_or(0, |s| steps(s));
        if steps == 0 {
            0.0
        } else {
            ms * 1e6 / steps as f64
        }
    };
    m.insert(
        "interp.golden_ns_per_step",
        golden(m["profile.llfi_ms"], |s| s.golden_llfi_steps),
    );
    m.insert(
        "asm.golden_ns_per_step",
        golden(m["profile.pinfi_ms"], |s| s.golden_pinfi_steps),
    );

    let last = traced.last().copied();
    let exact = |name: &str| last.and_then(|s| s.exact.get(name)).copied().unwrap_or(0);
    for name in [
        "engine.tasks",
        "collapse.fault_space",
        "collapse.executed",
        "io.records_bytes",
    ] {
        m.insert(name, exact(name) as f64);
    }
    m.insert(
        "collapse.reduction",
        ratio(exact("collapse.fault_space"), exact("collapse.executed")),
    );
    for name in [
        "profile.snapshots",
        "divergence.bytes",
        "serve.queue_wait_s",
        "serve.merge_ms",
        "serve.spool_bytes",
        "serve.shard_attempts",
    ] {
        m.insert(name, gauge(studies, name));
    }
    let run_s = median(&traced.iter().map(|s| s.exec_s).collect::<Vec<_>>());
    m.insert("engine.run_s", run_s);

    // Engine telemetry: counts from the last traced study, times as
    // medians over traced studies, task latencies pooled.
    let tel = last.and_then(|s| s.tel.clone()).unwrap_or_default();
    let task_us: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.tel.as_ref())
        .flat_map(|t| t.task_us.iter().map(|&u| u as f64))
        .collect();
    let restore_ms: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.tel.as_ref())
        .map(|t| t.restore_ns as f64 / 1e6)
        .collect();
    m.insert(
        "engine.fast_forward_ratio",
        ratio(tel.fast_forwarded, tel.tasks),
    );
    m.insert(
        "engine.early_exit_ratio",
        ratio(tel.early_exited, tel.tasks),
    );
    m.insert("engine.steps_executed", tel.steps_executed as f64);
    m.insert(
        "engine.steps_quiescent_ratio",
        ratio(tel.steps_quiescent, tel.steps_executed),
    );
    m.insert("engine.steps_skipped_ff", tel.steps_skipped_ff as f64);
    m.insert("engine.digest_compares", tel.digest_compares as f64);
    m.insert(
        "engine.digest_match_ratio",
        ratio(tel.digest_matches, tel.digest_compares),
    );
    m.insert("engine.restore_ms", median(&restore_ms));
    m.insert("engine.task_us_p50", percentile(&task_us, 50.0));
    m.insert("engine.task_us_p99", percentile(&task_us, 99.0));
    m.insert(
        "engine.ns_per_step",
        if tel.steps_executed == 0 {
            0.0
        } else {
            run_s * THREADS as f64 * 1e9 / tel.steps_executed as f64
        },
    );
    m.insert("io.record_flushes", tel.record_flushes as f64);
    m.insert("divergence.timelines", tel.timelines as f64);

    let calls_ms =
        |name: &str| -> Vec<f64> { ctx.tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    m.insert("serve.submit_ms_p50", median(&calls_ms("serve.submit")));
    let status = calls_ms("serve.status");
    m.insert("serve.status_ms_p50", percentile(&status, 50.0));
    m.insert("serve.status_ms_p99", percentile(&status, 99.0));

    let traced_study = median(&traced.iter().map(|s| s.study_s).collect::<Vec<_>>());
    m.insert("trace.study_s", traced_study);
    m.insert("trace.overhead_s", traced_study - median(&untraced));
    m.insert("tripwire.mismatches", mismatches as f64);
    m
}

fn print_tables(studies: &[Study], layer: Option<&BTreeMap<&'static str, f64>>, ctx: &Ctx) {
    let col = |f: fn(&Study) -> f64, traced: bool| -> Vec<f64> {
        studies
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect()
    };
    for (i, s) in studies.iter().enumerate() {
        let census: String = s
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("census."))
            .map(|(k, v)| format!("  {k} {v}"))
            .collect();
        println!(
            "study {}{}: setup_s {:.4}  study_s {:.4}  exec_s {:.4}  tasks {}  peak_rss_mb {:.1}{census}",
            i + 1,
            if s.traced { " (traced)" } else { "" },
            s.setup_s,
            s.study_s,
            s.exec_s,
            s.tasks,
            s.peak_rss_mb
        );
    }
    println!("timings (untraced studies):");
    timing_row("setup_s", "s", &col(|s| s.setup_s, false));
    timing_row("study_s", "s", &col(|s| s.study_s, false));
    timing_row("exec_s", "s", &col(|s| s.exec_s, false));
    if let Some(layer) = layer {
        println!("timings (traced studies):");
        timing_row("study_s", "s", &col(|s| s.study_s, true));
        let task_us: Vec<f64> = studies
            .iter()
            .filter_map(|s| s.tel.as_ref())
            .flat_map(|t| t.task_us.iter().map(|&u| u as f64))
            .collect();
        timing_row("engine.task_us", "us", &task_us);
        for call in [
            "serve.submit",
            "serve.status",
            "serve.campaign",
            "serve.report",
        ] {
            let v: Vec<f64> = ctx.tracer.durations(call).iter().map(|s| s * 1e3).collect();
            if !v.is_empty() {
                timing_row(call, "ms", &v);
            }
        }
        println!("per-layer:");
        for (name, unit) in PER_LAYER {
            println!("  {name:<28} {} {unit}", layer[name]);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        tracer: Tracer::new(),
    };
    let work = PathBuf::from(".ledger-work");
    let dir = work.join(&args.workload);
    let mut ops = Ops::default();
    let result = fresh_dir(&dir).and_then(|()| match args.workload.as_str() {
        "paper-grid" => grid::run(&ctx, &dir, args.seconds, args.trace, &mut ops),
        "exact-census" => census::run(&ctx, &dir, args.seconds, args.trace, &mut ops),
        _ => fleet::run(&ctx, &dir, args.seconds, args.trace, &mut ops),
    });
    let studies = match result {
        Ok(s) => s,
        Err(e) => {
            ops.fail(e);
            Vec::new()
        }
    };
    let mismatches = tripwire(&studies);
    if args.trace {
        let spans = work.join(format!("{}.spans.jsonl", args.workload));
        if let Err(e) = ctx.tracer.write(&spans) {
            ops.fail(e);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Succeeds only when no spans file is left in it.
    let _ = std::fs::remove_dir(&work);

    let untraced: Vec<&Study> = studies.iter().filter(|s| !s.traced).collect();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let layer = args.trace.then(|| per_layer(&ctx, &studies, mismatches));
    if let Some(layer) = &layer {
        metrics.extend(PER_LAYER.iter().map(|&(n, u)| (n, u, layer[n])));
    } else {
        let med = |f: fn(&Study) -> f64| median(&untraced.iter().map(|s| f(s)).collect::<Vec<_>>());
        let values = [
            med(|s| s.setup_s),
            med(|s| s.study_s),
            med(|s| s.tasks as f64 / s.exec_s),
            med(|s| s.peak_rss_mb),
            1.0 - ratio(ops.failed, ops.attempted.max(1)),
        ];
        metrics.extend(END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)));
    }
    print_tables(&studies, layer.as_ref(), &ctx);
    println!(
        "operations: {} attempted, {} failed (failed_ratio {}), {} output mismatches, \
         {mismatches} tripwire differences",
        ops.attempted,
        ops.failed,
        ratio(ops.failed, ops.attempted.max(1)),
        ops.mismatches
    );
    let correct = ops.mismatches == 0 && !studies.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(ops.attempted.max(1))),
        ("failed".into(), Json::u64(ops.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(n, u, v)| {
                        let m = Json::Obj(vec![
                            ("value".into(), Json::f64(v)),
                            ("unit".into(), Json::str(u)),
                        ]);
                        (n.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct && ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
