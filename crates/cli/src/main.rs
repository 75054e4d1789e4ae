//! `fiq` — the command-line front door to the fault-injection study.
//!
//! ```text
//! fiq workloads                             list the six benchmark analogues
//! fiq compile <prog> [--emit ir|asm]        show generated IR or assembly
//! fiq run <prog> [--level ir|asm]           execute at either level
//! fiq profile <prog>                        Table-III category counts, both levels
//! fiq inject <prog> --tool llfi|pinfi --category <cat> [--seed S]
//! fiq trace <prog> [--category <cat>] [--seed S]     LLFI injection + propagation report
//!           [--site F:I [--instance N] [--bit B]] [--json]
//! fiq campaign <prog> --category <cat> [--injections N] [--seed S] [--threads N]
//!              [--records FILE] [--resume] [--progress]
//!              [--telemetry FILE] [--divergence FILE]
//!              [--no-flag-pruning] [--no-xmm-pruning]
//!              [--collapse sampled|exact]
//! fiq collapse-check <prog> [--category <cat>] [--json FILE]
//! fiq report <records.jsonl> [--telemetry FILE] [--divergence FILE] [--json]
//! fiq fuzz [--seed S] [--count N] [--opt-level 0..3] [--oracle NAME]
//!          [--max-steps N] [--corpus-dir DIR] [--no-reduce]
//! fiq serve [--addr A] [--data-dir DIR] [--executors N]
//! fiq submit <prog> [--addr A] [--category <cat>] [--injections N]
//!            [--seed S] [--threads N] [--shards N] [--priority P]
//!            [--collapse sampled|exact] [--divergence] [--name LABEL]
//! fiq status [--addr A] [--campaign ID] [--json]
//! fiq report --follow --campaign ID [--addr A] [--interval MS]
//! ```
//!
//! `campaign` runs both tools on the shared work-stealing engine.
//! `--records FILE` streams one JSONL record per injection; `--resume`
//! continues a killed campaign from that file; `--progress` reports
//! completion, throughput, an ETA, and live fast-forward/early-exit
//! counts on stderr (throttled to one redraw per 100 ms, with a
//! guaranteed final line). `--telemetry FILE` writes the sharded
//! campaign telemetry (counters, histograms, per-task events) as JSONL;
//! it never changes campaign output. `--divergence FILE` streams one
//! JSONL divergence timeline per injection — which 4 KiB pages and
//! which architectural-state components differ from the golden snapshot
//! at every checkpoint the faulty run crosses after injection; it
//! implies checkpoint capture and never changes the record stream.
//! `report` joins a record file with
//! its telemetry stream into outcome tables (Wilson 95% CIs) plus
//! speedup attribution, and with `--divergence` adds the propagation
//! section (birth/masking funnels, per-cell propagation-distance
//! histograms, LLFI-vs-PINFI spread comparison); `--json` emits the
//! machine-readable form. `trace` replays one LLFI injection under the
//! SSA taint tracer; `--site F:I` pins the static site (function F,
//! instruction I) instead of random planning, `--instance`/`--bit`
//! select the dynamic instance and destination bit, and `--json` emits
//! the propagation report as one JSON object.
//!
//! Checkpointing is not a flag: the campaign captures 64 evenly spaced
//! golden checkpoints for a level iff its golden run is long enough for
//! them to pay (`fiq_core::CHECKPOINT_MIN_STEPS`) or `--divergence`
//! needs them, then restores the one nearest each injection point
//! instead of replaying the golden prefix, and stops a faulty run at
//! the first checkpoint whose state it has provably converged to.
//! Output is bit-identical either way; only wall-clock changes.
//!
//! `--no-flag-pruning`/`--no-xmm-pruning` disable PINFI's activation
//! heuristics. `--collapse exact` switches the cell from sampling to
//! exhaustive coverage: the fault space is partitioned into equivalence
//! classes up front, one representative per class runs, and
//! outcomes are weighted by class size — the resulting distribution is
//! exact (zero-width CIs in `fiq report`), not an estimate.
//! `collapse-check` brute-force-validates that guarantee on a small
//! program: it enumerates every fault-space point at both levels,
//! injects them all, and asserts the class-weighted tallies match;
//! `--json FILE` writes the comparison artifact.
//!
//! `serve` starts the campaign daemon: a local HTTP JSON API plus a
//! pool of `--executors` shard workers draining a priority queue
//! (higher `--priority` first, FIFO within a priority). `submit` sends
//! a campaign — the program is resolved client-side and inlined, so the
//! daemon never reads client paths — split into `--shards` contiguous
//! shards whose merged record/divergence streams are byte-identical to
//! a single-process run at any shard count. `status` prints the fleet
//! summary or, with `--campaign ID`, one campaign's per-shard detail
//! (state, attempts, task range). `report --follow --campaign ID`
//! polls until the campaign completes, narrating shard completion on
//! stderr, then prints the merged report JSON. A killed shard worker is
//! retried from its spooled prefix (crash-only recovery, at most 5
//! attempts per shard).
//!
//! Flags are declared per subcommand: a flag that takes a value consumes
//! the next argument (or use `--flag=value`), boolean flags never do, and
//! unknown flags are an error listing the subcommand's valid flags.
//!
//! `<prog>` is either a path to a Mini-C source file or the name of a
//! bundled workload (`bzip2`, `libquantum`, `ocean`, `hmmer`, `mcf`,
//! `raytrace`).

use fiq_asm::MachOptions;
use fiq_backend::LowerOptions;
use fiq_core::json::Json;
use fiq_core::{
    cross_check_llfi, cross_check_pinfi, plan_llfi, plan_pinfi, prepare_program, profile_llfi,
    profile_pinfi, run_llfi, run_pinfi, CampaignConfig, Category, Collapse, CollapseCheck,
    EngineOptions, PinfiOptions, Progress,
};
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fiq: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags a subcommand accepts: `value` flags consume one argument,
/// `boolean` flags never do. Anything else is a usage error.
struct FlagSpec {
    value: &'static [&'static str],
    boolean: &'static [&'static str],
}

/// Flags shared by every subcommand that compiles a program.
const COMPILE_BOOLS: [&str; 3] = ["no-opt", "no-fold-gep", "no-callee-saved"];

fn flag_spec(cmd: &str) -> Option<FlagSpec> {
    Some(match cmd {
        "workloads" => FlagSpec {
            value: &[],
            boolean: &[],
        },
        "compile" => FlagSpec {
            value: &["emit"],
            boolean: &COMPILE_BOOLS,
        },
        "run" => FlagSpec {
            value: &["level"],
            boolean: &COMPILE_BOOLS,
        },
        "profile" => FlagSpec {
            value: &[],
            boolean: &COMPILE_BOOLS,
        },
        "inject" => FlagSpec {
            value: &["tool", "category", "seed"],
            boolean: &COMPILE_BOOLS,
        },
        "trace" => FlagSpec {
            value: &["category", "seed", "site", "instance", "bit"],
            boolean: &["no-opt", "no-fold-gep", "no-callee-saved", "json"],
        },
        "campaign" => FlagSpec {
            value: &[
                "category",
                "seed",
                "injections",
                "threads",
                "records",
                "telemetry",
                "divergence",
                "collapse",
            ],
            boolean: &[
                "no-opt",
                "no-fold-gep",
                "no-callee-saved",
                "resume",
                "progress",
                "no-flag-pruning",
                "no-xmm-pruning",
            ],
        },
        "collapse-check" => FlagSpec {
            value: &["category", "json"],
            boolean: &COMPILE_BOOLS,
        },
        "report" => FlagSpec {
            value: &[
                "records",
                "telemetry",
                "divergence",
                "addr",
                "campaign",
                "interval",
            ],
            boolean: &["json", "follow"],
        },
        "serve" => FlagSpec {
            value: &["addr", "data-dir", "executors"],
            boolean: &[],
        },
        "submit" => FlagSpec {
            value: &[
                "addr",
                "category",
                "seed",
                "injections",
                "threads",
                "shards",
                "priority",
                "collapse",
                "name",
            ],
            boolean: &["divergence"],
        },
        "status" => FlagSpec {
            value: &["addr", "campaign"],
            boolean: &["json"],
        },
        "fuzz" => FlagSpec {
            value: &[
                "seed",
                "count",
                "opt-level",
                "oracle",
                "max-steps",
                "corpus-dir",
            ],
            boolean: &["no-reduce"],
        },
        _ => return None,
    })
}

impl FlagSpec {
    /// The usage fragment listing every valid flag for the subcommand.
    fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .value
            .iter()
            .map(|f| format!("--{f} <value>"))
            .collect();
        parts.extend(self.boolean.iter().map(|f| format!("--{f}")));
        if parts.is_empty() {
            "(this subcommand takes no flags)".into()
        } else {
            parts.join(", ")
        }
    }
}

struct Args {
    /// Positional arguments after the subcommand name.
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the arguments after the subcommand against its flag
    /// declaration. Value flags take the next argument (or `=value`);
    /// boolean flags never swallow a following positional; unknown flags
    /// are an error naming the valid set.
    fn parse(
        cmd: &str,
        spec: &FlagSpec,
        raw: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (body.to_string(), None),
            };
            if spec.value.contains(&name.as_str()) {
                let value = match inline {
                    Some(v) => v,
                    None => it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?,
                };
                flags.push((name, Some(value)));
            } else if spec.boolean.contains(&name.as_str()) {
                if inline.is_some() {
                    return Err(format!("--{name} does not take a value"));
                }
                flags.push((name, None));
            } else {
                return Err(format!(
                    "unknown flag --{name} for `{cmd}`; valid flags: {}",
                    spec.describe()
                ));
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Parses a numeric flag, defaulting when absent and erroring (not
    /// silently defaulting) when present but malformed.
    fn num_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{s}`")),
        }
    }
}

fn real_main() -> Result<(), String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0].starts_with("--") {
        return Err(
            "usage: fiq <workloads|compile|run|profile|inject|trace|campaign|collapse-check|\
             report|serve|submit|status|fuzz> …"
                .into(),
        );
    }
    let cmd = raw.remove(0);
    let spec = flag_spec(&cmd).ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let args = Args::parse(&cmd, &spec, raw)?;
    match cmd.as_str() {
        "workloads" => {
            println!("{:<12} {:<9} {:>5}  description", "name", "suite", "LoC");
            for w in &fiq_workloads::CATALOG {
                println!(
                    "{:<12} {:<9} {:>5}  {}",
                    w.name,
                    w.suite,
                    w.lines_of_code(),
                    w.description
                );
            }
            Ok(())
        }
        "compile" => cmd_compile(&args),
        "run" => cmd_run(&args),
        "profile" => cmd_profile(&args),
        "inject" => cmd_inject(&args),
        "trace" => cmd_trace(&args),
        "campaign" => cmd_campaign(&args),
        "collapse-check" => cmd_collapse_check(&args),
        "report" => cmd_report(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        "fuzz" => cmd_fuzz(&args),
        _ => unreachable!("flag_spec vetted the command"),
    }
}

fn load_program(args: &Args) -> Result<Module, String> {
    let Some(name) = args.positional.first() else {
        return Err("missing program (file path or workload name)".into());
    };
    let source = if let Some(w) = fiq_workloads::by_name(name) {
        w.source.to_string()
    } else {
        std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?
    };
    let mut module = fiq_frontend::compile(name, &source).map_err(|e| e.to_string())?;
    if !args.has("no-opt") {
        fiq_opt::optimize_module(&mut module);
    }
    Ok(module)
}

fn lower_options(args: &Args) -> LowerOptions {
    LowerOptions {
        fold_gep: !args.has("no-fold-gep"),
        use_callee_saved: !args.has("no-callee-saved"),
    }
}

fn category(args: &Args) -> Result<Category, String> {
    match args.flag("category").unwrap_or("all") {
        "arithmetic" => Ok(Category::Arithmetic),
        "cast" => Ok(Category::Cast),
        "cmp" => Ok(Category::Cmp),
        "load" => Ok(Category::Load),
        "all" => Ok(Category::All),
        other => Err(format!("unknown category `{other}`")),
    }
}

fn seed(args: &Args) -> Result<u64, String> {
    match args.flag("seed") {
        None => Ok(42),
        // Seeds are u64, but a negative literal is a perfectly clear
        // request — wrap it rather than rejecting `--seed -1`.
        Some(s) if s.starts_with('-') => s
            .parse::<i64>()
            .map(|v| v as u64)
            .map_err(|_| format!("--seed expects a number, got `{s}`")),
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed expects a number, got `{s}`")),
    }
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    match args.flag("emit").unwrap_or("ir") {
        "ir" => println!("{module}"),
        "asm" => {
            let prog = fiq_backend::lower_module(&module, lower_options(args))
                .map_err(|e| e.to_string())?;
            println!("{prog}");
        }
        other => return Err(format!("unknown --emit `{other}` (ir|asm)")),
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    match args.flag("level").unwrap_or("ir") {
        "ir" => {
            let r = fiq_interp::run_module(&module, InterpOptions::default())
                .map_err(|e| e.to_string())?;
            print!("{}", r.output);
            eprintln!(
                "[ir] status: {:?}, {} dynamic instructions",
                r.status, r.steps
            );
        }
        "asm" => {
            let prog = fiq_backend::lower_module(&module, lower_options(args))
                .map_err(|e| e.to_string())?;
            let r =
                fiq_asm::run_program(&prog, MachOptions::default()).map_err(|e| e.to_string())?;
            print!("{}", r.output);
            eprintln!(
                "[asm] status: {:?}, {} dynamic instructions",
                r.status, r.steps
            );
        }
        other => return Err(format!("unknown --level `{other}` (ir|asm)")),
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    let prog =
        fiq_backend::lower_module(&module, lower_options(args)).map_err(|e| e.to_string())?;
    let lp = profile_llfi(&module, InterpOptions::default())?;
    let pp = profile_pinfi(&prog, MachOptions::default())?;
    println!(
        "golden: {} IR / {} asm dynamic instructions",
        lp.golden_steps, pp.golden_steps
    );
    println!("{:<12} {:>14} {:>14}", "category", "LLFI", "PINFI");
    for cat in Category::ALL {
        println!(
            "{:<12} {:>14} {:>14}",
            cat.name(),
            lp.category_count(&module, cat),
            pp.category_count(&prog, cat)
        );
    }
    Ok(())
}

fn cmd_inject(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    let cat = category(args)?;
    let mut rng = StdRng::seed_from_u64(seed(args)?);
    match args.flag("tool").unwrap_or("llfi") {
        "llfi" => {
            let lp = profile_llfi(&module, InterpOptions::default())?;
            let inj = plan_llfi(&module, &lp, cat, &mut rng)
                .ok_or("category has no dynamic instances")?;
            println!(
                "plan: {}/{} instance {} bit {}",
                inj.site.func, inj.site.inst, inj.instance, inj.bit
            );
            let out = run_llfi(&module, InterpOptions::default(), inj, &lp.golden_output)?;
            println!("outcome: {out}");
        }
        "pinfi" => {
            let prog = fiq_backend::lower_module(&module, lower_options(args))
                .map_err(|e| e.to_string())?;
            let pp = profile_pinfi(&prog, MachOptions::default())?;
            let inj = plan_pinfi(&prog, &pp, cat, PinfiOptions::default(), &mut rng)
                .ok_or("category has no dynamic instances")?;
            println!(
                "plan: inst {} ({}) instance {} dest {:?} bit {}",
                inj.idx,
                fiq_asm::display_inst(&prog.insts[inj.idx]),
                inj.instance,
                inj.dest,
                inj.bit
            );
            let out = run_pinfi(&prog, MachOptions::default(), inj, &pp.golden_output)?;
            println!("outcome: {out}");
        }
        other => return Err(format!("unknown --tool `{other}` (llfi|pinfi)")),
    }
    Ok(())
}

/// Parses `--site F:I` into a bounds-checked static instruction site.
fn parse_site(module: &Module, spec: &str) -> Result<fiq_interp::InstSite, String> {
    let (f, i) = spec
        .split_once(':')
        .ok_or_else(|| format!("--site expects FUNC:INST (e.g. 0:7), got `{spec}`"))?;
    let func: u32 = f
        .parse()
        .map_err(|_| format!("--site function index: expected a number, got `{f}`"))?;
    let inst: u32 = i
        .parse()
        .map_err(|_| format!("--site instruction index: expected a number, got `{i}`"))?;
    if func as usize >= module.funcs.len() {
        return Err(format!(
            "--site: function {func} out of range (module has {} functions)",
            module.funcs.len()
        ));
    }
    let insts = module.funcs[func as usize].insts.len();
    if inst as usize >= insts {
        return Err(format!(
            "--site: instruction {inst} out of range (function {func} has {insts} instructions)"
        ));
    }
    Ok(fiq_interp::InstSite {
        func: fiq_ir::FuncId(func),
        inst: fiq_ir::InstId(inst),
    })
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    let lp = profile_llfi(&module, InterpOptions::default())?;
    let inj = match args.flag("site") {
        Some(spec) => {
            let bit: u32 = args.num_flag("bit", 0)?;
            if bit >= 64 {
                return Err(format!("--bit expects 0..=63, got {bit}"));
            }
            fiq_core::LlfiInjection {
                site: parse_site(&module, spec)?,
                instance: args.num_flag("instance", 1)?,
                bit,
            }
        }
        None => {
            if args.has("instance") || args.has("bit") {
                return Err("--instance/--bit require --site".into());
            }
            let cat = category(args)?;
            let mut rng = StdRng::seed_from_u64(seed(args)?);
            plan_llfi(&module, &lp, cat, &mut rng).ok_or("category has no dynamic instances")?
        }
    };
    let rep = fiq_core::trace_llfi(&module, InterpOptions::default(), inj, &lp.golden_output)?;
    if args.has("json") {
        let j = Json::Obj(vec![
            ("report".into(), Json::str("trace")),
            (
                "program".into(),
                Json::str(args.positional.first().map_or("", String::as_str)),
            ),
            ("func".into(), Json::u64(u64::from(inj.site.func.0))),
            ("inst".into(), Json::u64(u64::from(inj.site.inst.0))),
            ("instance".into(), Json::u64(inj.instance)),
            ("bit".into(), Json::u64(u64::from(inj.bit))),
            ("outcome".into(), Json::str(rep.outcome.name())),
            (
                "tainted_instructions".into(),
                Json::u64(rep.tainted_instructions),
            ),
            (
                "tainted_static_sites".into(),
                Json::u64(rep.tainted_static_sites as u64),
            ),
            (
                "peak_tainted_memory".into(),
                Json::u64(rep.peak_tainted_memory),
            ),
            ("tainted_branches".into(), Json::u64(rep.tainted_branches)),
            ("tainted_outputs".into(), Json::u64(rep.tainted_outputs)),
        ]);
        println!("{j}");
        return Ok(());
    }
    println!(
        "plan: {}/{} instance {} bit {}",
        inj.site.func, inj.site.inst, inj.instance, inj.bit
    );
    println!("outcome:              {}", rep.outcome);
    println!(
        "tainted instructions: {} dynamic / {} static sites",
        rep.tainted_instructions, rep.tainted_static_sites
    );
    println!("peak tainted memory:  {} bytes", rep.peak_tainted_memory);
    println!("tainted branches:     {}", rep.tainted_branches);
    println!("tainted outputs:      {}", rep.tainted_outputs);
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    let cat = category(args)?;
    let cfg = CampaignConfig {
        injections: args.num_flag("injections", 200)?,
        seed: seed(args)?,
        threads: args.num_flag("threads", 0)?,
        pinfi: PinfiOptions {
            flag_pruning: !args.has("no-flag-pruning"),
            xmm_pruning: !args.has("no-xmm-pruning"),
        },
        ..CampaignConfig::default()
    };
    let divergence = args.flag("divergence").map(PathBuf::from);
    let prepared = prepare_program(module, lower_options(args), divergence.is_some())?;
    let label = args.positional.first().cloned().unwrap_or_default();
    let cells = prepared.cells(&label, cat);

    let collapse = match args.flag("collapse") {
        None => Collapse::default(),
        Some(s) => {
            Collapse::parse(s).ok_or_else(|| format!("unknown --collapse `{s}` (sampled|exact)"))?
        }
    };
    let records = args.flag("records").map(PathBuf::from);
    let telemetry = args.flag("telemetry").map(PathBuf::from);
    let started = Instant::now();
    // (last redraw instant, completed count at that redraw). The engine
    // guarantees one final callback after the pool drains, so the last
    // task landing inside a throttle window still gets its line; the
    // completed count dedupes that final emission against a worker
    // callback that already printed `total/total`.
    let last_print = Mutex::new((started, usize::MAX));
    let progress_cb = |p: Progress| {
        let mut st = last_print.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let done = p.completed == p.total;
        if done && st.1 == p.completed {
            return;
        }
        if !done && now.duration_since(st.0).as_millis() < 100 {
            return;
        }
        *st = (now, p.completed);
        eprintln!("{}", progress_line(p, started.elapsed().as_secs_f64()));
    };
    let opts = EngineOptions {
        records: records.as_deref(),
        telemetry: telemetry.as_deref(),
        divergence: divergence.as_deref(),
        resume: args.has("resume"),
        fast_forward: true,
        early_exit: true,
        progress: if args.has("progress") {
            Some(&progress_cb)
        } else {
            None
        },
        collapse,
        cancel: None,
    };
    let run = fiq_core::run_campaign(&cells, &cfg, &opts)?;
    if run.resumed_tasks > 0 {
        eprintln!(
            "campaign: resumed {} of {} injections from {}",
            run.resumed_tasks,
            run.total_tasks,
            records
                .as_deref()
                .map(Path::display)
                .map(|d| d.to_string())
                .unwrap_or_default()
        );
    }
    if run.early_exited_tasks > 0 {
        eprintln!(
            "campaign: {} of {} injections early-exited at a golden checkpoint",
            run.early_exited_tasks, run.total_tasks
        );
    }

    println!(
        "{:<6} {:>10} {:>8} {:>9} {:>7} {:>7} {:>8} {:>7} {:>13}",
        "tool",
        "population",
        "planned",
        "executed",
        "crash%",
        "sdc%",
        "benign%",
        "hang%",
        "not-activated"
    );
    for (name, rep) in [("llfi", run.cells[0]), ("pinfi", run.cells[1])] {
        let c = rep.counts;
        println!(
            "{:<6} {:>10} {:>8} {:>9} {:>6.1}% {:>6.1}% {:>7.1}% {:>6.1}% {:>13}",
            name,
            rep.dynamic_population,
            rep.planned,
            rep.executed,
            c.crash_pct(),
            c.sdc_pct(),
            c.benign_pct(),
            c.hang_pct(),
            c.not_activated
        );
    }
    if collapse == Collapse::Exact {
        for (name, rep) in [("llfi", run.cells[0]), ("pinfi", run.cells[1])] {
            println!(
                "{name}: exact — {} fault-space points covered by {} representatives",
                rep.fault_space, rep.executed
            );
        }
    }
    Ok(())
}

/// `fiq collapse-check <prog> [--category <cat>] [--json FILE]` —
/// brute-force validation of exact collapse. Enumerates the complete
/// dynamic fault space of the program at both levels, injects every
/// point, and asserts the class-weighted collapsed distribution equals
/// the full enumeration bit for bit. Exits nonzero on any mismatch.
fn cmd_collapse_check(args: &Args) -> Result<(), String> {
    let module = load_program(args)?;
    let cat = category(args)?;
    let cfg = CampaignConfig::default();
    let prog =
        fiq_backend::lower_module(&module, lower_options(args)).map_err(|e| e.to_string())?;
    let lp = profile_llfi(&module, InterpOptions::default())?;
    let pp = profile_pinfi(&prog, MachOptions::default())?;

    let checks = [
        (
            "llfi",
            cross_check_llfi(&module, &lp, cat, cfg.hang_budget(lp.golden_steps))?,
        ),
        (
            "pinfi",
            cross_check_pinfi(
                &prog,
                &pp,
                cat,
                PinfiOptions::default(),
                cfg.hang_budget(pp.golden_steps),
            )?,
        ),
    ];

    println!(
        "{:<6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>8} {:<5}",
        "tool", "fault-space", "dormant", "masked", "residual", "executed", "ratio", "match"
    );
    for (name, chk) in &checks {
        let space = chk.stats.space();
        let ratio = if space > 0 {
            100.0 * chk.executed as f64 / space as f64
        } else {
            0.0
        };
        println!(
            "{:<6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7.1}% {:<5}",
            name,
            space,
            chk.stats.dormant,
            chk.stats.masked,
            chk.stats.residual,
            chk.executed,
            ratio,
            if chk.matches() { "yes" } else { "NO" }
        );
    }

    if let Some(path) = args.flag("json") {
        let counts_json = |c: &fiq_core::OutcomeCounts| {
            Json::Obj(vec![
                ("benign".into(), Json::u64(c.benign)),
                ("sdc".into(), Json::u64(c.sdc)),
                ("crash".into(), Json::u64(c.crash)),
                ("hang".into(), Json::u64(c.hang)),
                ("not_activated".into(), Json::u64(c.not_activated)),
            ])
        };
        let tool_json = |chk: &CollapseCheck| {
            Json::Obj(vec![
                ("space".into(), Json::u64(chk.stats.space())),
                ("dormant".into(), Json::u64(chk.stats.dormant)),
                ("masked".into(), Json::u64(chk.stats.masked)),
                ("residual".into(), Json::u64(chk.stats.residual)),
                ("executed".into(), Json::u64(chk.executed)),
                ("collapsed".into(), counts_json(&chk.collapsed)),
                ("collapsed_steps".into(), Json::u64(chk.collapsed_steps)),
                ("brute".into(), counts_json(&chk.brute)),
                ("brute_steps".into(), Json::u64(chk.brute_steps)),
                ("match".into(), Json::Bool(chk.matches())),
            ])
        };
        let artifact = Json::Obj(vec![
            ("report".into(), Json::str("collapse-check")),
            ("category".into(), Json::str(cat.name())),
            (
                "program".into(),
                Json::str(args.positional.first().map_or("", String::as_str)),
            ),
            ("llfi".into(), tool_json(&checks[0].1)),
            ("pinfi".into(), tool_json(&checks[1].1)),
        ]);
        std::fs::write(path, format!("{artifact}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some((name, _)) = checks.iter().find(|(_, chk)| !chk.matches()) {
        return Err(format!(
            "collapse-check: {name} collapsed distribution diverges from brute force"
        ));
    }
    Ok(())
}

/// `fiq fuzz` — differential fuzzing of the two execution levels.
/// Generates `--count` seeded Mini-C programs and checks each against
/// the cross-pipeline, cross-level, snapshot-replay, and
/// digest-integrity oracles at every optimization level (or just
/// `--opt-level`). Stops at the first failure, shrinks it (unless
/// `--no-reduce`), optionally writes the reduced reproducer into
/// `--corpus-dir`, and exits nonzero. Fully deterministic for a fixed
/// seed.
fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let base_seed = seed(args)?;
    let count: u64 = args.num_flag("count", 100)?;
    let mut cfg = fiq_fuzz::FuzzConfig::default();
    cfg.max_steps = args.num_flag("max-steps", cfg.max_steps)?;
    if let Some(l) = args.flag("opt-level") {
        let level: u8 = l
            .parse()
            .ok()
            .filter(|l| *l <= 3)
            .ok_or_else(|| format!("--opt-level expects 0..=3, got `{l}`"))?;
        cfg.levels = vec![level];
    }
    if let Some(name) = args.flag("oracle") {
        cfg.oracles = fiq_fuzz::OracleSet::only(name).ok_or_else(|| {
            format!(
                "unknown --oracle `{name}` \
                 (opt-agreement|cross-level|snapshot-replay|digest-integrity)"
            )
        })?;
    }
    if args.has("no-reduce") {
        cfg.reduce_budget = 0;
    }

    // A panic inside a pass or substrate is reported as a finding; the
    // default hook would spray a backtrace per reducer evaluation.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = fiq_fuzz::run_fuzz(base_seed, count, &cfg, |done, total| {
        if total >= 100 && done % 100 == 0 {
            eprintln!("fuzz: {done}/{total} programs clean");
        }
    });
    std::panic::set_hook(quiet);

    match outcome.failure {
        None => {
            let levels: Vec<String> = cfg.levels.iter().map(|l| format!("O{l}")).collect();
            println!(
                "fuzz: {count} programs clean at {} (seed {base_seed})",
                levels.join(",")
            );
            Ok(())
        }
        Some(f) => {
            println!(
                "fuzz: seed {} diverged after {} clean programs",
                f.seed, outcome.passed
            );
            println!("  {}", f.failure);
            println!(
                "--- reduced reproducer ({} -> {} bytes, {} oracle evaluations) ---",
                f.source.len(),
                f.reduced.len(),
                f.reduce_evals
            );
            print!("{}", f.reduced);
            if let Some(dir) = args.flag("corpus-dir") {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                let path = Path::new(dir).join(format!("fuzz-seed-{}.mc", f.seed));
                let header = format!("// fiq-fuzz regression: seed {}, {}\n", f.seed, f.failure);
                std::fs::write(&path, format!("{header}{}", f.reduced))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("--- wrote {} ---", path.display());
            }
            Err(format!("fuzz: divergence found at seed {}", f.seed))
        }
    }
}

/// Formats one `--progress` line from a snapshot and the elapsed wall
/// clock.
///
/// The rate is only reported once the measurement window is long enough
/// to mean something (≥ 100 ms, one full throttle window) *and* at least
/// one non-resumed task has finished — otherwise an early callback
/// extrapolates a single task over microseconds into an absurd rate (and
/// a near-zero ETA), and a fully-resumed campaign (elapsed ≈ 0,
/// done == planned) divides by zero. Unknown rate prints as `--/s`; the
/// ETA is `--s` while unknown and `0s` once everything is done.
fn progress_line(p: Progress, secs: f64) -> String {
    let fresh = p.completed.saturating_sub(p.resumed);
    let pct = if p.total > 0 {
        p.completed as f64 * 100.0 / p.total as f64
    } else {
        100.0
    };
    let rate = (secs >= 0.1 && fresh > 0).then(|| fresh as f64 / secs);
    let rate_s = rate.map_or_else(|| "--".to_string(), |r| format!("{r:.0}"));
    let remaining = p.total.saturating_sub(p.completed);
    let eta_s = if remaining == 0 {
        "0".to_string()
    } else {
        match rate {
            Some(r) => format!("{:.0}", remaining as f64 / r),
            None => "--".to_string(),
        }
    };
    format!(
        "campaign: {}/{} injections done ({pct:.0}%), {rate_s}/s, \
         eta {eta_s}s, {} fast-forwarded, {} early-exited",
        p.completed, p.total, p.fast_forwarded, p.early_exited
    )
}

/// `fiq report <records.jsonl> [--telemetry FILE] [--divergence FILE]
/// [--json]` — join a campaign record stream with its telemetry and
/// divergence streams and summarize.
/// Default daemon address shared by `serve`, `submit`, `status`, and
/// `report --follow`.
const DEFAULT_ADDR: &str = "127.0.0.1:4816";

fn addr(args: &Args) -> String {
    args.flag("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

/// `fiq serve [--addr A] [--data-dir DIR] [--executors N]` — run the
/// campaign daemon in the foreground until `POST /api/shutdown`.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let opts = fiq_serve::ServeOptions {
        addr: addr(args),
        data_dir: PathBuf::from(args.flag("data-dir").unwrap_or("fiq-serve-data")),
        executors: args.num_flag("executors", 2)?,
    };
    fiq_serve::serve(&opts)
}

/// `fiq submit <prog> [--addr A] [--category C] [--injections N]
/// [--seed S] [--threads N] [--shards N] [--priority P]
/// [--collapse sampled|exact] [--divergence] [--name LABEL]` — submit a campaign to a running daemon.
fn cmd_submit(args: &Args) -> Result<(), String> {
    let Some(prog) = args.positional.first() else {
        return Err("missing program (file path or workload name)".into());
    };
    // Resolve the program on the client side: workloads by name, files
    // inlined as source text (the daemon never reads client paths). The
    // name defaults to the argument as given — the same label `fiq
    // campaign` uses — so daemon-merged streams stay byte-identical to
    // a single-process reference run.
    let source = match fiq_workloads::by_name(prog) {
        Some(w) => w.source.to_string(),
        None => std::fs::read_to_string(prog).map_err(|e| format!("{prog}: {e}"))?,
    };
    let name = prog.clone();
    let sub = fiq_serve::Submission {
        name: args.flag("name").map(str::to_string).unwrap_or(name),
        source,
        category: category(args)?,
        injections: args.num_flag("injections", 200)?,
        seed: seed(args)?,
        threads: args.num_flag("threads", 1)?,
        shards: args.num_flag("shards", 1)?,
        priority: args.num_flag("priority", 0)?,
        collapse: match args.flag("collapse") {
            None => Collapse::default(),
            Some(s) => Collapse::parse(s)
                .ok_or_else(|| format!("unknown --collapse `{s}` (sampled|exact)"))?,
        },
        divergence: args.has("divergence"),
        fast_forward: true,
    };
    let resp = fiq_serve::client::submit(&addr(args), &sub)?;
    let g = |k: &str| resp.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "submitted campaign {} ({} tasks across {} shards)",
        g("id"),
        g("total_tasks"),
        g("shards")
    );
    Ok(())
}

/// `fiq status [--addr A] [--campaign ID] [--json]` — fleet summary or
/// one campaign's per-shard detail.
fn cmd_status(args: &Args) -> Result<(), String> {
    let addr = addr(args);
    match args.flag("campaign") {
        Some(id) => {
            let id: u64 = id
                .parse()
                .map_err(|_| format!("--campaign expects a number, got `{id}`"))?;
            let detail = fiq_serve::client::campaign(&addr, id)?;
            if args.has("json") {
                println!("{detail}");
                return Ok(());
            }
            print_campaign_row_header();
            print_campaign_row(&detail);
            for sh in detail
                .get("shard_states")
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                let g = |k: &str| sh.get(k).and_then(Json::as_u64).unwrap_or(0);
                println!(
                    "  shard {} tasks {}..{} {:<8} attempts {}{}",
                    g("shard"),
                    g("task_lo"),
                    g("task_hi"),
                    sh.get("status").and_then(Json::as_str).unwrap_or("?"),
                    g("attempts"),
                    sh.get("error")
                        .and_then(Json::as_str)
                        .map(|e| format!(" — {e}"))
                        .unwrap_or_default()
                );
            }
            Ok(())
        }
        None => {
            let status = fiq_serve::client::status(&addr)?;
            if args.has("json") {
                println!("{status}");
                return Ok(());
            }
            print_campaign_row_header();
            for c in status
                .get("campaigns")
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                print_campaign_row(c);
            }
            Ok(())
        }
    }
}

fn print_campaign_row_header() {
    println!(
        "{:<4} {:<12} {:<8} {:>8} {:>12} {:>10}",
        "id", "name", "status", "priority", "shards-done", "tasks"
    );
}

fn print_campaign_row(c: &Json) {
    let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{:<4} {:<12} {:<8} {:>8} {:>9}/{:<2} {:>10}{}",
        g("id"),
        c.get("name").and_then(Json::as_str).unwrap_or("?"),
        c.get("status").and_then(Json::as_str).unwrap_or("?"),
        g("priority"),
        g("shards_done"),
        g("shards"),
        g("total_tasks"),
        c.get("error")
            .and_then(Json::as_str)
            .map(|e| format!(" — {e}"))
            .unwrap_or_default()
    );
}

/// `fiq report --follow --campaign ID [--addr A] [--interval MS]` —
/// poll a running campaign, narrating shard completion on stderr, then
/// print the merged report when it settles.
fn cmd_report_follow(args: &Args) -> Result<(), String> {
    let addr = addr(args);
    let id: u64 = args
        .flag("campaign")
        .ok_or("--follow requires --campaign <id>")?
        .parse()
        .map_err(|_| "--campaign expects a number".to_string())?;
    let interval = Duration::from_millis(args.num_flag("interval", 250)?);
    let mut last = u64::MAX;
    loop {
        let detail = fiq_serve::client::campaign(&addr, id)?;
        let status = detail
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let done = detail
            .get("shards_done")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if done != last {
            let total = detail.get("shards").and_then(Json::as_u64).unwrap_or(0);
            eprintln!("campaign {id}: {status}, {done}/{total} shards done");
            last = done;
        }
        match status.as_str() {
            "done" => break,
            "failed" => {
                return Err(format!(
                    "campaign {id} failed: {}",
                    detail
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                ))
            }
            _ => std::thread::sleep(interval),
        }
    }
    let report = fiq_serve::client::report(&addr, id)?;
    println!("{report}");
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    if args.has("follow") {
        return cmd_report_follow(args);
    }
    let records = args
        .flag("records")
        .map(PathBuf::from)
        .or_else(|| args.positional.first().map(PathBuf::from))
        .ok_or(
            "usage: fiq report <records.jsonl> [--telemetry FILE] [--divergence FILE] [--json]",
        )?;
    let telemetry = args.flag("telemetry").map(PathBuf::from);
    let divergence = args.flag("divergence").map(PathBuf::from);
    let report =
        fiq_core::CampaignReport::build(&records, telemetry.as_deref(), divergence.as_deref())?;
    if args.has("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(completed: usize, total: usize, resumed: usize) -> Progress {
        Progress {
            completed,
            total,
            resumed,
            fast_forwarded: 0,
            early_exited: 0,
        }
    }

    /// The first callback lands microseconds into the run: no rate spike,
    /// no near-zero ETA — both must read as unknown.
    #[test]
    fn progress_first_window_has_no_rate_spike() {
        let line = progress_line(progress(1, 1000, 0), 0.000_02);
        assert_eq!(
            line,
            "campaign: 1/1000 injections done (0%), --/s, eta --s, \
             0 fast-forwarded, 0 early-exited"
        );
    }

    /// A fully-resumed campaign never runs a worker: elapsed ≈ 0 and
    /// done == planned. The final line must not divide by zero and must
    /// settle the ETA at 0.
    #[test]
    fn progress_fully_resumed_campaign() {
        let line = progress_line(progress(500, 500, 500), 0.0);
        assert_eq!(
            line,
            "campaign: 500/500 injections done (100%), --/s, eta 0s, \
             0 fast-forwarded, 0 early-exited"
        );
    }

    /// Steady state: rate and ETA from fresh (non-resumed) completions.
    #[test]
    fn progress_steady_state_rate_and_eta() {
        let line = progress_line(progress(300, 500, 100), 4.0);
        assert_eq!(
            line,
            "campaign: 300/500 injections done (60%), 50/s, eta 4s, \
             0 fast-forwarded, 0 early-exited"
        );
    }

    /// Completion with a measured rate: ETA settles at 0 even though the
    /// rate stays known.
    #[test]
    fn progress_complete_with_known_rate() {
        let line = progress_line(progress(500, 500, 0), 10.0);
        assert_eq!(
            line,
            "campaign: 500/500 injections done (100%), 50/s, eta 0s, \
             0 fast-forwarded, 0 early-exited"
        );
    }

    /// An empty campaign (zero planned injections) reports 100% done.
    #[test]
    fn progress_empty_campaign() {
        let line = progress_line(progress(0, 0, 0), 0.0);
        assert_eq!(
            line,
            "campaign: 0/0 injections done (100%), --/s, eta 0s, \
             0 fast-forwarded, 0 early-exited"
        );
    }
}
