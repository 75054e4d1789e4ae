//! `exact-census`: exact-collapse campaigns over generated Mini-C
//! programs, `Category::ALL` × {LLFI, PINFI} each, with no checkpoints.
//!
//! Program `i` of census seed `s` is `fiq_fuzz::generate(s * 1000 + i)`
//! (wrapping), drawn for `i = 0, 1, …` in order. A program whose golden
//! IR run exceeds [`MAX_GOLDEN_STEPS`] is passed over before planning
//! (the exact fault space grows with the square of the run length), and
//! so is one whose representatives would take the census past
//! [`TASK_BUDGET`]. Drawing stops once the census is within [`SLACK`] of
//! the budget, so every seed does about the same amount of work. A
//! program the pipeline or the engine refuses is a failed operation; the
//! census goes on with the next seed but the run fails.

use crate::pipeline::{build, Built};
use crate::tel::EngineTel;
use crate::{checks, file_hash, file_len, iterate, Ctx, Ops, Study, THREADS};
use fiq_core::{
    cross_check_llfi, cross_check_pinfi, plan_campaign, run_campaign_shard, CampaignConfig,
    CampaignPlan, CampaignReport, CellReport, Collapse, EngineOptions, PinfiOptions,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Largest golden IR run, in steps, of a program admitted to the census.
pub const MAX_GOLDEN_STEPS: u64 = 700;
/// Representatives (executed injection tasks) a census aims for.
pub const TASK_BUDGET: usize = 400_000;
/// Drawing stops once the census is this close to [`TASK_BUDGET`].
pub const SLACK: usize = 45_000;
/// Program seeds tried per census at most.
pub const MAX_DRAWS: u64 = 400;

/// The fuzz seed of program `i` of census seed `seed`.
pub fn program_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        threads: THREADS,
        ..CampaignConfig::default()
    }
}

struct Member {
    seed: u64,
    built: Built,
    plan: CampaignPlan,
    records: PathBuf,
    reports: Vec<CellReport>,
}

fn study(
    ctx: &Ctx,
    dir: &Path,
    traced: bool,
    ops: &mut Ops,
) -> Result<(Study, Vec<Member>), String> {
    let tr = &ctx.tracer;
    let cfg = config(ctx.seed);
    let t0 = Instant::now();
    let mut members: Vec<Member> = Vec::new();
    let mut total = 0;
    let mut passed_over = 0u64;
    for i in 0..MAX_DRAWS {
        if total + SLACK >= TASK_BUDGET {
            break;
        }
        let seed = program_seed(ctx.seed, i);
        let label = format!("gen{seed}");
        let source = fiq_fuzz::generate(seed);
        let built = match build(tr, seed, &label, &source) {
            Ok(b) => b,
            Err(e) => {
                ops.fail(format!("program seed {seed} refused: {e}"));
                continue;
            }
        };
        ops.ok(1);
        if built.lp.golden_steps > MAX_GOLDEN_STEPS {
            passed_over += 1;
            continue;
        }
        let cells = built.cells();
        let plan = match tr.span("engine.plan", seed, || {
            plan_campaign(&cells, &cfg, Collapse::Exact)
        }) {
            Ok(p) => p,
            Err(e) => {
                ops.fail(format!("program seed {seed}: exact planning refused: {e}"));
                continue;
            }
        };
        drop(cells);
        if total + plan.total_tasks() > TASK_BUDGET {
            passed_over += 1;
            continue;
        }
        total += plan.total_tasks();
        members.push(Member {
            seed,
            records: dir.join(format!("{label}.records.jsonl")),
            built,
            plan,
            reports: Vec::new(),
        });
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut exec_s = 0.0;
    let mut tel_paths = Vec::new();
    for m in &mut members {
        let id = m.seed;
        let cells = m.built.cells();
        let telemetry = m.records.with_extension("tel");
        let opts = EngineOptions {
            records: Some(&m.records),
            telemetry: traced.then_some(telemetry.as_path()),
            collapse: Collapse::Exact,
            ..EngineOptions::default()
        };
        let t_run = Instant::now();
        let full = m.plan.shards(1)[0];
        let run = tr.span("engine.run", id, || {
            run_campaign_shard(&cells, &cfg, &opts, &m.plan, full)
        });
        exec_s += t_run.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                ops.ok(m.plan.total_tasks() as u64);
                m.reports = run.cells;
            }
            Err(e) => {
                ops.fail(format!("{}: exact campaign failed: {e}", m.built.label));
                continue;
            }
        }
        let report = tr.span("report.build", id, || {
            CampaignReport::build(&m.records, None, None)
        })?;
        std::hint::black_box(tr.span("report.render", id, || report.render()));
        if traced {
            tel_paths.push(telemetry);
        }
    }
    let study_s = t0.elapsed().as_secs_f64();

    let tasks = total as u64;
    let mut s = Study {
        setup_s,
        study_s,
        exec_s,
        tasks,
        golden_llfi_steps: members.iter().map(|m| m.built.lp.golden_steps).sum(),
        golden_pinfi_steps: members.iter().map(|m| m.built.pp.golden_steps).sum(),
        ..Study::default()
    };
    let reports = members.iter().flat_map(|m| &m.reports);
    s.exact.insert("engine.tasks", tasks);
    s.exact.insert(
        "collapse.fault_space",
        reports.clone().map(|r| r.fault_space).sum(),
    );
    s.exact.insert(
        "collapse.executed",
        reports.map(|r| u64::from(r.executed)).sum(),
    );
    let mut hash = 0u64;
    let mut bytes = 0;
    for m in &members {
        bytes += file_len(&m.records);
        hash = hash.rotate_left(7) ^ file_hash(&m.records)?;
    }
    s.exact.insert("io.records_bytes", bytes);
    s.exact.insert("io.records_hash", hash);
    s.gauges.insert("census.programs", members.len() as f64);
    s.gauges.insert("census.passed_over", passed_over as f64);
    if traced {
        let mut tel = EngineTel::default();
        for p in &tel_paths {
            tel.add(EngineTel::parse(p)?);
            std::fs::remove_file(p).map_err(|e| format!("remove {}: {e}", p.display()))?;
        }
        s.set_tel(tel);
    }
    Ok((s, members))
}

/// Class-weighted totals against each cell's fault space, from both the
/// record stream and the engine's cell reports; then brute-force
/// enumeration of the smallest LLFI cell and the smallest PINFI cell.
fn check(ctx: &Ctx, members: &[Member], ops: &mut Ops) -> Result<(), String> {
    for m in members {
        let records = std::fs::read_to_string(&m.records)
            .map_err(|e| format!("read {}: {e}", m.records.display()))?;
        ops.check(checks::class_totals(&records));
        for (cell, r) in m.built.cells().iter().zip(&m.reports) {
            let total = r.counts.total();
            ops.check(if total == r.fault_space {
                Ok(1)
            } else {
                Err(format!(
                    "cell {}/{}/{}: report counts sum to {total}, fault space is {}",
                    cell.label,
                    cell.substrate.tool(),
                    cell.category,
                    r.fault_space
                ))
            });
        }
    }
    let cfg = config(ctx.seed);
    for pinfi in [false, true] {
        let smallest = members
            .iter()
            .flat_map(|m| {
                let cells = fiq_core::Category::ALL.into_iter();
                cells
                    .zip(m.reports.chunks(2))
                    .map(move |(c, r)| (m, c, r[usize::from(pinfi)]))
            })
            .filter(|(_, _, r)| r.fault_space > 0)
            .min_by_key(|(_, _, r)| r.fault_space);
        let Some((m, cat, _)) = smallest else {
            continue;
        };
        let b = &m.built;
        let chk = if pinfi {
            cross_check_pinfi(
                &b.prog,
                &b.pp,
                cat,
                PinfiOptions::default(),
                cfg.hang_budget(b.pp.golden_steps),
            )?
        } else {
            cross_check_llfi(&b.module, &b.lp, cat, cfg.hang_budget(b.lp.golden_steps))?
        };
        ops.check(if chk.matches() {
            Ok(chk.stats.space() as usize)
        } else {
            Err(format!(
                "cell {}/{}/{cat}: collapsed distribution {:?} differs from brute force {:?}",
                b.label,
                if pinfi { "pinfi" } else { "llfi" },
                chk.collapsed,
                chk.brute
            ))
        });
    }
    Ok(())
}

pub fn run(
    ctx: &Ctx,
    dir: &Path,
    seconds: f64,
    trace: bool,
    ops: &mut Ops,
) -> Result<Vec<Study>, String> {
    let (studies, members, _) = iterate(ctx, dir, seconds, trace, |sdir, traced| {
        study(ctx, sdir, traced, ops)
    })?;
    check(ctx, &members, ops)?;
    Ok(studies)
}
