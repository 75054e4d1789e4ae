//! `paper-grid`: the paper's study as one multi-cell campaign — the six
//! `CATALOG` programs × `Category::ALL` × {LLFI, PINFI} (60 cells),
//! sampled, with golden checkpoints (fast-forward and early exit on),
//! records to a file, and a rendered report at the end.

use crate::pipeline::{build, Built};
use crate::{checks, file_hash, file_len, iterate, Ctx, Ops, Study, THREADS};
use fiq_core::{
    plan_campaign, run_campaign_shard, CampaignConfig, CampaignPlan, CampaignReport, Collapse,
    EngineOptions, ShardSpec,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sampled injections per cell.
pub const INJECTIONS: u32 = 30;

/// Consecutive tasks per cell replayed by the reference check.
const REFERENCE_PER_CELL: usize = 2;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections: INJECTIONS,
        seed,
        threads: THREADS,
        ..CampaignConfig::default()
    }
}

/// What the checks need from the last study.
struct Keep {
    programs: Vec<Built>,
    plan: CampaignPlan,
    records: PathBuf,
}

fn study(ctx: &Ctx, dir: &Path, traced: bool, ops: &mut Ops) -> Result<(Study, Keep), String> {
    let tr = &ctx.tracer;
    let t0 = Instant::now();
    let mut programs = Vec::new();
    for (id, w) in fiq_workloads::CATALOG.iter().enumerate() {
        let mut b = build(tr, id as u64, w.name, w.source)?;
        b.capture_snapshots(tr, id as u64)?;
        programs.push(b);
    }
    ops.ok(programs.len() as u64);
    let cells: Vec<_> = programs.iter().flat_map(Built::cells).collect();
    let cfg = config(ctx.seed);
    let plan = tr.span("engine.plan", 0, || {
        plan_campaign(&cells, &cfg, Collapse::Sampled)
    })?;
    let setup_s = t0.elapsed().as_secs_f64();

    let records = dir.join("records.jsonl");
    let telemetry = dir.join("telemetry.jsonl");
    let opts = EngineOptions {
        records: Some(&records),
        telemetry: traced.then_some(telemetry.as_path()),
        fast_forward: true,
        early_exit: true,
        ..EngineOptions::default()
    };
    let t_run = Instant::now();
    let full = plan.shards(1)[0];
    tr.span("engine.run", 0, || {
        run_campaign_shard(&cells, &cfg, &opts, &plan, full)
    })?;
    let exec_s = t_run.elapsed().as_secs_f64();
    let report = tr.span("report.build", 0, || {
        CampaignReport::build(&records, None, None)
    })?;
    let text = tr.span("report.render", 0, || report.render());
    std::hint::black_box(text);
    let study_s = t0.elapsed().as_secs_f64();
    drop(cells);

    let tasks = plan.total_tasks() as u64;
    ops.ok(tasks + 1);
    let mut s = Study {
        setup_s,
        study_s,
        exec_s,
        tasks,
        golden_llfi_steps: programs.iter().map(|b| b.lp.golden_steps).sum(),
        golden_pinfi_steps: programs.iter().map(|b| b.pp.golden_steps).sum(),
        ..Study::default()
    };
    s.exact.insert("engine.tasks", tasks);
    s.exact.insert("io.records_bytes", file_len(&records));
    s.exact.insert("io.records_hash", file_hash(&records)?);
    let snapshots: usize = programs.iter().map(Built::snapshot_count).sum();
    s.gauges.insert("profile.snapshots", snapshots as f64);
    if traced {
        s.set_tel(crate::tel::EngineTel::parse(&telemetry)?);
    }
    Ok((
        s,
        Keep {
            programs,
            plan,
            records,
        },
    ))
}

/// Replays a seed-chosen run of [`REFERENCE_PER_CELL`] tasks of every
/// cell with no checkpoints, no fast-forward and no early exit, and
/// compares those records with the timed run's, field for field.
fn check(ctx: &Ctx, keep: &Keep, dir: &Path, ops: &mut Ops) -> Result<(), String> {
    for b in &keep.programs {
        ops.check(checks::golden_agree(
            &b.label,
            &b.lp.golden_output,
            &b.pp.golden_output,
        ));
    }
    let timed = std::fs::read_to_string(&keep.records)
        .map_err(|e| format!("read {}: {e}", keep.records.display()))?;
    let cfg = config(ctx.seed);
    let cells: Vec<_> = keep
        .programs
        .iter()
        .flat_map(|b| {
            fiq_core::Category::ALL
                .into_iter()
                .flat_map(move |c| [b.cell(c, false, false), b.cell(c, true, false)])
        })
        .collect();
    for (ci, (cell, &planned)) in cells.iter().zip(keep.plan.planned()).enumerate() {
        let planned = planned as usize;
        if planned == 0 {
            continue;
        }
        let n = REFERENCE_PER_CELL.min(planned);
        let lo = (splitmix(ctx.seed ^ ci as u64) % (planned - n + 1) as u64) as usize;
        let one = std::slice::from_ref(cell);
        let plan = plan_campaign(one, &cfg, Collapse::Sampled)?;
        let path = dir.join(format!("reference-{ci}.jsonl"));
        let opts = EngineOptions {
            records: Some(&path),
            ..EngineOptions::default()
        };
        let shard = ShardSpec {
            index: 0,
            count: 1,
            lo,
            hi: lo + n,
        };
        run_campaign_shard(one, &cfg, &opts, &plan, shard)?;
        let reference =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ops.check(checks::records_match(&reference, &timed));
    }
    Ok(())
}

/// A 64-bit mixer (SplitMix64's finalizer) for seed-derived choices.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(
    ctx: &Ctx,
    dir: &Path,
    seconds: f64,
    trace: bool,
    ops: &mut Ops,
) -> Result<Vec<Study>, String> {
    let (studies, keep, sdir) = iterate(ctx, dir, seconds, trace, |sdir, traced| {
        study(ctx, sdir, traced, ops)
    })?;
    check(ctx, &keep, &sdir, ops)?;
    Ok(studies)
}
