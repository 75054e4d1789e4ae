//! `serve-fleet`: an in-process `fiq serve` daemon on a loopback port
//! with two executors. One client submits a burst of six campaigns, one
//! per `CATALOG` program (category all, sampled, fast-forward and
//! divergence on, four shards, distinct priorities), then polls
//! `/api/status` at a fixed interval until every campaign settles and
//! fetches each report. The client holds one connection at a time.

use crate::tel::EngineTel;
use crate::{checks, file_hash, file_len, iterate, Ctx, Ops, Study, THREADS};
use fiq_core::json::Json;
use fiq_core::{plan_campaign, run_campaign, CampaignConfig, Category, Collapse, EngineOptions};
use fiq_serve::aggregate::{merge_campaign, merged_path, shard_path};
use fiq_serve::{client, prepare, Daemon, ServeOptions, Submission};
use fiq_workloads::CATALOG;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sampled injections per cell (two cells per campaign).
pub const INJECTIONS: u32 = 150;
/// Shards per campaign.
pub const SHARDS: usize = 4;
/// Interval between `/api/status` polls.
const POLL: Duration = Duration::from_millis(20);
/// A burst that has not settled by then is a failed run (a healthy one
/// settles in seconds; the whole run must end within minutes).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Campaign `i` of the burst; later submissions get higher priorities.
fn submission(i: usize, seed: u64) -> Submission {
    let w = &CATALOG[i];
    Submission {
        name: w.name.to_string(),
        source: w.source.to_string(),
        category: Category::All,
        injections: INJECTIONS,
        seed,
        threads: 1,
        shards: SHARDS,
        priority: i as u64 + 1,
        collapse: Collapse::Sampled,
        divergence: true,
        fast_forward: true,
    }
}

/// Shuts the daemon down and joins its threads when dropped, on every
/// path out of a study.
struct Running {
    daemon: Option<Daemon>,
    addr: String,
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            let _ = client::shutdown(&self.addr);
            d.join();
        }
    }
}

struct Keep {
    data: PathBuf,
    ids: Vec<u64>,
}

fn id_of(v: &Json) -> Result<u64, String> {
    v.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("daemon reply lacks an id: {v}"))
}

fn study(ctx: &Ctx, dir: &Path, ops: &mut Ops) -> Result<(Study, Keep), String> {
    let tr = &ctx.tracer;
    let data = dir.join("data");
    let daemon = Daemon::start(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: data.clone(),
        executors: THREADS,
    })?;
    let running = Running {
        addr: daemon.addr().to_string(),
        daemon: Some(daemon),
    };
    let addr = running.addr.as_str();

    let t0 = Instant::now();
    let mut ids = Vec::new();
    let mut submitted = Vec::new();
    let mut tasks = 0;
    for i in 0..CATALOG.len() {
        let sub = submission(i, ctx.seed);
        let reply = tr.span("serve.submit", i as u64, || client::submit(addr, &sub))?;
        ops.ok(1);
        ids.push(id_of(&reply)?);
        tasks += reply.get("total_tasks").and_then(Json::as_u64).unwrap_or(0);
        submitted.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // Poll until every campaign settles, noting when each first leaves
    // the queue.
    let mut started: Vec<Option<f64>> = vec![None; ids.len()];
    loop {
        let status = tr.span("serve.status", 0, || client::status(addr))?;
        ops.ok(1);
        let now = t0.elapsed().as_secs_f64();
        let mut settled = 0;
        for c in status
            .get("campaigns")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let Some(i) = ids
                .iter()
                .position(|&id| Some(id) == c.get("id").and_then(Json::as_u64))
            else {
                continue;
            };
            let state = c.get("status").and_then(Json::as_str).unwrap_or("");
            if state != "queued" && started[i].is_none() {
                started[i] = Some(now);
            }
            settled += usize::from(matches!(state, "done" | "failed"));
        }
        if settled == ids.len() {
            break;
        }
        if t0.elapsed() > SETTLE_TIMEOUT {
            return Err(format!(
                "campaigns did not settle within {SETTLE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(POLL);
    }
    let exec_s = t0.elapsed().as_secs_f64() - submitted[0];

    let mut attempts = 0;
    for &id in &ids {
        let detail = tr.span("serve.campaign", id, || client::campaign(addr, id))?;
        if detail.get("status").and_then(Json::as_str) != Some("done") {
            ops.fail(format!("campaign {id} settled as {detail}"));
            continue;
        }
        ops.ok(1);
        for s in detail
            .get("shard_states")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let a = s.get("attempts").and_then(Json::as_u64).unwrap_or(0);
            attempts += a;
            ops.ok(1);
            for extra in 1..a {
                ops.fail(format!("campaign {id} shard {s}: attempt {}", extra + 1));
            }
        }
    }
    for &id in &ids {
        let report = tr.span("serve.report", id, || client::report(addr, id))?;
        std::hint::black_box(report);
        ops.ok(1);
    }
    let study_s = t0.elapsed().as_secs_f64();
    drop(running);
    ops.ok(tasks);

    let mut s = Study {
        setup_s,
        study_s,
        exec_s,
        tasks,
        ..Study::default()
    };
    let mut tel = EngineTel::default();
    let (mut records, mut divergence, mut hash) = (0, 0, 0u64);
    for &id in &ids {
        let cdir = data.join(format!("c{id}"));
        tel.add(EngineTel::parse(&merged_path(&cdir, "telemetry"))?);
        records += file_len(&merged_path(&cdir, "records"));
        divergence += file_len(&merged_path(&cdir, "divergence"));
        hash = hash.rotate_left(7) ^ file_hash(&merged_path(&cdir, "records"))?;
    }
    let waits: Vec<f64> = started
        .iter()
        .zip(&submitted)
        .map(|(st, sub)| st.map_or(0.0, |st| (st - sub).max(0.0)))
        .collect();
    s.exact.insert("engine.tasks", tasks);
    s.exact.insert("io.records_bytes", records);
    s.exact.insert("io.records_hash", hash);
    s.gauges.insert("divergence.bytes", divergence as f64);
    s.gauges
        .insert("serve.spool_bytes", dir_bytes(&data) as f64);
    s.gauges.insert("serve.shard_attempts", attempts as f64);
    s.gauges
        .insert("serve.queue_wait_s", crate::stats::median(&waits));
    s.set_tel(tel);
    Ok((s, Keep { data, ids }))
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    dir_bytes(&p)
                } else {
                    file_len(&p)
                }
            })
            .sum()
    })
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// For the seed-chosen campaign: the daemon's merged records and
/// divergence streams must equal an in-process `run_campaign` of the
/// same prepared cells byte for byte, and merging the daemon's shard
/// spools again must reproduce them. Returns the merge time in ms.
fn check(ctx: &Ctx, keep: &Keep, dir: &Path, ops: &mut Ops) -> Result<f64, String> {
    let c = (ctx.seed % CATALOG.len() as u64) as usize;
    let prepared = prepare(&submission(c, ctx.seed))?;
    let cells = prepared.cells();
    let cfg = CampaignConfig {
        threads: THREADS,
        ..prepared.cfg
    };
    let records = dir.join("check.records.jsonl");
    let divergence = dir.join("check.divergence.jsonl");
    let opts = EngineOptions {
        records: Some(&records),
        divergence: Some(&divergence),
        fast_forward: prepared.fast_forward,
        early_exit: prepared.early_exit,
        ..EngineOptions::default()
    };
    run_campaign(&cells, &cfg, &opts)?;
    let cdir = keep.data.join(format!("c{}", keep.ids[c]));
    let name = &prepared.name;
    for (stream, local) in [("records", &records), ("divergence", &divergence)] {
        let merged = read(&merged_path(&cdir, stream))?;
        ops.check(checks::same_bytes(
            &format!("{name}: daemon {stream} vs in-process run"),
            &read(local)?,
            &merged,
        ));
    }

    let mdir = dir.join("merge");
    crate::fresh_dir(&mdir)?;
    for shard in 0..prepared.shards {
        for stream in ["records", "divergence", "telemetry"] {
            let (from, to) = (
                shard_path(&cdir, stream, shard),
                shard_path(&mdir, stream, shard),
            );
            std::fs::copy(&from, &to).map_err(|e| format!("copy {}: {e}", from.display()))?;
        }
    }
    let plan = plan_campaign(&cells, &prepared.cfg, prepared.collapse)?;
    let t = Instant::now();
    ctx.tracer.span("serve.merge", keep.ids[c], || {
        merge_campaign(&prepared, &plan, &mdir)
    })?;
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    for stream in ["records", "divergence"] {
        ops.check(checks::same_bytes(
            &format!("{name}: re-merged {stream} vs daemon"),
            &read(&merged_path(&cdir, stream))?,
            &read(&merged_path(&mdir, stream))?,
        ));
    }
    Ok(merge_ms)
}

pub fn run(
    ctx: &Ctx,
    dir: &Path,
    seconds: f64,
    trace: bool,
    ops: &mut Ops,
) -> Result<Vec<Study>, String> {
    let (mut studies, keep, sdir) =
        iterate(ctx, dir, seconds, trace, |sdir, _| study(ctx, sdir, ops))?;
    let merge_ms = check(ctx, &keep, &sdir, ops)?;
    if let Some(last) = studies.last_mut() {
        last.gauges.insert("serve.merge_ms", merge_ms);
    }
    Ok(studies)
}
