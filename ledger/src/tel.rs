//! Reads the engine's own telemetry stream (`EngineOptions::telemetry`,
//! and the serve daemon's merged `telemetry.jsonl`) into the per-layer
//! counts the ledger reports.

use fiq_core::json::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Campaign-wide sums of the telemetry counters the ledger reports.
#[derive(Debug, Default, Clone)]
pub struct EngineTel {
    pub tasks: u64,
    pub fast_forwarded: u64,
    pub early_exited: u64,
    pub steps_executed: u64,
    pub steps_quiescent: u64,
    pub steps_skipped_ff: u64,
    pub digest_compares: u64,
    pub digest_matches: u64,
    pub timelines: u64,
    pub record_flushes: u64,
    /// Total wall time of snapshot restores, from the `restore_ns`
    /// histogram sums.
    pub restore_ns: u64,
    /// Per-task wall time from the task events.
    pub task_us: Vec<u64>,
}

impl EngineTel {
    /// Parses one telemetry file.
    pub fn parse(path: &Path) -> Result<EngineTel, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut tel = EngineTel::default();
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
            let v = Json::parse(&line).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = v.get("name").and_then(Json::as_str).unwrap_or("");
            let scope = v.get("scope").and_then(Json::as_str).unwrap_or("");
            match v.get("record").and_then(Json::as_str) {
                Some("counter") => {
                    let value = v.get("value").and_then(Json::as_u64).unwrap_or(0);
                    let slot = match (scope, name) {
                        ("engine", "record_flushes") => &mut tel.record_flushes,
                        ("cell", "tasks") => &mut tel.tasks,
                        ("cell", "fast_forwarded") => &mut tel.fast_forwarded,
                        ("cell", "early_exited") => &mut tel.early_exited,
                        ("cell", "steps_executed") => &mut tel.steps_executed,
                        ("cell", "steps_quiescent") => &mut tel.steps_quiescent,
                        ("cell", "steps_skipped_ff") => &mut tel.steps_skipped_ff,
                        ("cell", "digest_compares") => &mut tel.digest_compares,
                        ("cell", "digest_matches") => &mut tel.digest_matches,
                        ("cell", "timelines") => &mut tel.timelines,
                        _ => continue,
                    };
                    *slot += value;
                }
                Some("hist") if scope == "cell" && name == "restore_ns" => {
                    tel.restore_ns += v.get("sum").and_then(Json::as_u64).unwrap_or(0);
                }
                Some("event") if v.get("kind").and_then(Json::as_str) == Some("task") => {
                    if let Some(us) = v
                        .get("fields")
                        .and_then(|f| f.get("latency_us"))
                        .and_then(Json::as_u64)
                    {
                        tel.task_us.push(us);
                    }
                }
                _ => {}
            }
        }
        Ok(tel)
    }

    /// Adds another campaign's telemetry into this one.
    pub fn add(&mut self, o: EngineTel) {
        self.tasks += o.tasks;
        self.fast_forwarded += o.fast_forwarded;
        self.early_exited += o.early_exited;
        self.steps_executed += o.steps_executed;
        self.steps_quiescent += o.steps_quiescent;
        self.steps_skipped_ff += o.steps_skipped_ff;
        self.digest_compares += o.digest_compares;
        self.digest_matches += o.digest_matches;
        self.timelines += o.timelines;
        self.record_flushes += o.record_flushes;
        self.restore_ns += o.restore_ns;
        self.task_us.extend(o.task_us);
    }
}
