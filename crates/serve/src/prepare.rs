//! Submission parsing and campaign preparation.
//!
//! A [`Submission`] is the wire form of "run this campaign": inline
//! Mini-C source (or a bundled workload name the client resolved), the
//! injection category, and the budget/mode knobs. [`prepare`] turns it
//! into a [`Prepared`] — the *owned* [`PreparedProgram`] (compiled,
//! profiled, checkpointed by [`prepare_program`]) the daemon keeps alive
//! for the campaign's whole lifetime, handing borrowed [`CellSpec`]
//! views to each shard run. Preparation happens
//! once per campaign, not once per shard: the plan drawn from these
//! artifacts is what makes every shard's records byte-compatible.

use fiq_core::json::Json;
use fiq_core::{prepare_program, CampaignConfig, Category, CellSpec, Collapse, PreparedProgram};

/// Most worker threads one shard run may ask for. The engine spawns
/// `min(threads, tasks)` OS threads per running shard, so the bound
/// keeps a single submission from exhausting the daemon's threads.
pub const MAX_THREADS: usize = 64;

/// Most shards one campaign may be split into. Each shard costs a spec,
/// a queue entry and three spool files, so the bound keeps a single
/// submission from exhausting the daemon's memory and file handles.
pub const MAX_SHARDS: usize = 256;

/// A campaign submission as it travels over the API.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Display name (workload or source-file stem); also the cell label.
    pub name: String,
    /// Mini-C source text. The client inlines file contents; bundled
    /// workload names are resolved on either side.
    pub source: String,
    /// Instruction category under injection.
    pub category: Category,
    /// Injections per cell under sampled planning.
    pub injections: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads per shard executor (0 = auto).
    pub threads: usize,
    /// Shard count the campaign is split into.
    pub shards: usize,
    /// Queue priority: higher runs first (FIFO within a priority).
    pub priority: u64,
    /// Planning mode (sampled or exact collapse).
    pub collapse: Collapse,
    /// Capture per-injection divergence timelines.
    pub divergence: bool,
    /// Accepted on the wire for compatibility and ignored: [`prepare`]
    /// decides checkpointing from the golden run's length (and
    /// `divergence`), because checkpoints never change a record.
    pub fast_forward: bool,
}

/// Parses a category name as the CLI spells it.
pub fn parse_category(s: &str) -> Result<Category, String> {
    Category::ALL
        .into_iter()
        .find(|c| c.name() == s)
        .ok_or_else(|| format!("unknown category `{s}`"))
}

impl Submission {
    /// A submission for a bundled workload with default knobs.
    pub fn for_workload(name: &str) -> Result<Submission, String> {
        let w = fiq_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        Ok(Submission {
            name: name.to_string(),
            source: w.source.to_string(),
            category: Category::All,
            injections: 200,
            seed: 42,
            threads: 1,
            shards: 1,
            priority: 0,
            collapse: Collapse::Sampled,
            divergence: false,
            fast_forward: false,
        })
    }

    /// The wire form sent to `POST /api/submit`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("source".into(), Json::str(self.source.clone())),
            ("category".into(), Json::str(self.category.name())),
            ("injections".into(), Json::u64(u64::from(self.injections))),
            ("seed".into(), Json::u64(self.seed)),
            ("threads".into(), Json::u64(self.threads as u64)),
            ("shards".into(), Json::u64(self.shards as u64)),
            ("priority".into(), Json::u64(self.priority)),
            (
                "collapse".into(),
                Json::str(match self.collapse {
                    Collapse::Sampled => "sampled",
                    Collapse::Exact => "exact",
                }),
            ),
            ("divergence".into(), Json::Bool(self.divergence)),
            ("fast_forward".into(), Json::Bool(self.fast_forward)),
        ])
    }

    /// Parses the wire form; absent knobs take their defaults.
    pub fn from_json(v: &Json) -> Result<Submission, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("submission missing `name`")?
            .to_string();
        let source = match v.get("source").and_then(Json::as_str) {
            Some(s) => s.to_string(),
            None => fiq_workloads::by_name(&name)
                .ok_or_else(|| {
                    format!("submission has no `source` and `{name}` is not a bundled workload")
                })?
                .source
                .to_string(),
        };
        let u = |key: &str, default: u64| v.get(key).and_then(Json::as_u64).unwrap_or(default);
        let category = match v.get("category").and_then(Json::as_str) {
            Some(s) => parse_category(s)?,
            None => Category::All,
        };
        let collapse = match v.get("collapse").and_then(Json::as_str) {
            Some(s) => Collapse::parse(s).ok_or_else(|| format!("unknown collapse mode `{s}`"))?,
            None => Collapse::Sampled,
        };
        let injections = u32::try_from(u("injections", 200))
            .map_err(|_| "injections exceeds u32".to_string())?;
        let bounded = |key: &str, default: u64, max: usize| {
            let n = u(key, default);
            match usize::try_from(n) {
                Ok(n) if n <= max => Ok(n),
                _ => Err(format!("`{key}` is {n}, above the daemon's bound of {max}")),
            }
        };
        Ok(Submission {
            name,
            source,
            category,
            injections,
            seed: u("seed", 42),
            threads: bounded("threads", 1, MAX_THREADS)?,
            shards: bounded("shards", 1, MAX_SHARDS)?.max(1),
            priority: u("priority", 0),
            collapse,
            divergence: v.get("divergence") == Some(&Json::Bool(true)),
            fast_forward: v.get("fast_forward") == Some(&Json::Bool(true)),
        })
    }
}

/// Owned campaign artifacts: everything a shard run borrows, kept alive
/// by the daemon for the campaign's lifetime.
pub struct Prepared {
    /// Cell label and display name.
    pub name: String,
    /// Category both cells inject into.
    pub category: Category,
    /// Engine configuration shared by every shard.
    pub cfg: CampaignConfig,
    /// Planning mode.
    pub collapse: Collapse,
    /// Whether shard runs stream divergence timelines.
    pub divergence: bool,
    /// Whether the cells carry golden checkpoints to fast-forward from
    /// (derived by [`prepare_program`], never chosen).
    pub fast_forward: bool,
    /// Whether the cells carry golden checkpoints to early-exit at;
    /// always equal to [`Prepared::fast_forward`].
    pub early_exit: bool,
    /// Shard count the campaign is split into.
    pub shards: usize,
    /// Queue priority carried over from the submission.
    pub priority: u64,
    program: PreparedProgram,
}

impl Prepared {
    /// The two-cell (LLFI × PINFI) grid every shard runs, borrowing
    /// this campaign's owned artifacts. Must be identical for planning
    /// and for every shard run — it is, because it is derived from the
    /// same owned state every time.
    pub fn cells(&self) -> Vec<CellSpec<'_>> {
        self.program.cells(&self.name, self.category).into()
    }
}

/// Compiles and prepares a submission — the once-per-campaign expensive
/// half, the same [`prepare_program`] step `fiq campaign` runs before
/// calling the engine. `sub.fast_forward` is ignored.
pub fn prepare(sub: &Submission) -> Result<Prepared, String> {
    let mut module = fiq_frontend::compile(&sub.name, &sub.source).map_err(|e| e.to_string())?;
    fiq_opt::optimize_module(&mut module);
    let program = prepare_program(module, fiq_backend::LowerOptions::default(), sub.divergence)?;
    let checkpointed = program.checkpointed();
    Ok(Prepared {
        name: sub.name.clone(),
        category: sub.category,
        cfg: CampaignConfig {
            injections: sub.injections,
            seed: sub.seed,
            threads: sub.threads,
            ..CampaignConfig::default()
        },
        collapse: sub.collapse,
        divergence: sub.divergence,
        fast_forward: checkpointed,
        early_exit: checkpointed,
        shards: sub.shards,
        priority: sub.priority,
        program,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(extra: &str) -> Result<Submission, String> {
        let body = format!(r#"{{"name":"mcf"{extra}}}"#);
        Submission::from_json(&Json::parse(&body).unwrap())
    }

    #[test]
    fn accepts_threads_and_shards_up_to_their_bounds() {
        let sub = parse(&format!(
            r#","threads":{MAX_THREADS},"shards":{MAX_SHARDS}"#
        ))
        .unwrap();
        assert_eq!((sub.threads, sub.shards), (MAX_THREADS, MAX_SHARDS));
        let sub = parse(r#","threads":4,"shards":7"#).unwrap();
        assert_eq!((sub.threads, sub.shards), (4, 7));
        let sub = parse("").unwrap();
        assert_eq!((sub.threads, sub.shards), (1, 1));
    }

    #[test]
    fn rejects_threads_above_the_bound() {
        let err = parse(&format!(r#","threads":{}"#, MAX_THREADS + 1)).unwrap_err();
        assert!(
            err.contains("`threads`") && err.contains(&MAX_THREADS.to_string()),
            "{err}"
        );
        let err = parse(r#","threads":18446744073709551615"#).unwrap_err();
        assert!(err.contains("`threads`"), "{err}");
    }

    #[test]
    fn rejects_shards_above_the_bound() {
        let err = parse(&format!(r#","shards":{}"#, MAX_SHARDS + 1)).unwrap_err();
        assert!(
            err.contains("`shards`") && err.contains(&MAX_SHARDS.to_string()),
            "{err}"
        );
        let err = parse(r#","shards":18446744073709551615"#).unwrap_err();
        assert!(err.contains("`shards`"), "{err}");
    }
}
