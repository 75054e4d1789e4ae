//! Campaign preparation: the one step between an optimized module and
//! the engine's cells.
//!
//! [`prepare_program`] lowers the module, profiles both levels, and
//! decides per level whether to capture golden checkpoints. Checkpoints
//! never change a record — fast-forward and early exit are
//! output-invariant — so the decision is made from the golden run's
//! length alone, where it is a pure cost question: every restore pays a
//! fixed cost (~60–100 µs), which a short golden prefix never earns back.
//! A level gets its [`CHECKPOINTS`] evenly spaced checkpoints iff its
//! golden run is at least [`CHECKPOINT_MIN_STEPS`] long, or whenever a
//! divergence stream is requested (timelines are observed at
//! checkpoints). Cells without checkpoints replay in full, so callers
//! always run the engine with `fast_forward` and `early_exit` on.

use crate::category::Category;
use crate::engine::{CellSpec, SnapshotCache, Substrate};
use crate::profile::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    LlfiProfile, PinfiProfile,
};
use fiq_asm::{AsmProgram, MachOptions};
use fiq_backend::LowerOptions;
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use std::sync::Arc;

/// Checkpoints captured across a golden run, spaced every
/// `golden_steps / CHECKPOINTS` steps.
pub const CHECKPOINTS: u64 = 64;

/// The golden step count from which a level's checkpoints pay for
/// themselves. Measured on a 2-vCPU host with the loop kernel of
/// EXPERIMENTS.md ("When checkpoints pay"), median of 9 interleaved
/// runs: at 7.8k golden IR steps checkpoints lose (1000 sampled
/// injections 0.165 s vs 0.106 s, exact `cmp` 0.051 s vs 0.034 s), at
/// 11.7k they tie, at 15.6k they win (0.195 s vs 0.237 s, 0.077 s vs
/// 0.109 s). The threshold sits just above the tie.
pub const CHECKPOINT_MIN_STEPS: u64 = 12_000;

/// A program ready for campaigns: both representations, both golden
/// profiles, and the per-level checkpoints the cells carry.
pub struct PreparedProgram {
    /// The optimized IR module (LLFI's input).
    pub module: Module,
    /// The lowered assembly program (PINFI's input).
    pub program: AsmProgram,
    /// IR-level golden profile.
    pub llfi: LlfiProfile,
    /// Assembly-level golden profile.
    pub pinfi: PinfiProfile,
    llfi_snaps: Option<Arc<SnapshotCache>>,
    pinfi_snaps: Option<Arc<SnapshotCache>>,
}

/// Whether a level with this golden length gets checkpoints.
fn wants_checkpoints(golden_steps: u64, divergence: bool) -> bool {
    divergence || golden_steps >= CHECKPOINT_MIN_STEPS
}

/// Lowers and profiles an optimized module, capturing each level's
/// golden checkpoints when they pay (see the module docs) or when
/// `divergence` asks for timelines.
///
/// # Errors
///
/// Returns a message if lowering fails or a golden run does not finish.
pub fn prepare_program(
    module: Module,
    lower: LowerOptions,
    divergence: bool,
) -> Result<PreparedProgram, String> {
    let program = fiq_backend::lower_module(&module, lower).map_err(|e| e.to_string())?;
    let llfi = profile_llfi(&module, InterpOptions::default())?;
    let pinfi = profile_pinfi(&program, MachOptions::default())?;
    let interval = |golden_steps: u64| (golden_steps / CHECKPOINTS).max(1);
    let llfi_snaps = if wants_checkpoints(llfi.golden_steps, divergence) {
        let iv = interval(llfi.golden_steps);
        let (_, s) = profile_llfi_with_snapshots(&module, InterpOptions::default(), iv)?;
        Some(Arc::new(SnapshotCache::Llfi(s)))
    } else {
        None
    };
    let pinfi_snaps = if wants_checkpoints(pinfi.golden_steps, divergence) {
        let iv = interval(pinfi.golden_steps);
        let (_, s) = profile_pinfi_with_snapshots(&program, MachOptions::default(), iv)?;
        Some(Arc::new(SnapshotCache::Pinfi(s)))
    } else {
        None
    };
    Ok(PreparedProgram {
        module,
        program,
        llfi,
        pinfi,
        llfi_snaps,
        pinfi_snaps,
    })
}

impl PreparedProgram {
    /// The LLFI and PINFI cells (in that order) injecting into
    /// `category`, both labelled `label`.
    pub fn cells(&self, label: &str, category: Category) -> [CellSpec<'_>; 2] {
        [
            CellSpec {
                label: label.to_string(),
                category,
                substrate: Substrate::Llfi {
                    module: &self.module,
                    profile: &self.llfi,
                },
                snapshots: self.llfi_snaps.clone(),
            },
            CellSpec {
                label: label.to_string(),
                category,
                substrate: Substrate::Pinfi {
                    prog: &self.program,
                    profile: &self.pinfi,
                },
                snapshots: self.pinfi_snaps.clone(),
            },
        ]
    }

    /// True iff either level carries golden checkpoints.
    pub fn checkpointed(&self) -> bool {
        self.llfi_snaps.is_some() || self.pinfi_snaps.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop kernel the checkpoint threshold was measured on; about
    /// 26 IR steps per iteration.
    fn kernel(iterations: u32) -> Module {
        let src = format!(
            "int g[64]; int main() {{ int s = 0; \
             for (int i = 0; i < {iterations}; i += 1) {{ int t = (s * 3 + i) & 255; \
             g[i & 63] = g[i & 63] + t; int u = t * t + 9; \
             int v = (u * 5 + g[(i * 7) & 63]) & 511; s = (s + v) & 1023; }} \
             print_i64(s & 1023); return 0; }}"
        );
        let mut m = fiq_frontend::compile("kernel", &src).unwrap();
        fiq_opt::optimize_module(&mut m);
        m
    }

    fn checkpoint_counts(p: &PreparedProgram) -> [usize; 2] {
        p.cells("kernel", Category::All)
            .map(|c| match c.snapshots.as_deref() {
                None => 0,
                Some(SnapshotCache::Llfi(s)) => s.len(),
                Some(SnapshotCache::Pinfi(s)) => s.len(),
            })
    }

    #[test]
    fn short_programs_get_no_checkpoints() {
        let p = prepare_program(kernel(100), LowerOptions::default(), false).unwrap();
        assert!(p.llfi.golden_steps < CHECKPOINT_MIN_STEPS);
        assert!(p.pinfi.golden_steps < CHECKPOINT_MIN_STEPS);
        assert_eq!(checkpoint_counts(&p), [0, 0]);
        assert!(!p.checkpointed());
    }

    #[test]
    fn long_programs_get_evenly_spaced_checkpoints_per_level() {
        let p = prepare_program(kernel(3000), LowerOptions::default(), false).unwrap();
        assert!(p.llfi.golden_steps >= CHECKPOINT_MIN_STEPS);
        for n in checkpoint_counts(&p) {
            assert!(
                (CHECKPOINTS as usize - 1..=CHECKPOINTS as usize + 1).contains(&n),
                "~{CHECKPOINTS} checkpoints per level, got {n}"
            );
        }
        assert!(p.checkpointed());
    }

    #[test]
    fn divergence_captures_checkpoints_on_short_programs() {
        let p = prepare_program(kernel(100), LowerOptions::default(), true).unwrap();
        assert!(p.llfi.golden_steps < CHECKPOINT_MIN_STEPS);
        let [l, r] = checkpoint_counts(&p);
        assert!(l > 0 && r > 0, "divergence needs checkpoints: {l}/{r}");
        assert!(p.checkpointed());
    }

    #[test]
    fn cells_pair_both_levels_under_one_label() {
        let p = prepare_program(kernel(10), LowerOptions::default(), false).unwrap();
        let [l, r] = p.cells("k", Category::Load);
        assert_eq!((l.substrate.tool(), r.substrate.tool()), ("llfi", "pinfi"));
        assert!(l.label == "k" && r.label == "k");
        assert!(l.category == Category::Load && r.category == Category::Load);
    }
}
