//! The front half of the pipeline, called through the public API with a
//! span around each layer: compile → optimize → lower → golden profiles
//! (→ checkpoints).

use crate::trace::Tracer;
use fiq_asm::{AsmProgram, MachOptions};
use fiq_core::{
    profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
    Category, CellSpec, LlfiProfile, PinfiProfile, SnapshotCache, Substrate,
};
use fiq_interp::InterpOptions;
use fiq_ir::Module;
use std::sync::Arc;

/// Checkpoints captured across each golden run (the `fiq campaign`
/// default interval is golden steps / 64).
const CHECKPOINTS: u64 = 64;

/// A program compiled to both levels and profiled at both.
pub struct Built {
    pub label: String,
    pub module: Module,
    pub prog: AsmProgram,
    pub lp: LlfiProfile,
    pub pp: PinfiProfile,
    pub snapshots: Option<(Arc<SnapshotCache>, Arc<SnapshotCache>)>,
}

/// Compiles, optimizes, lowers, and profiles `source`; `id` tags the spans.
pub fn build(tr: &Tracer, id: u64, label: &str, source: &str) -> Result<Built, String> {
    let mut module = tr
        .span("frontend.compile", id, || {
            fiq_frontend::compile(label, source)
        })
        .map_err(|e| format!("{label}: compile: {e}"))?;
    tr.span("opt.optimize", id, || fiq_opt::optimize_module(&mut module));
    let prog = tr
        .span("backend.lower", id, || {
            fiq_backend::lower_module(&module, fiq_backend::LowerOptions::default())
        })
        .map_err(|e| format!("{label}: lower: {e}"))?;
    let lp = tr
        .span("profile.llfi", id, || {
            profile_llfi(&module, InterpOptions::default())
        })
        .map_err(|e| format!("{label}: llfi profile: {e}"))?;
    let pp = tr
        .span("profile.pinfi", id, || {
            profile_pinfi(&prog, MachOptions::default())
        })
        .map_err(|e| format!("{label}: pinfi profile: {e}"))?;
    Ok(Built {
        label: label.to_string(),
        module,
        prog,
        lp,
        pp,
        snapshots: None,
    })
}

impl Built {
    /// Captures golden checkpoints at both levels.
    pub fn capture_snapshots(&mut self, tr: &Tracer, id: u64) -> Result<(), String> {
        let l_iv = (self.lp.golden_steps / CHECKPOINTS).max(1);
        let p_iv = (self.pp.golden_steps / CHECKPOINTS).max(1);
        let (_, ls) = tr
            .span("profile.snapshots", id, || {
                profile_llfi_with_snapshots(&self.module, InterpOptions::default(), l_iv)
            })
            .map_err(|e| format!("{}: llfi snapshots: {e}", self.label))?;
        let (_, ps) = tr
            .span("profile.snapshots", id, || {
                profile_pinfi_with_snapshots(&self.prog, MachOptions::default(), p_iv)
            })
            .map_err(|e| format!("{}: pinfi snapshots: {e}", self.label))?;
        self.snapshots = Some((
            Arc::new(SnapshotCache::Llfi(ls)),
            Arc::new(SnapshotCache::Pinfi(ps)),
        ));
        Ok(())
    }

    /// Checkpoints captured, both levels.
    pub fn snapshot_count(&self) -> usize {
        let len = |c: &SnapshotCache| match c {
            SnapshotCache::Llfi(v) => v.len(),
            SnapshotCache::Pinfi(v) => v.len(),
        };
        self.snapshots.as_ref().map_or(0, |(l, p)| len(l) + len(p))
    }

    /// The program's cell for one category and tool (`pinfi` false →
    /// LLFI), with its checkpoints when `with_snapshots`.
    pub fn cell(&self, category: Category, pinfi: bool, with_snapshots: bool) -> CellSpec<'_> {
        let snaps = self.snapshots.as_ref().filter(|_| with_snapshots);
        CellSpec {
            label: self.label.clone(),
            category,
            substrate: if pinfi {
                Substrate::Pinfi {
                    prog: &self.prog,
                    profile: &self.pp,
                }
            } else {
                Substrate::Llfi {
                    module: &self.module,
                    profile: &self.lp,
                }
            },
            snapshots: snaps.map(|(l, p)| Arc::clone(if pinfi { p } else { l })),
        }
    }

    /// All ten cells of the program: `Category::ALL` × {LLFI, PINFI}.
    pub fn cells(&self) -> Vec<CellSpec<'_>> {
        Category::ALL
            .into_iter()
            .flat_map(|c| [self.cell(c, false, true), self.cell(c, true, true)])
            .collect()
    }
}
