//! LLFI — the high-level (IR) fault injector.
//!
//! Reproduces the paper's LLFI (§III): pick a uniformly random dynamic
//! instance of an instruction from the chosen category, flip one random
//! bit of its destination value at runtime, and track whether the
//! corrupted value is ever read (fault activation).

use crate::category::Category;
use crate::divergence::Timeline;
use crate::outcome::{classify, Outcome};
use crate::profile::{locate, GoldenRef, LlfiProfile};
use crate::telemetry::{cell_counter, cell_hist, TaskTel};
use fiq_interp::{
    DecodedModule, ExecResult, ExecStatus, InstSite, Interp, InterpHook, InterpOptions,
    InterpSnapshot, RtVal,
};
use fiq_ir::Module;
use fiq_mem::Quiescence;
use rand::Rng;
use std::sync::Arc;

/// A fully planned LLFI injection: *which* dynamic instance of *which*
/// instruction, and which bit of its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlfiInjection {
    /// Target static instruction.
    pub site: InstSite,
    /// 1-based dynamic instance of that instruction.
    pub instance: u64,
    /// Bit to flip in the destination value.
    pub bit: u32,
}

/// Plans a random injection into `cat`. Returns `None` when the category
/// has no dynamic instances in this program.
pub fn plan_llfi(
    module: &Module,
    profile: &LlfiProfile,
    cat: Category,
    rng: &mut impl Rng,
) -> Option<LlfiInjection> {
    plan_llfi_from(module, &profile.cumulative(module, cat), rng)
}

/// [`plan_llfi`] from a precomputed cumulative site table
/// ([`LlfiProfile::cumulative`]): the table depends only on (module,
/// profile, category), so a campaign hoists it out of its per-injection
/// planning loop. Consumes `rng` draws exactly as [`plan_llfi`] does.
pub fn plan_llfi_from(
    module: &Module,
    cum: &[(InstSite, u64)],
    rng: &mut impl Rng,
) -> Option<LlfiInjection> {
    let total = cum.last()?.1;
    let k = rng.gen_range(1..=total);
    let (site, instance) = locate(cum, k);
    let width = module.func(site.func).inst(site.inst).ty.size() as u32 * 8;
    let width = width.clamp(1, 64);
    // i1 destinations have exactly one bit.
    let width = if module.func(site.func).inst(site.inst).ty == fiq_ir::Type::i1() {
        1
    } else {
        width
    };
    let bit = rng.gen_range(0..width);
    Some(LlfiInjection {
        site,
        instance,
        bit,
    })
}

/// The injection + activation-tracking hook.
struct LlfiHook {
    site: InstSite,
    instance: u64,
    bit: u32,
    seen: u64,
    /// Frame in which the injected value currently lives (None once
    /// overwritten or not yet injected).
    live_frame: Option<u64>,
    injected: bool,
    activated: bool,
}

impl InterpHook for LlfiHook {
    fn on_result(&mut self, site: InstSite, frame: u64, val: &mut RtVal) {
        if site != self.site {
            return;
        }
        if !self.injected {
            self.seen += 1;
            if self.seen == self.instance {
                *val = val.with_bit_flipped(self.bit);
                self.injected = true;
                self.live_frame = Some(frame);
            }
            return;
        }
        // Re-execution of the target in the same invocation overwrites the
        // SSA slot: the fault is gone if it was never read.
        if self.live_frame == Some(frame) {
            self.live_frame = None;
        }
    }

    fn on_use(&mut self, def: InstSite, _consumer: InstSite, frame: u64) {
        if def == self.site && self.live_frame == Some(frame) {
            self.activated = true;
        }
    }

    /// Pre-injection the hook only acts on `on_result` at the target site
    /// (consumer `on_use` events need `live_frame`, which is still
    /// `None`), so it is inert until execution reaches the site. Once the
    /// verdict is settled (activation is monotone and checked before
    /// `live_frame` in the final classification), no future event can
    /// change anything the hook reports. In between, full instrumentation
    /// is required for activation/overwrite tracking.
    fn quiescence(&self) -> Quiescence<InstSite> {
        if !self.injected {
            Quiescence::UntilSite(self.site)
        } else if self.outcome_settled() {
            Quiescence::Forever
        } else {
            Quiescence::Active
        }
    }
}

impl LlfiHook {
    /// True once the run's eventual `activated` verdict can no longer
    /// change: the fault is in (injected) and is either already activated
    /// (the flag is monotone) or dead (overwritten slot — no future use
    /// can see it). Convergence checks are gated on this so an early exit
    /// freezes exactly the activation verdict the full run would report.
    fn outcome_settled(&self) -> bool {
        self.injected && (self.activated || self.live_frame.is_none())
    }
}

/// Runs one LLFI injection from the start of the program and
/// classifies the outcome; [`run_llfi_observed`] is the full form.
///
/// # Errors
///
/// Returns an error string if interpreter setup fails.
pub fn run_llfi(
    module: &Module,
    opts: InterpOptions,
    inj: LlfiInjection,
    golden_output: &str,
) -> Result<Outcome, String> {
    run_llfi_observed(
        module,
        opts,
        inj,
        golden_output,
        None,
        None,
        true,
        None,
        None,
        TaskTel::off(),
    )
    .map(|d| d.outcome)
}

/// One LLFI injection with every campaign option, returning the
/// outcome plus the faulty run's dynamic step count for per-injection
/// records. `tel` receives the step-attribution split (skipped /
/// executed / reconstructed), snapshot restore cost, convergence-compare
/// counts, and the fault's activation verdict. `decoded` lets the
/// campaign engine decode the module once per cell and share the table
/// across every injection run (`None` decodes inline).
///
/// When `snapshot` is given, the interpreter restores it and replays only
/// the tail instead of re-executing the golden prefix. The snapshot must
/// have been captured during this module's profiling run *strictly
/// before* the planned injection occurrence (i.e.
/// `snapshot.site_count(inj.site) < inj.instance`). Because pre-injection
/// hooks only observe, the restored run is bit-identical to a full run:
/// the hook's instance counter starts from the snapshot's count for the
/// target site and the step counter continues from the snapshot value.
///
/// When `golden` is given, the run additionally pauses at every golden
/// checkpoint step it crosses and — once the fault's activation verdict
/// is settled — compares its state against the checkpoint (digests first,
/// full byte compare on a digest match). An exact match proves the
/// remaining execution identical to golden, so the run returns
/// immediately with the outcome and reconstructed step count the full
/// run would have produced. Output is bit-identical with or without
/// `golden`; only wall-clock changes.
///
/// `early_exit` controls whether golden checkpoints are used for
/// convergence truncation; `timeline` (which requires `golden`)
/// additionally records a per-checkpoint divergence observation at every
/// post-injection pause. Observation is passive — the returned
/// [`InjectionRun`](crate::outcome::InjectionRun) and every `tel` counter
/// are byte-identical with `timeline` present or absent.
///
/// # Errors
///
/// Returns an error string if interpreter setup fails.
#[allow(clippy::too_many_arguments)]
pub fn run_llfi_observed(
    module: &Module,
    opts: InterpOptions,
    inj: LlfiInjection,
    golden_output: &str,
    snapshot: Option<&InterpSnapshot>,
    golden: Option<GoldenRef<'_, InterpSnapshot>>,
    early_exit: bool,
    timeline: Option<&mut Timeline>,
    decoded: Option<Arc<DecodedModule>>,
    tel: TaskTel<'_>,
) -> Result<crate::outcome::InjectionRun, String> {
    let seen = snapshot.map_or(0, |s| s.site_count(inj.site));
    debug_assert!(
        seen < inj.instance,
        "snapshot must precede the injection occurrence"
    );
    let hook = LlfiHook {
        site: inj.site,
        instance: inj.instance,
        bit: inj.bit,
        seen,
        live_frame: None,
        injected: false,
        activated: false,
    };
    let mut interp = match snapshot {
        Some(s) => {
            let t0 = tel.enabled().then(std::time::Instant::now);
            let interp = Interp::restore_with_decoded(module, decoded, opts, hook, s);
            if let Some(t0) = t0 {
                tel.hist(cell_hist::RESTORE_NS, t0.elapsed().as_nanos() as u64);
            }
            interp
        }
        None => Interp::with_decoded(module, decoded, opts, hook).map_err(|t| t.to_string())?,
    };

    let (result, early_exit) = drive_llfi(
        &mut interp,
        opts,
        golden_output,
        golden,
        early_exit,
        timeline,
        tel,
    );
    // Step attribution: what the record reports = steps skipped by the
    // fast-forward restore + steps actually executed + steps an early
    // exit reconstructed without executing.
    let skipped = interp.restored_steps();
    let executed = interp.steps() - skipped;
    let reconstructed = result.steps.saturating_sub(interp.steps());
    tel.count(cell_counter::STEPS_REPORTED, result.steps);
    tel.count(cell_counter::STEPS_SKIPPED_FF, skipped);
    tel.count(cell_counter::STEPS_EXECUTED, executed);
    tel.count(cell_counter::STEPS_RECONSTRUCTED_EE, reconstructed);
    tel.count(cell_counter::STEPS_QUIESCENT, interp.steps_quiescent());
    tel.hist(cell_hist::TASK_STEPS, result.steps);
    let hook = interp.into_hook();
    debug_assert!(
        hook.injected,
        "planned instance must be reached (deterministic prefix)"
    );
    let verdict = if hook.activated {
        cell_counter::VERDICT_ACTIVATED
    } else if hook.live_frame.is_none() {
        cell_counter::VERDICT_OVERWRITTEN
    } else {
        cell_counter::VERDICT_DORMANT
    };
    tel.count(verdict, 1);
    Ok(crate::outcome::InjectionRun {
        outcome: classify(result.status, &result.output, golden_output, hook.activated),
        steps: result.steps,
        early_exit,
    })
}

/// Runs the interpreter to completion, pausing at every golden checkpoint
/// it crosses to (a) record a divergence-timeline observation and (b)
/// early-exit at the first checkpoint whose state the faulty run has
/// provably converged to. Returns the (possibly reconstructed) result and
/// whether it came from an early exit.
fn drive_llfi(
    interp: &mut Interp<'_, LlfiHook>,
    opts: InterpOptions,
    golden_output: &str,
    golden: Option<GoldenRef<'_, InterpSnapshot>>,
    early_exit: bool,
    mut timeline: Option<&mut Timeline>,
    tel: TaskTel<'_>,
) -> (ExecResult, bool) {
    let Some(g) = golden else {
        return (interp.run(), false);
    };
    loop {
        // With convergence truncation off, pausing is only for timeline
        // observation; once the timeline closes (a clean entry proves the
        // suffix mirrors golden), the remaining run needs no pauses.
        if !early_exit && !timeline.as_ref().is_some_and(|t| t.open()) {
            return (interp.run(), false);
        }
        // First checkpoint not yet reached. Checkpoints at or below the
        // current step count can never compare equal again (the step
        // counter only grows), so each is considered at most once.
        let next = g.snapshots.partition_point(|s| s.steps() <= interp.steps());
        let Some(snap) = g.snapshots.get(next) else {
            // Past the last checkpoint: no convergence opportunities left.
            return (interp.run(), false);
        };
        if let Some(result) = interp.run_until(snap.steps()) {
            return (result, false); // ended before the checkpoint
        }
        // Observe before the early-exit machinery: recording is passive
        // (reads the paused state, consumes no RNG, touches none of the
        // counters below), so records and telemetry stay byte-identical
        // with the timeline on or off. Pre-injection pauses are skipped —
        // the run still equals golden there, which is also what makes
        // timelines identical with and without fast-forward.
        if interp.hook().injected {
            if let Some(tl) = timeline.as_mut().filter(|t| t.open()) {
                tl.record(next as u64, snap.steps(), interp.divergence_from(snap));
            }
        }
        if !early_exit {
            continue;
        }
        // Paused. A diverged run may overshoot the checkpoint's step count
        // inside an atomic φ-batch; then steps differ and the compare is
        // skipped (the partition_point above advances past it).
        if !interp.hook().outcome_settled() {
            tel.count(cell_counter::PAUSES_UNSETTLED, 1);
            continue;
        }
        tel.count(cell_counter::DIGEST_COMPARES, 1);
        if !interp.state_matches_digest(snap) {
            continue;
        }
        tel.count(cell_counter::DIGEST_MATCHES, 1);
        if interp.state_equals_snapshot(snap) {
            tel.count(cell_counter::CONVERGED, 1);
            tel.hist(cell_hist::EXIT_CHECKPOINT, next as u64);
            tel.hist(cell_hist::EXIT_STEP, interp.steps());
            // State identical to golden at this step ⇒ the remaining
            // execution mirrors golden exactly (deterministic guest).
            let remaining = g.golden_steps - snap.steps();
            let total = interp.steps() + remaining;
            if total <= opts.max_steps {
                // The mirrored suffix finishes within budget; its console
                // already matches golden at the checkpoint, so the final
                // output is exactly the golden output.
                return (
                    ExecResult {
                        status: ExecStatus::Finished,
                        steps: total,
                        output: golden_output.to_string(),
                    },
                    true,
                );
            }
            // The mirrored suffix is longer than the remaining budget:
            // the full run would exhaust it mid-suffix and classify as a
            // hang (steps stop at max_steps + 1).
            return (
                ExecResult {
                    status: ExecStatus::BudgetExceeded,
                    steps: opts.max_steps + 1,
                    output: String::new(), // unused: hangs ignore output
                },
                true,
            );
        }
    }
}
