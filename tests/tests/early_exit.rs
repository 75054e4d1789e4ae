//! Golden-state convergence detection (early exit) must be invisible in
//! every observable output: per-injection outcomes and step counts, cell
//! reports, and the JSONL record stream are bit-identical with the
//! optimization on or off, at every thread count and snapshot interval,
//! composed or not with checkpointed fast-forward. On top of that
//! equivalence sweep, targeted soundness properties: a fault that is
//! still unread never triggers an early exit (the activation verdict is
//! not settled), while a masked-and-overwritten fault converges and
//! exits early as Benign.

use fiq_asm::{MachOptions, RegId};
use fiq_backend::LowerOptions;
use fiq_core::{
    injection_dest, profile_llfi, profile_llfi_with_snapshots, profile_pinfi,
    profile_pinfi_with_snapshots, run_campaign, run_llfi_observed, run_pinfi_observed,
    CampaignConfig, Category, CellSpec, EngineOptions, GoldenRef, LlfiInjection, Outcome,
    PinfiInjection, SnapshotCache, Substrate, TaskTel,
};
use fiq_interp::InterpOptions;
use std::path::PathBuf;
use std::sync::Arc;

/// The sweep kernel mixes fault fates: `late` holds a loaded value unread
/// until the very end (an early-exit here would be unsound — the fault is
/// dormant, not benign), while `t` is masked to one bit and overwritten
/// every iteration (most flips are benign and the state provably
/// reconverges to golden within one iteration).
const SWEEP_KERNEL: &str = "
int a[8];
int main() {
  for (int i = 0; i < 8; i += 1) a[i] = i * 9 + 9;
  int late = a[3];
  int s = 0;
  int seed = 7;
  for (int i = 0; i < 300; i += 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    int t = seed * 3;
    s += t & 1;
  }
  print_i64(s);
  print_i64(late);
  return 0;
}";

fn compiled(source: &str) -> (fiq_ir::Module, fiq_asm::AsmProgram) {
    let mut m = fiq_frontend::compile("kernel", source).expect("compiles");
    fiq_opt::optimize_module(&mut m);
    let p = fiq_backend::lower_module(&m, LowerOptions::default()).expect("lowers");
    (m, p)
}

/// Per-site (first, last) dynamic instances from a cumulative
/// distribution — the sweep probes both the shallow and the deep end of
/// every site's lifetime.
fn instance_pairs<T: Copy>(cum: &[(T, u64)]) -> Vec<(usize, Vec<u64>)> {
    let mut out = Vec::new();
    let mut prev = 0;
    for (i, &(_, c)) in cum.iter().enumerate() {
        let count = c - prev;
        prev = c;
        let mut insts = vec![1];
        if count > 1 {
            insts.push(count);
        }
        out.push((i, insts));
    }
    out
}

/// Checks one LLFI injection both ways and returns the shared
/// (outcome, early_exit-with-golden) pair.
fn check_llfi(
    m: &fiq_ir::Module,
    opts: InterpOptions,
    inj: LlfiInjection,
    golden_output: &str,
    golden: GoldenRef<'_, fiq_interp::InterpSnapshot>,
) -> (Outcome, bool) {
    let base = run_llfi_observed(
        m,
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
    .unwrap();
    let fast = run_llfi_observed(
        m,
        opts,
        inj,
        golden_output,
        None,
        Some(golden),
        true,
        None,
        None,
        TaskTel::off(),
    )
    .unwrap();
    assert_eq!(fast.outcome, base.outcome, "{inj:?}: outcome must match");
    assert_eq!(fast.steps, base.steps, "{inj:?}: steps must match");
    assert!(!base.early_exit, "no golden ref ⇒ no early exit");
    (fast.outcome, fast.early_exit)
}

/// Early exit is only ever taken once the run provably mirrors golden, so
/// it can never surface as a divergent outcome.
fn assert_exit_outcome_sound(outcome: Outcome, early_exit: bool) {
    if early_exit {
        assert!(
            matches!(
                outcome,
                Outcome::Benign | Outcome::NotActivated | Outcome::Hang
            ),
            "early exit produced {outcome:?}: a converged run cannot be SDC or Crash"
        );
    }
}

#[test]
fn llfi_sweep_is_equivalent_and_sound() {
    let (m, _) = compiled(SWEEP_KERNEL);
    let opts = InterpOptions::default();
    let (lp, snaps) = profile_llfi_with_snapshots(&m, opts, 50).unwrap();
    let golden = GoldenRef {
        snapshots: &snaps,
        golden_steps: lp.golden_steps,
    };

    let mut benign_exits = 0;
    let mut sdc_runs = 0;
    for cat in [Category::Arithmetic, Category::Load] {
        let cum = lp.cumulative(&m, cat);
        for (pos, instances) in instance_pairs(&cum) {
            let site = cum[pos].0;
            for instance in instances {
                for bit in [0u32, 7] {
                    let inj = LlfiInjection {
                        site,
                        instance,
                        bit,
                    };
                    let (outcome, early) = check_llfi(&m, opts, inj, &lp.golden_output, golden);
                    assert_exit_outcome_sound(outcome, early);
                    match outcome {
                        Outcome::Benign | Outcome::NotActivated if early => benign_exits += 1,
                        // The corrupted value was read later (or output
                        // already differs): convergence never fired.
                        Outcome::Sdc => sdc_runs += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(benign_exits > 0, "sweep must exercise benign early exits");
    assert!(sdc_runs > 0, "sweep must exercise SDC (read-later) faults");
}

#[test]
fn llfi_sweep_is_equivalent_under_tight_budgets() {
    // A budget below the golden step count turns most runs into hangs;
    // the reconstruction arm that projects past the budget must report
    // exactly what the full run would (steps = max_steps + 1).
    let (m, _) = compiled(SWEEP_KERNEL);
    let profile_opts = InterpOptions::default();
    let (lp, snaps) = profile_llfi_with_snapshots(&m, profile_opts, 50).unwrap();
    let golden = GoldenRef {
        snapshots: &snaps,
        golden_steps: lp.golden_steps,
    };
    for max_steps in [lp.golden_steps / 2, lp.golden_steps - 1] {
        let opts = InterpOptions {
            max_steps,
            ..InterpOptions::default()
        };
        let cum = lp.cumulative(&m, Category::Arithmetic);
        for (pos, _) in instance_pairs(&cum) {
            let site = cum[pos].0;
            // Only inject into sites the truncated run provably reaches
            // (their first execution shows up in a snapshot within
            // budget); injecting past the budget is a caller-contract
            // violation, not the property under test.
            let reached = snaps
                .iter()
                .rev()
                .find(|s| s.steps() <= max_steps)
                .is_some_and(|s| s.site_count(site) >= 1);
            if !reached {
                continue;
            }
            let inj = LlfiInjection {
                site,
                instance: 1,
                bit: 3,
            };
            let base = run_llfi_observed(
                &m,
                opts,
                inj,
                &lp.golden_output,
                None,
                None,
                true,
                None,
                None,
                TaskTel::off(),
            );
            let fast = run_llfi_observed(
                &m,
                opts,
                inj,
                &lp.golden_output,
                None,
                Some(golden),
                true,
                None,
                None,
                TaskTel::off(),
            );
            match (base, fast) {
                (Ok(b), Ok(f)) => {
                    assert_eq!(f.outcome, b.outcome, "{inj:?} at budget {max_steps}");
                    assert_eq!(f.steps, b.steps, "{inj:?} at budget {max_steps}");
                }
                (b, f) => panic!("divergent errors: {b:?} vs {f:?}"),
            }
        }
    }
}

#[test]
fn pinfi_sweep_is_equivalent_and_sound() {
    let (_m, p) = compiled(SWEEP_KERNEL);
    let opts = MachOptions::default();
    let (pp, snaps) = profile_pinfi_with_snapshots(&p, opts, 80).unwrap();
    let golden = GoldenRef {
        snapshots: &snaps,
        golden_steps: pp.golden_steps,
    };

    let mut benign_exits = 0;
    let mut sdc_runs = 0;
    for cat in [Category::Arithmetic, Category::Load] {
        let cum = pp.cumulative(&p, cat);
        for (pos, instances) in instance_pairs(&cum) {
            let idx = cum[pos].0;
            let dest = injection_dest(&p, idx).expect("candidates have destinations");
            // One low and one mid bit that the destination kind accepts.
            let bits: Vec<u32> = match dest {
                RegId::Flags(mask) => vec![mask.trailing_zeros()],
                RegId::Gpr(_) | RegId::Xmm(_) => vec![0, 7],
            };
            for instance in instances {
                for &bit in &bits {
                    let inj = PinfiInjection {
                        idx,
                        instance,
                        dest,
                        bit,
                    };
                    let base = run_pinfi_observed(
                        &p,
                        opts,
                        inj,
                        &pp.golden_output,
                        None,
                        None,
                        true,
                        None,
                        None,
                        TaskTel::off(),
                    )
                    .unwrap();
                    let fast = run_pinfi_observed(
                        &p,
                        opts,
                        inj,
                        &pp.golden_output,
                        None,
                        Some(golden),
                        true,
                        None,
                        None,
                        TaskTel::off(),
                    )
                    .unwrap();
                    assert_eq!(fast.outcome, base.outcome, "{inj:?}");
                    assert_eq!(fast.steps, base.steps, "{inj:?}");
                    assert!(!base.early_exit);
                    assert_exit_outcome_sound(fast.outcome, fast.early_exit);
                    match fast.outcome {
                        Outcome::Benign | Outcome::NotActivated if fast.early_exit => {
                            benign_exits += 1;
                        }
                        Outcome::Sdc => sdc_runs += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(benign_exits > 0, "sweep must exercise benign early exits");
    assert!(sdc_runs > 0, "sweep must exercise SDC faults");
}

/// A campaign kernel dominated by masked loads: most `load` injections are
/// benign and reconverge within one iteration, so early exit fires often —
/// and must still leave every byte of output unchanged.
const CAMPAIGN_KERNEL: &str = "
int vals[64];
int main() {
  int seed = 3;
  for (int i = 0; i < 64; i += 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    vals[i] = seed;
  }
  int s = 0;
  for (int r = 0; r < 40; r += 1) {
    for (int i = 0; i < 64; i += 1) {
      s += vals[i] & 1;
    }
  }
  print_i64(s);
  return 0;
}";

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fiq-ee-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn early_exit_is_byte_identical_to_full_execution() {
    let (m, p) = compiled(CAMPAIGN_KERNEL);
    let lp = profile_llfi(&m, InterpOptions::default()).unwrap();
    let pp = profile_pinfi(&p, MachOptions::default()).unwrap();

    let cells = |snaps: Option<&(Arc<SnapshotCache>, Arc<SnapshotCache>)>| {
        let mut v = Vec::new();
        for cat in [Category::Arithmetic, Category::Load] {
            v.push(CellSpec {
                label: "kernel".into(),
                category: cat,
                substrate: Substrate::Llfi {
                    module: &m,
                    profile: &lp,
                },
                snapshots: snaps.map(|(l, _)| Arc::clone(l)),
            });
            v.push(CellSpec {
                label: "kernel".into(),
                category: cat,
                substrate: Substrate::Pinfi {
                    prog: &p,
                    profile: &pp,
                },
                snapshots: snaps.map(|(_, r)| Arc::clone(r)),
            });
        }
        v
    };
    let config = |threads: usize| CampaignConfig {
        injections: 20,
        seed: 77,
        threads,
        ..CampaignConfig::default()
    };

    // Baseline: no snapshots, no optimizations, single-threaded.
    let base_path = temp_path("base.jsonl");
    let base = run_campaign(
        &cells(None),
        &config(1),
        &EngineOptions {
            records: Some(&base_path),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(base.early_exited_tasks, 0);
    let base_stream = std::fs::read_to_string(&base_path).unwrap();
    std::fs::remove_file(&base_path).unwrap();

    for interval in [7u64, 97] {
        let (_, ls) = profile_llfi_with_snapshots(&m, InterpOptions::default(), interval).unwrap();
        let (_, ps) = profile_pinfi_with_snapshots(&p, MachOptions::default(), interval).unwrap();
        let snaps = (
            Arc::new(SnapshotCache::Llfi(ls)),
            Arc::new(SnapshotCache::Pinfi(ps)),
        );
        for threads in [1usize, 4] {
            for fast_forward in [false, true] {
                let path = temp_path(&format!("ee-i{interval}-t{threads}-ff{fast_forward}.jsonl"));
                let run = run_campaign(
                    &cells(Some(&snaps)),
                    &config(threads),
                    &EngineOptions {
                        records: Some(&path),
                        fast_forward,
                        early_exit: true,
                        ..EngineOptions::default()
                    },
                )
                .unwrap();
                let tag = format!("interval {interval}, {threads} threads, ff {fast_forward}");
                assert_eq!(run.cells, base.cells, "{tag}: reports must match");
                assert_eq!(
                    std::fs::read_to_string(&path).unwrap(),
                    base_stream,
                    "{tag}: record stream must be byte-identical"
                );
                assert!(
                    run.early_exited_tasks > 0,
                    "{tag}: the masked-load campaign must actually early-exit"
                );
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
