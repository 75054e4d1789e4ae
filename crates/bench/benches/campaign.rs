//! Campaign-engine throughput: how fast the shared work-stealing pool
//! drains a multi-cell campaign, at one worker versus all cores, with
//! the per-injection JSONL record stream on versus off, with
//! checkpointed fast-forward on versus off, and with golden-state
//! convergence detection (early exit) on versus off.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fiq_backend::LowerOptions;
use fiq_core::{
    prepare_program, run_campaign, CampaignConfig, Category, EngineOptions, PreparedProgram,
};

const KERNEL: &str = "
int data[64];
int main() {
  for (int i = 0; i < 64; i += 1) data[i] = i * 31 + 7;
  int s = 0;
  for (int r = 0; r < 4; r += 1)
    for (int i = 0; i < 64; i += 1)
      s += data[i] & (r + 255);
  print_i64(s);
  return 0;
}";

const INJECTIONS: u32 = 40;

/// Compiles, optimizes and prepares a kernel; kernels shorter than
/// `fiq_core::CHECKPOINT_MIN_STEPS` get no checkpoints.
fn prepare(name: &str, source: &str) -> PreparedProgram {
    let mut module = fiq_frontend::compile(name, source).unwrap();
    fiq_opt::optimize_module(&mut module);
    prepare_program(module, LowerOptions::default(), false).unwrap()
}

fn bench_campaign(c: &mut Criterion) {
    let p = prepare("kernel", KERNEL);
    let cats = [Category::Arithmetic, Category::Cmp, Category::Load];
    let cells: Vec<_> = cats.iter().flat_map(|&c| p.cells("kernel", c)).collect();
    let total = INJECTIONS as u64 * cells.len() as u64;

    let mut g = c.benchmark_group("campaign-engine");
    g.throughput(Throughput::Elements(total));
    // Resolve each thread setting to its worker count up front and dedupe:
    // on a single-core host `threads: 0` (all cores) also resolves to one
    // worker, and without the dedupe the same benchmark was emitted twice
    // under two labels ("…/1 worker" and "…/1 workers").
    let mut seen_workers = Vec::new();
    for threads in [1usize, 0] {
        let cfg = CampaignConfig {
            injections: INJECTIONS,
            seed: 7,
            threads,
            ..CampaignConfig::default()
        };
        let workers = cfg.worker_count();
        if seen_workers.contains(&workers) {
            continue;
        }
        seen_workers.push(workers);
        let name = format!(
            "grid 6 cells/{workers} worker{}",
            if workers == 1 { "" } else { "s" }
        );
        g.bench_function(name, |b| {
            b.iter(|| run_campaign(&cells, &cfg, &EngineOptions::default()).unwrap())
        });
    }
    let cfg = CampaignConfig {
        injections: INJECTIONS,
        seed: 7,
        threads: 0,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join("fiq-campaign-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let records = dir.join("records.jsonl");
    g.bench_function("grid 6 cells + jsonl records", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                records: Some(&records),
                ..EngineOptions::default()
            };
            run_campaign(&cells, &cfg, &opts).unwrap()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The workload where golden-prefix replay hurts most: a long store-free
/// prefix followed by a short load-only tail, so every `load`-category
/// injection lands in the final ~1% of the run and full replay spends
/// ~99% of its time re-deriving state a checkpoint already holds.
const TAIL_KERNEL: &str = "
int data[256];
int main() {
  int s = 7;
  for (int r = 0; r < 20000; r += 1)
    s = (s * 1103515245 + 12345) & 2147483647;
  for (int i = 0; i < 256; i += 1) data[i] = (s >> (i & 15)) & 255;
  int t = 0;
  for (int i = 0; i < 256; i += 1) t += data[i];
  print_i64(s + t);
  return 0;
}";

fn bench_fast_forward(c: &mut Criterion) {
    bench_optimization_grid(c, "fast-forward", "tail-kernel", TAIL_KERNEL);
}

/// The workload where convergence detection helps most: every
/// `load`-category injection lands in the first ~3% of the run and is
/// masked to one bit before use, so ~63/64 faults are benign, the
/// corrupted slot is overwritten on the next iteration, and the long
/// store-free tail — which full execution re-derives fault-free — is
/// provably identical to golden from the first checkpoint onward.
const EARLY_KERNEL: &str = "
int data[64];
int main() {
  for (int i = 0; i < 64; i += 1) data[i] = i * 31 + 7;
  int s = 0;
  for (int i = 0; i < 64; i += 1) s += data[i] & 1;
  for (int r = 0; r < 20000; r += 1) s = (s * 1103515245 + 12345) & 2147483647;
  print_i64(s);
  return 0;
}";

/// The composition workload: a long fault-free prefix (fast-forward skips
/// it), masked loads in the middle, and a long benign tail (early exit
/// skips it). Either optimization alone halves the work; both together
/// reduce each injection to a short window around the fault.
const COMBO_KERNEL: &str = "
int data[64];
int main() {
  int s = 7;
  for (int r = 0; r < 10000; r += 1) s = (s * 1103515245 + 12345) & 2147483647;
  for (int i = 0; i < 64; i += 1) data[i] = s + i * 17;
  int t = 0;
  for (int i = 0; i < 64; i += 1) t += data[i] & 1;
  for (int r = 0; r < 10000; r += 1) s = (s * 1103515245 + 12345) & 2147483647;
  print_i64(s + t);
  return 0;
}";

/// Benchmarks one kernel's `load`-category campaign under all four
/// combinations of fast-forward × early-exit, over the same
/// checkpointed cells (both off replays every task in full).
fn bench_optimization_grid(c: &mut Criterion, group: &str, name: &str, source: &str) {
    let p = prepare(name, source);
    let cells = p.cells(name, Category::Load);
    let cfg = CampaignConfig {
        injections: 20,
        seed: 7,
        threads: 1,
        ..CampaignConfig::default()
    };

    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(cfg.injections as u64 * 2));
    for (label, fast_forward, early_exit) in [
        ("full-replay", false, false),
        ("fast-forward", true, false),
        ("early-exit", false, true),
        ("both", true, true),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let opts = EngineOptions {
                    fast_forward,
                    early_exit,
                    ..EngineOptions::default()
                };
                run_campaign(&cells, &cfg, &opts).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_early_exit(c: &mut Criterion) {
    bench_optimization_grid(c, "early-exit", "early-kernel", EARLY_KERNEL);
}

fn bench_combined(c: &mut Criterion) {
    bench_optimization_grid(c, "combined", "combo-kernel", COMBO_KERNEL);
}

criterion_group!(
    benches,
    bench_campaign,
    bench_fast_forward,
    bench_early_exit,
    bench_combined
);
criterion_main!(benches);
