//! Regenerates **Table IV**: runtime (dynamic) instruction counts of each
//! benchmark per injection category, for LLFI and PINFI.
//!
//! No injections are needed — this is a profiling-only experiment.

use fiq_bench::{prepare_all, ExperimentConfig};
use fiq_core::Category;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let prepared = prepare_all(cfg.lower);

    println!("TABLE IV: Runtime instructions of the benchmark programs for LLFI and PINFI");
    println!();
    println!(
        "{:<12} {:>12} {:>12} | {:>11} {:>11} | {:>9} {:>9} | {:>10} {:>10} | {:>11} {:>11}",
        "Program",
        "All/LLFI",
        "All/PINFI",
        "Arith/LLFI",
        "Arith/PIN",
        "Cast/LLFI",
        "Cast/PIN",
        "Cmp/LLFI",
        "Cmp/PIN",
        "Load/LLFI",
        "Load/PIN"
    );
    for (w, p) in &prepared {
        let l = |c| p.llfi.category_count(&p.module, c);
        let r = |c| p.pinfi.category_count(&p.program, c);
        let (la, ra) = (l(Category::All), r(Category::All));
        let pct = |x: u64, tot: u64| {
            if tot == 0 {
                0.0
            } else {
                100.0 * x as f64 / tot as f64
            }
        };
        println!(
            "{:<12} {:>12} {:>12} | {:>6} ({:>2.0}%) {:>6} ({:>2.0}%) | {:>4} ({:>2.0}%) {:>4} ({:>2.0}%) | {:>5} ({:>2.0}%) {:>5} ({:>2.0}%) | {:>6} ({:>2.0}%) {:>6} ({:>2.0}%)",
            w.name,
            la,
            ra,
            l(Category::Arithmetic),
            pct(l(Category::Arithmetic), la),
            r(Category::Arithmetic),
            pct(r(Category::Arithmetic), ra),
            l(Category::Cast),
            pct(l(Category::Cast), la),
            r(Category::Cast),
            pct(r(Category::Cast), ra),
            l(Category::Cmp),
            pct(l(Category::Cmp), la),
            r(Category::Cmp),
            pct(r(Category::Cmp), ra),
            l(Category::Load),
            pct(l(Category::Load), la),
            r(Category::Load),
            pct(r(Category::Load), ra),
        );
    }
    println!();
    println!("Paper shape checks:");
    let mut all_ok = 0;
    for (w, p) in &prepared {
        let la = p.llfi.category_count(&p.module, Category::All);
        let ra = p.pinfi.category_count(&p.program, Category::All);
        let ratio = la as f64 / ra as f64;
        let mark = if ratio > 1.0 { "✓" } else { "≈" };
        if ratio > 1.0 {
            all_ok += 1;
        }
        println!(
            "  {:<12} LLFI/PINFI 'all' ratio = {ratio:.2} {mark} (paper: 1.4–2.1)",
            w.name
        );
    }
    println!("  {all_ok}/6 benchmarks with LLFI > PINFI in 'all' (paper: 6/6)");
}
