//! Regenerates **Table V**: crash percentages of the benchmark programs
//! for LLFI and PINFI, per instruction category.

use fiq_bench::{cell, maybe_write_json, prepare_all, run_grid, ExperimentConfig};
use fiq_core::Category;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let prepared = prepare_all(cfg.lower);
    let grid = run_grid(&prepared, &Category::ALL, &cfg);

    println!(
        "TABLE V: Crash percentage of the benchmark programs for LLFI and PINFI \
         ({} injections/cell, seed {})",
        cfg.injections, cfg.seed
    );
    println!();
    println!(
        "{:<12} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}",
        "", "All", "", "arith", "", "Cast", "", "Cmp", "", "Load", ""
    );
    println!(
        "{:<12} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}",
        "Programs",
        "LLFI",
        "PINFI",
        "LLFI",
        "PINFI",
        "LLFI",
        "PINFI",
        "LLFI",
        "PINFI",
        "LLFI",
        "PINFI"
    );
    for (w, _) in &prepared {
        let pct = |tool: &str, cat: Category| -> String {
            let c = &cell(&grid, w.name, tool, cat).report.counts;
            if c.activated() == 0 {
                "-".to_string()
            } else {
                format!("{:.0}%", c.crash_pct())
            }
        };
        println!(
            "{:<12} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5}",
            w.name,
            pct("llfi", Category::All),
            pct("pinfi", Category::All),
            pct("llfi", Category::Arithmetic),
            pct("pinfi", Category::Arithmetic),
            pct("llfi", Category::Cast),
            pct("pinfi", Category::Cast),
            pct("llfi", Category::Cmp),
            pct("pinfi", Category::Cmp),
            pct("llfi", Category::Load),
            pct("pinfi", Category::Load),
        );
    }
    println!();
    // Maximum divergence per category, the paper's headline numbers
    // (17% all / 40% arithmetic / 32% cast / 21% load; cmp similar).
    println!("Maximum LLFI-vs-PINFI crash divergence per category:");
    for cat in Category::ALL {
        let mut max_diff = 0.0f64;
        let mut at = "";
        for (w, _) in &prepared {
            let l = &cell(&grid, w.name, "llfi", cat).report.counts;
            let r = &cell(&grid, w.name, "pinfi", cat).report.counts;
            if l.activated() == 0 || r.activated() == 0 {
                continue;
            }
            let d = (l.crash_pct() - r.crash_pct()).abs();
            if d > max_diff {
                max_diff = d;
                at = w.name;
            }
        }
        println!("  {cat:<11} {max_diff:>5.1} points (at {at})");
    }
    println!();
    println!("Paper: max differences — 17% (all, ocean), 40% (arithmetic, bzip2),");
    println!("32% (cast, hmmer), 21% (load, hmmer); cmp similar for both tools.");
    maybe_write_json(&cfg, &grid);
}
