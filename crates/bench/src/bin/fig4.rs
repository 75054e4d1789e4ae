//! Regenerates **Figure 4**: SDC percentages (among activated faults) for
//! LLFI vs PINFI, per instruction category, with 95% confidence intervals
//! — subfigures (a) arithmetic, (b) cast, (c) cmp, (d) load, (e) all.

use fiq_bench::{cell, maybe_write_json, prepare_all, run_grid, ExperimentConfig};
use fiq_core::{wilson_ci95, Category};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let prepared = prepare_all(cfg.lower);
    let grid = run_grid(&prepared, &Category::ALL, &cfg);

    println!(
        "FIGURE 4: SDC results for LLFI and PINFI ({} injections/cell, seed {})",
        cfg.injections, cfg.seed
    );
    for (sub, cat) in [
        ("(a)", Category::Arithmetic),
        ("(b)", Category::Cast),
        ("(c)", Category::Cmp),
        ("(d)", Category::Load),
        ("(e)", Category::All),
    ] {
        println!();
        println!("{sub} {cat} instructions");
        println!(
            "    {:<12} {:>18} {:>18}   overlap?",
            "benchmark", "LLFI sdc% [95% CI]", "PINFI sdc% [95% CI]"
        );
        for (w, _) in &prepared {
            let l = &cell(&grid, w.name, "llfi", cat).report.counts;
            let r = &cell(&grid, w.name, "pinfi", cat).report.counts;
            if l.activated() == 0 && r.activated() == 0 {
                println!("    {:<12} (no candidates in this category)", w.name);
                continue;
            }
            let (llo, lhi) = wilson_ci95(l.sdc, l.activated());
            let (rlo, rhi) = wilson_ci95(r.sdc, r.activated());
            let overlap = llo <= rhi && rlo <= lhi;
            println!(
                "    {:<12} {:>5.1}% [{:>4.1},{:>5.1}] {:>5.1}% [{:>4.1},{:>5.1}]   {}",
                w.name,
                l.sdc_pct(),
                llo,
                lhi,
                r.sdc_pct(),
                rlo,
                rhi,
                if overlap { "yes ✓" } else { "NO" }
            );
        }
    }
    println!();
    println!("Paper finding: the LLFI-vs-PINFI SDC difference is within the");
    println!("confidence interval for most benchmark/category combinations.");

    // Summary statistic: fraction of cells whose CIs overlap.
    let mut total = 0;
    let mut agree = 0;
    for (w, _) in &prepared {
        for cat in Category::ALL {
            let l = &cell(&grid, w.name, "llfi", cat).report.counts;
            let r = &cell(&grid, w.name, "pinfi", cat).report.counts;
            if l.activated() == 0 || r.activated() == 0 {
                continue;
            }
            total += 1;
            let (llo, lhi) = wilson_ci95(l.sdc, l.activated());
            let (rlo, rhi) = wilson_ci95(r.sdc, r.activated());
            if llo <= rhi && rlo <= lhi {
                agree += 1;
            }
        }
    }
    println!("Measured: {agree}/{total} cells with overlapping SDC confidence intervals.");
    maybe_write_json(&cfg, &grid);
}
