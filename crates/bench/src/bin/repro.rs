//! `repro` — run any paper experiment by name without the bench harness:
//!
//! ```text
//! GOGGLES_SCALE=paper cargo run --release -p goggles-bench --bin repro -- table1
//! cargo run --release -p goggles-bench --bin repro -- all
//! ```
//!
//! Accepted names: `table1`, `table2`, `fig2`, `fig5`, `fig7`, `fig8`,
//! `fig9`, `all`. Results print as text tables and are saved as CSV under
//! `results/` (override with `GOGGLES_RESULTS_DIR`). Performance is
//! measured by the `perfbench` harness at the repo root, not here.

use goggles::experiments::{figures, table1, table2, Scale, TrialContext};
use goggles_bench::{emit, timed};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let known = ["table1", "table2", "fig2", "fig5", "fig7", "fig8", "fig9", "all"];
    if !known.contains(&what) {
        eprintln!("unknown experiment {what:?}; expected one of {known:?}");
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    let params = scale.params();
    println!("scale: {scale:?} → {params:?}\n");

    let run = |name: &str| what == name || what == "all";

    if run("table1") {
        let results = timed("Table 1", || table1::run(&params));
        emit(&results.to_table(), "table1");
    }
    if run("table2") {
        let results = timed("Table 2", || table2::run(&params));
        emit(&results.to_table(), "table2");
    }
    if run("fig7") {
        emit(&figures::figure7(&[0.7, 0.8, 0.9], 25), "figure7");
    }
    // The data-driven figures share one CUB context.
    if run("fig2") || run("fig5") || run("fig8") || run("fig9") {
        let tasks = params.tasks_for_trial(0);
        let ctx = timed("build CUB context", || TrialContext::build(&params, &tasks[0], 0));
        if run("fig2") {
            emit(&figures::figure2(&ctx, 10).to_table(), "figure2");
        }
        if run("fig5") {
            emit(&figures::figure5(&ctx), "figure5");
        }
        if run("fig8") {
            let series = figures::figure8(&ctx, &[0, 1, 2, 3, 4, 5, 8, 10], 0xF18);
            emit(
                &figures::sweep_table(
                    "Figure 8 (CUB): accuracy vs dev size per class",
                    "d",
                    &series,
                ),
                "figure8_cub",
            );
        }
        if run("fig9") {
            let series = figures::figure9(&ctx, &[1, 2, 5, 10, 20, 30, 50], 0xF19);
            emit(
                &figures::sweep_table(
                    "Figure 9 (CUB): accuracy vs number of affinity functions",
                    "alpha",
                    &series,
                ),
                "figure9_cub",
            );
        }
    }
}
