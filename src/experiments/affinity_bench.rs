//! Affinity-kernel benchmark: single-row latency (m = 1, the online serving
//! case) and batch build throughput of the register-tiled fused matmul +
//! column-max path (`goggles_tensor::colmax_matmul_panel_f32`) versus the
//! pre-blocking scalar reference (`PrototypeBank::affinity_rows_reference`)
//! at identical geometry.
//!
//! Not a paper artifact — Equation 2 is the paper's math either way — but
//! the direct quantification of what blocking buys on `fill_row`, the
//! serving hot path.

use super::report::Table;
use super::RunParams;
use goggles_core::prototypes::embed_images;
use goggles_core::{Goggles, PrototypeBank};
use goggles_datasets::{generate, TaskConfig, TaskKind};
use std::hint::black_box;
use std::time::Instant;

/// Everything one affinity-kernel benchmark run measured.
#[derive(Debug, Clone)]
pub struct AffinityBenchReport {
    /// Stored training images `N` in the prototype bank.
    pub n_train: usize,
    /// Affinity functions `α = layers · Z`.
    pub alpha: usize,
    /// Thread budget of the batch measurements.
    pub threads: usize,
    /// Median latency of one `1 × αN` row on the scalar reference path, ms.
    pub single_naive_ms: f64,
    /// Median latency of one row on the blocked kernel, 1 thread, ms.
    pub single_blocked_1t_ms: f64,
    /// Full-batch (`m = N`) build wall-clock on the reference path, seconds.
    pub batch_naive_s: f64,
    /// Full-batch build wall-clock on the blocked path with `threads`,
    /// seconds.
    pub batch_blocked_s: f64,
    /// Largest elementwise disagreement between the two paths over the full
    /// batch (must stay within the 1e-5 kernel tolerance).
    pub max_abs_diff: f64,
}

impl AffinityBenchReport {
    /// Single-request speedup of the blocked path over the scalar
    /// reference (the acceptance number: ≥ 2×).
    pub fn single_speedup(&self) -> f64 {
        if self.single_blocked_1t_ms <= 0.0 {
            return 0.0;
        }
        self.single_naive_ms / self.single_blocked_1t_ms
    }

    /// Batch-build speedup of the blocked path over the scalar reference.
    pub fn batch_speedup(&self) -> f64 {
        if self.batch_blocked_s <= 0.0 {
            return 0.0;
        }
        self.batch_naive_s / self.batch_blocked_s
    }

    /// Rows per second of the blocked full-batch build.
    pub fn batch_rows_per_s(&self) -> f64 {
        if self.batch_blocked_s <= 0.0 {
            return 0.0;
        }
        self.n_train as f64 / self.batch_blocked_s
    }

    /// Text table for the bench harness.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Affinity hot path: blocked kernel vs scalar reference",
            &["metric", "value"],
        );
        let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
        row("bank size (N)", format!("{}", self.n_train));
        row("affinity functions (alpha)", format!("{}", self.alpha));
        row("thread budget", format!("{}", self.threads));
        row("single row, scalar reference", format!("{:.3} ms", self.single_naive_ms));
        row("single row, blocked 1 thread", format!("{:.3} ms", self.single_blocked_1t_ms));
        row("single-row speedup vs reference", format!("{:.1}×", self.single_speedup()));
        row("batch build, scalar reference", format!("{:.3} s", self.batch_naive_s));
        row("batch build, blocked", format!("{:.3} s", self.batch_blocked_s));
        row("batch speedup vs reference", format!("{:.1}×", self.batch_speedup()));
        row("batch throughput", format!("{:.0} rows/s", self.batch_rows_per_s()));
        row("max |blocked - reference|", format!("{:.2e}", self.max_abs_diff));
        t
    }

    /// Hand-rolled JSON summary (the `BENCH_affinity.json` artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"n_train\": {},\n  \"alpha\": {},\n  \"threads\": {},\n  \
             \"single_naive_ms\": {:.4},\n  \"single_blocked_1t_ms\": {:.4},\n  \
             \"single_speedup\": {:.2},\n  \
             \"batch_naive_s\": {:.6},\n  \"batch_blocked_s\": {:.6},\n  \
             \"batch_speedup\": {:.2},\n  \"batch_rows_per_s\": {:.1},\n  \
             \"max_abs_diff\": {:.3e}\n}}\n",
            self.n_train,
            self.alpha,
            self.threads,
            self.single_naive_ms,
            self.single_blocked_1t_ms,
            self.single_speedup(),
            self.batch_naive_s,
            self.batch_blocked_s,
            self.batch_speedup(),
            self.batch_rows_per_s(),
            self.max_abs_diff,
        )
    }

    /// Write the JSON artifact.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Median wall-clock of `reps` calls to `f`, in milliseconds (one warmup
/// call excluded).
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Run the affinity-kernel benchmark at the given scale parameters.
pub fn run(params: &RunParams) -> AffinityBenchReport {
    let seed = 17u64;
    let mut task = TaskConfig::new(
        TaskKind::Cub { class_a: 0, class_b: 1 },
        params.n_train_per_class,
        params.n_test_per_class.max(4),
        seed,
    );
    task.image_size = params.image_size;
    let ds = generate(&task);
    let config = params.goggles_config(seed);
    let goggles = Goggles::new(config.clone());
    let images = ds.train_images();
    let embeddings = embed_images(
        goggles.backbone(),
        &images,
        config.top_z,
        config.threads,
        config.center_patches,
    );
    let bank = PrototypeBank::from_embeddings(&embeddings);
    let threads = config.threads;

    // Correctness cross-check before timing anything.
    let reference = bank.affinity_rows_reference(&embeddings);
    let blocked = bank.affinity_rows(&embeddings, threads);
    let max_abs_diff = blocked.max_abs_diff(&reference);

    let query = &embeddings[..1];
    let reps = 15;
    let single_naive_ms = median_ms(reps, || bank.affinity_rows_reference(query));
    let single_blocked_1t_ms = median_ms(reps, || bank.affinity_rows(query, 1));

    let batch_naive_s = median_ms(3, || bank.affinity_rows_reference(&embeddings)) / 1e3;
    let batch_blocked_s = median_ms(3, || bank.affinity_rows(&embeddings, threads)) / 1e3;

    AffinityBenchReport {
        n_train: bank.n,
        alpha: bank.alpha(),
        threads,
        single_naive_ms,
        single_blocked_1t_ms,
        batch_naive_s,
        batch_blocked_s,
        max_abs_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_balanced_and_complete() {
        let report = AffinityBenchReport {
            n_train: 48,
            alpha: 30,
            threads: 4,
            single_naive_ms: 2.0,
            single_blocked_1t_ms: 0.4,
            batch_naive_s: 0.096,
            batch_blocked_s: 0.024,
            max_abs_diff: 3e-7,
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "n_train",
            "alpha",
            "threads",
            "single_naive_ms",
            "single_blocked_1t_ms",
            "single_speedup",
            "batch_speedup",
            "batch_rows_per_s",
            "max_abs_diff",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!((report.single_speedup() - 5.0).abs() < 1e-9);
        assert!((report.batch_speedup() - 4.0).abs() < 1e-9);
        assert!((report.batch_rows_per_s() - 2000.0).abs() < 1e-6);
        assert!(report.to_table().render().contains("rows/s"));
    }

    #[test]
    fn degenerate_timings_do_not_divide_by_zero() {
        let report = AffinityBenchReport {
            n_train: 1,
            alpha: 1,
            threads: 1,
            single_naive_ms: 0.0,
            single_blocked_1t_ms: 0.0,
            batch_naive_s: 0.0,
            batch_blocked_s: 0.0,
            max_abs_diff: 0.0,
        };
        assert_eq!(report.single_speedup(), 0.0);
        assert_eq!(report.batch_speedup(), 0.0);
        assert_eq!(report.batch_rows_per_s(), 0.0);
    }

    #[test]
    fn median_ms_is_positive_and_finite() {
        let v = median_ms(3, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(v.is_finite() && v >= 0.0);
    }
}
