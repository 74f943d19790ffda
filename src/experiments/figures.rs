//! The figure reproductions: affinity-score distributions (Fig 2), the
//! class-sorted affinity heatmap (Fig 5), the dev-set theory curve (Fig 7),
//! the dev-set size sweep (Fig 8) and the affinity-count sweep (Fig 9).

use super::report::Table;
use super::TrialContext;
use goggles_core::mapping::{apply_mapping, map_clusters_via_dev_set};
use goggles_core::{theory, translate_dev_to_rows, HierarchicalModel};
use goggles_datasets::DevSet;
use goggles_tensor::histogram;

/// Figure 2: same-class vs cross-class affinity-score histograms for the
/// best, median and worst affinity function (ranked by AUC), on one dataset.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// (function flat index, AUC) for best / median / worst.
    pub selected: Vec<(usize, f64)>,
    /// Histogram bins (shared edges over [lo, hi]).
    pub bins: usize,
    /// Low edge.
    pub lo: f64,
    /// High edge.
    pub hi: f64,
    /// Per selected function: (same-class histogram, cross-class histogram).
    pub histograms: Vec<(Vec<usize>, Vec<usize>)>,
}

/// Compute Figure 2 on a built trial context.
pub fn figure2(ctx: &TrialContext, bins: usize) -> Figure2 {
    let truth = ctx.train_truth();
    let mut ranked: Vec<(usize, f64)> = (0..ctx.affinity.alpha)
        .map(|f| (f, ctx.affinity.score_distribution(f, &truth).auc))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let picks =
        [0usize, ranked.len() / 2, ranked.len() - 1].map(|i| ranked[i.min(ranked.len() - 1)]);
    let (lo, hi) = (-1.0, 1.0);
    let histograms = picks
        .iter()
        .map(|&(f, _)| {
            let dist = ctx.affinity.score_distribution(f, &truth);
            (histogram(&dist.same_class, lo, hi, bins), histogram(&dist.cross_class, lo, hi, bins))
        })
        .collect();
    Figure2 { selected: picks.to_vec(), bins, lo, hi, histograms }
}

impl Figure2 {
    /// Render as a table: one row per bin, columns per selected function.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["bin".to_string()];
        for (i, (f, auc)) in self.selected.iter().enumerate() {
            let tag = ["best", "median", "worst"][i.min(2)];
            headers.push(format!("{tag} f{f} same (AUC {auc:.2})"));
            headers.push(format!("{tag} f{f} cross"));
        }
        let mut t = Table::new(
            "Figure 2: affinity score distributions (same vs cross class)",
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let w = (self.hi - self.lo) / self.bins as f64;
        for b in 0..self.bins {
            let mut row =
                vec![format!("{:.2}..{:.2}", self.lo + b as f64 * w, self.lo + (b + 1) as f64 * w)];
            for (same, cross) in &self.histograms {
                row.push(same[b].to_string());
                row.push(cross[b].to_string());
            }
            t.push_row(row);
        }
        t
    }
}

/// Figure 5: class-sorted block means of the same three functions.
pub fn figure5(ctx: &TrialContext) -> Table {
    let truth = ctx.train_truth();
    let fig2 = figure2(ctx, 10);
    let mut t = Table::new(
        "Figure 5: affinity matrix class-block means (rows/cols sorted by class)",
        &["function", "AUC", "mean(0,0)", "mean(0,1)", "mean(1,0)", "mean(1,1)"],
    );
    for &(f, auc) in &fig2.selected {
        let blocks = ctx.affinity.sorted_block_view(f, &truth, 2);
        t.push_row(vec![
            format!("f{f}"),
            format!("{auc:.3}"),
            format!("{:.3}", blocks[0][0]),
            format!("{:.3}", blocks[0][1]),
            format!("{:.3}", blocks[1][0]),
            format!("{:.3}", blocks[1][1]),
        ]);
    }
    t
}

/// Figure 7: theoretical P(correct mapping) vs dev-set size per class, for
/// several accuracy levels η (K = 2 as in the paper's plot).
pub fn figure7(etas: &[f64], max_d: usize) -> Table {
    let mut headers = vec!["d (per class)".to_string(), "m (total)".to_string()];
    headers.extend(etas.iter().map(|e| format!("η={e}")));
    let mut t = Table::new(
        "Figure 7: size of the development set needed (Theorem 1 lower bound, K=2)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for d in 1..=max_d {
        let mut row = vec![d.to_string(), (2 * d).to_string()];
        for &eta in etas {
            row.push(format!("{:.4}", theory::p_mapping_correct(eta, 2, d)));
        }
        t.push_row(row);
    }
    t
}

/// Figure 8: labeling accuracy vs dev-set size. The hierarchical model is
/// fit **once** per trial (it is unsupervised); only the cluster→class
/// mapping consumes the dev set, so the sweep rebinds the mapping per size.
/// Size 0 reports the expected accuracy under a uniformly random mapping,
/// matching the "no dev set" regime.
pub fn figure8(ctx: &TrialContext, sizes_per_class: &[usize], seed: u64) -> Vec<(usize, f64)> {
    // Reuse the pipeline's own inference configuration so the sweep varies
    // ONLY the dev-set size (the unsupervised fit is shared across sizes).
    let opts = ctx.goggles.hierarchical_options();
    let model = HierarchicalModel::fit(&ctx.affinity, &opts).expect("hierarchical fit");
    let max_size = sizes_per_class.iter().copied().max().unwrap_or(0);
    let max_dev = if max_size > 0 {
        let dev_global = ctx.dataset.sample_dev_set(
            max_size.min(ctx.dataset.train_indices.len() / ctx.dataset.num_classes / 2).max(1),
            seed,
        );
        translate_dev_to_rows(&ctx.dataset.train_indices, &dev_global).expect("dev in train block")
    } else {
        DevSet::empty()
    };
    let truth = ctx.train_truth();
    sizes_per_class
        .iter()
        .map(|&per_class| {
            if per_class == 0 {
                // Expected accuracy over all K! mappings, uniformly random.
                let k = ctx.dataset.num_classes;
                let perms = permutations(k);
                let mut acc = 0.0;
                for g in &perms {
                    let mapped = apply_mapping(&model.responsibilities, g);
                    let hard = goggles_models::hard_labels(&mapped);
                    acc += non_dev_accuracy(&hard, &truth, &[]);
                }
                return (0, acc / perms.len() as f64);
            }
            let dev = max_dev.truncated(per_class, ctx.dataset.num_classes);
            let g = map_clusters_via_dev_set(&model.responsibilities, &dev);
            let mapped = apply_mapping(&model.responsibilities, &g);
            let hard = goggles_models::hard_labels(&mapped);
            (per_class, non_dev_accuracy(&hard, &truth, &dev.indices))
        })
        .collect()
}

/// Figure 9: labeling accuracy vs number of affinity functions. The first
/// `count` functions of the library (layer-major order) are kept and the
/// hierarchical model is refit per count.
pub fn figure9(ctx: &TrialContext, counts: &[usize], _seed: u64) -> Vec<(usize, f64)> {
    let truth = ctx.train_truth();
    counts
        .iter()
        .map(|&count| {
            let keep: Vec<usize> = (0..count.clamp(1, ctx.affinity.alpha)).collect();
            let restricted = ctx.affinity.restrict_functions(&keep);
            let (labels, _, _) = ctx
                .goggles
                .infer_from_affinity(&restricted, &ctx.dev_rows)
                .expect("restricted inference");
            (keep.len(), non_dev_accuracy(&labels.hard_labels(), &truth, &ctx.dev_rows.indices))
        })
        .collect()
}

/// Accuracy over rows not in `exclude`.
fn non_dev_accuracy(hard: &[usize], truth: &[usize], exclude: &[usize]) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, (&p, &t)) in hard.iter().zip(truth).enumerate() {
        if exclude.contains(&i) {
            continue;
        }
        total += 1;
        if p == t {
            correct += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// All permutations of `0..k` (k is tiny: the number of classes).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut perm: Vec<usize> = (0..k).collect();
    heap_permute(&mut perm, k, &mut out);
    out
}

fn heap_permute(perm: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(perm.clone());
        return;
    }
    for i in 0..k {
        heap_permute(perm, k - 1, out);
        if k.is_multiple_of(2) {
            perm.swap(i, k - 1);
        } else {
            perm.swap(0, k - 1);
        }
    }
}

/// Render a sweep as a two-column table.
pub fn sweep_table(title: &str, x_name: &str, series: &[(usize, f64)]) -> Table {
    let mut t = Table::new(title, &[x_name, "accuracy (%)"]);
    for &(x, acc) in series {
        t.push_row(vec![x.to_string(), format!("{:.2}", 100.0 * acc)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunParams;

    fn ctx() -> TrialContext {
        let params = RunParams {
            n_train_per_class: 8,
            n_test_per_class: 2,
            image_size: 32,
            pairs: 1,
            trials: 1,
            dev_per_class: 2,
            top_z: 2,
            tiny_backbone: true,
        };
        let task = params.tasks_for_trial(0)[0]; // CUB
        TrialContext::build(&params, &task, 0)
    }

    #[test]
    fn figure2_ranks_best_above_worst() {
        let c = ctx();
        let fig = figure2(&c, 10);
        assert_eq!(fig.selected.len(), 3);
        assert!(fig.selected[0].1 >= fig.selected[1].1);
        assert!(fig.selected[1].1 >= fig.selected[2].1);
        // histogram mass equals pair count
        let n = c.dataset.train_indices.len();
        let same_class_pairs: usize = fig.histograms[0].0.iter().sum();
        let cross_pairs: usize = fig.histograms[0].1.iter().sum();
        assert_eq!(same_class_pairs + cross_pairs, n * (n - 1));
        let table = fig.to_table();
        assert_eq!(table.rows.len(), 10);
    }

    #[test]
    fn figure5_block_means_in_range() {
        let c = ctx();
        let t = figure5(&c);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn figure7_rows_and_monotonicity() {
        let t = figure7(&[0.7, 0.9], 10);
        assert_eq!(t.rows.len(), 10);
        // η=0.9 column should dominate η=0.7 at d=10
        let last = &t.rows[9];
        let p07: f64 = last[2].parse().unwrap();
        let p09: f64 = last[3].parse().unwrap();
        assert!(p09 > p07);
    }

    #[test]
    fn figure8_size_zero_is_chance_and_grows() {
        let c = ctx();
        let series = figure8(&c, &[0, 2, 4], 1);
        assert_eq!(series.len(), 3);
        // random-mapping expectation for K=2 is exactly 0.5
        assert!((series[0].1 - 0.5).abs() < 1e-9, "size-0 accuracy {}", series[0].1);
        assert!(series[2].1 >= series[0].1 - 0.05);
    }

    #[test]
    fn figure9_counts_clamped_to_alpha() {
        let c = ctx();
        let series = figure9(&c, &[1, 5, 100], 1);
        assert_eq!(series[2].0, c.affinity.alpha);
        for &(_, acc) in &series {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn permutations_count_is_factorial() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(1), vec![vec![0]]);
    }
}
