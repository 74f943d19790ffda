//! Snorkel-style generative label model (Ratner et al., VLDB 2018).
//!
//! Each labeling function `j` is modeled by a full class-conditional vote
//! distribution `θ_j[y][v] = P(LF_j emits v | true class y)` over
//! `v ∈ {abstain, 0, …, K−1}`, assuming conditional independence of LFs
//! given the class. This is the natural-parameter version of Snorkel's
//! independent model and — crucially — keeps abstention class-*dependent*:
//! for unipolar LFs (which only ever vote one class, like attribute
//! annotations) the signal is in *when they fire*, not what they say.
//! A class-independent-abstain model has a degenerate "everything is class
//! k" optimum on such LFs; this parameterization does not.
//!
//! EM is initialized from the majority-vote posterior, which anchors
//! cluster identities to the classes the votes name. "Based on the
//! agreements and disagreements of labels provided by a set of LFs,
//! Snorkel/Snuba then infer the accuracy of different LFs as well as the
//! final probabilistic label for every instance" (§1 of the paper).

use crate::lf::{LabelMatrix, ABSTAIN};
use crate::Result;
use goggles_tensor::{log_sum_exp, Matrix};

/// Dirichlet smoothing mass added to every vote-count cell in the M-step.
const SMOOTHING: f64 = 0.2;

/// Fitted generative label model.
#[derive(Debug, Clone)]
pub struct SnorkelModel {
    /// Class priors π.
    pub class_priors: Vec<f64>,
    /// Per-LF conditional vote tables: `thetas[j]` is `K × (K+1)`
    /// row-stochastic, column 0 = abstain, column `1+c` = vote for class c.
    pub thetas: Vec<Matrix<f64>>,
    /// Probabilistic training labels, `n × K`.
    pub probs: Matrix<f64>,
    /// Final marginal log-likelihood of the votes.
    pub log_likelihood: f64,
    /// EM iterations used.
    pub iterations: usize,
}

impl SnorkelModel {
    /// Fit the generative model on a vote matrix with EM.
    pub fn fit(votes: &LabelMatrix, max_iters: usize, tol: f64) -> Result<Self> {
        let n = votes.n();
        let m = votes.num_lfs();
        let k = votes.num_classes();

        // Init responsibilities from the majority vote: anchors cluster c to
        // "the class the votes call c" and breaks EM's label symmetry.
        let mut probs = votes.majority_vote();
        let mut class_priors = vec![1.0 / k as f64; k];
        let mut thetas: Vec<Matrix<f64>> = vec![Matrix::zeros(k, k + 1); m];
        m_step(votes, &probs, &mut class_priors, &mut thetas);

        let mut ll = f64::NEG_INFINITY;
        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut log_joint = vec![0.0f64; k];
        for it in 0..max_iters.max(1) {
            iterations = it + 1;
            // --- E-step ---
            ll = 0.0;
            for i in 0..n {
                for (c, lj) in log_joint.iter_mut().enumerate() {
                    *lj = class_priors[c].ln();
                }
                for (j, &v) in votes.row(i).iter().enumerate() {
                    let col = vote_column(v);
                    for (c, lj) in log_joint.iter_mut().enumerate() {
                        *lj += thetas[j][(c, col)].ln();
                    }
                }
                let lse = log_sum_exp(&log_joint);
                ll += lse;
                for (c, &lj) in log_joint.iter().enumerate() {
                    probs[(i, c)] = (lj - lse).exp();
                }
            }
            let rel = if prev_ll.is_finite() {
                (ll - prev_ll).abs() / prev_ll.abs().max(1.0)
            } else {
                f64::INFINITY
            };
            if rel < tol {
                break;
            }
            prev_ll = ll;
            // --- M-step ---
            m_step(votes, &probs, &mut class_priors, &mut thetas);
        }
        Ok(Self { class_priors, thetas, probs, log_likelihood: ll, iterations })
    }

    /// Hard labels by per-row argmax.
    pub fn hard_labels(&self) -> Vec<usize> {
        (0..self.probs.rows()).map(|i| goggles_tensor::argmax(self.probs.row(i))).collect()
    }
}

/// Column of the vote table for a raw vote value.
#[inline]
fn vote_column(v: i64) -> usize {
    if v == ABSTAIN {
        0
    } else {
        1 + v as usize
    }
}

/// M-step: smoothed empirical vote tables and class priors from the
/// current responsibilities.
fn m_step(
    votes: &LabelMatrix,
    probs: &Matrix<f64>,
    class_priors: &mut [f64],
    thetas: &mut [Matrix<f64>],
) {
    let n = votes.n();
    let k = votes.num_classes();
    // priors
    for (c, p) in class_priors.iter_mut().enumerate() {
        let mass: f64 = (0..n).map(|i| probs[(i, c)]).sum();
        *p = (mass / n as f64).max(1e-6);
    }
    let s: f64 = class_priors.iter().sum();
    for p in class_priors.iter_mut() {
        *p /= s;
    }
    // vote tables
    for (j, theta) in thetas.iter_mut().enumerate() {
        let mut counts = Matrix::<f64>::filled(k, k + 1, SMOOTHING);
        for i in 0..n {
            let col = vote_column(votes.vote(i, j));
            for c in 0..k {
                counts[(c, col)] += probs[(i, c)];
            }
        }
        for c in 0..k {
            let row_sum: f64 = counts.row(c).iter().sum();
            for v in 0..=k {
                theta[(c, v)] = counts[(c, v)] / row_sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goggles_tensor::rng::std_rng;
    use rand::Rng;

    /// Simulate bipolar votes: LF j votes with propensity `prop[j]` and is
    /// correct with probability `acc[j]`, over alternating ground truth.
    fn simulate(n: usize, acc: &[f64], prop: &[f64], seed: u64) -> (LabelMatrix, Vec<usize>) {
        let mut rng = std_rng(seed);
        let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut votes = Vec::with_capacity(n * acc.len());
        for &t in &truth {
            for (a, p) in acc.iter().zip(prop) {
                let v = if rng.random::<f64>() > *p {
                    ABSTAIN
                } else if rng.random::<f64>() < *a {
                    t as i64
                } else {
                    1 - t as i64
                };
                votes.push(v);
            }
        }
        (LabelMatrix::new(n, acc.len(), 2, votes).unwrap(), truth)
    }

    /// Per-LF accuracy `P(vote = y | y, vote ≠ abstain)` read off the
    /// fitted vote tables, averaged over classes — the quantity Snorkel
    /// reports.
    fn accuracies(model: &SnorkelModel) -> Vec<f64> {
        let k = model.class_priors.len();
        model
            .thetas
            .iter()
            .map(|theta| {
                let mut acc = 0.0;
                let mut weight = 0.0;
                for c in 0..k {
                    let fire: f64 = (1..=k).map(|v| theta[(c, v)]).sum();
                    if fire > 1e-12 {
                        acc += model.class_priors[c] * theta[(c, 1 + c)] / fire;
                        weight += model.class_priors[c];
                    }
                }
                if weight > 0.0 {
                    acc / weight
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// Per-LF, per-class firing propensity `P(vote ≠ abstain | y)` read off
    /// the fitted vote tables.
    fn propensities(model: &SnorkelModel) -> Vec<Vec<f64>> {
        let k = model.class_priors.len();
        model.thetas.iter().map(|theta| (0..k).map(|c| 1.0 - theta[(c, 0)]).collect()).collect()
    }

    fn accuracy_of(labels: &[usize], truth: &[usize]) -> f64 {
        labels.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    #[test]
    fn recovers_labels_from_reliable_lfs() {
        let (lm, truth) = simulate(300, &[0.85, 0.8, 0.75], &[0.9, 0.8, 0.9], 1);
        let model = SnorkelModel::fit(&lm, 100, 1e-6).unwrap();
        let acc = accuracy_of(&model.hard_labels(), &truth);
        assert!(acc > 0.85, "accuracy = {acc}");
    }

    #[test]
    fn learned_accuracies_track_true_accuracies() {
        let (lm, _) = simulate(2000, &[0.9, 0.9, 0.9, 0.6], &[1.0, 1.0, 1.0, 1.0], 2);
        let model = SnorkelModel::fit(&lm, 200, 1e-8).unwrap();
        let accs = accuracies(&model);
        for good in &accs[..3] {
            assert!(*good > accs[3] + 0.1, "good {good} vs weak {} ({accs:?})", accs[3]);
        }
        assert!((accs[3] - 0.6).abs() < 0.1, "weak LF accuracy {accs:?}");
    }

    #[test]
    fn handles_unipolar_lfs_without_collapse() {
        // LFs that only ever vote one class (attribute-annotation style):
        // firing pattern is the signal. A class-independent-abstain model
        // collapses here; the conditional-table model must not.
        let mut rng = std_rng(7);
        let n = 200;
        let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut votes = Vec::with_capacity(n * 2);
        for &t in &truth {
            // LF0 fires "0" mostly on class-0; LF1 fires "1" mostly on 1.
            votes.push(if t == 0 && rng.random::<f64>() < 0.9 { 0 } else { ABSTAIN });
            votes.push(if t == 1 && rng.random::<f64>() < 0.9 { 1 } else { ABSTAIN });
        }
        let lm = LabelMatrix::new(n, 2, 2, votes).unwrap();
        let model = SnorkelModel::fit(&lm, 100, 1e-6).unwrap();
        let acc = accuracy_of(&model.hard_labels(), &truth);
        assert!(acc > 0.9, "unipolar accuracy = {acc}");
        // priors must not collapse
        assert!(model.class_priors.iter().all(|&p| p > 0.2), "{:?}", model.class_priors);
    }

    #[test]
    fn propensities_match_coverage() {
        let (lm, _) = simulate(1000, &[0.8, 0.8], &[0.9, 0.3], 3);
        let model = SnorkelModel::fit(&lm, 50, 1e-6).unwrap();
        let props = propensities(&model);
        let avg0 = (props[0][0] + props[0][1]) / 2.0;
        let avg1 = (props[1][0] + props[1][1]) / 2.0;
        assert!((avg0 - 0.9).abs() < 0.05, "avg0 = {avg0}");
        assert!((avg1 - 0.3).abs() < 0.05, "avg1 = {avg1}");
    }

    #[test]
    fn beats_majority_vote_with_mixed_quality_lfs() {
        // Two excellent LFs + three coin-flips: the generative model should
        // discover the good ones and outperform the uniform-weight vote.
        let (lm, truth) = simulate(800, &[0.95, 0.9, 0.5, 0.5, 0.5], &[1.0, 1.0, 1.0, 1.0, 1.0], 4);
        let model = SnorkelModel::fit(&lm, 200, 1e-8).unwrap();
        let mv = lm.majority_vote();
        let mv_labels: Vec<usize> =
            (0..lm.n()).map(|i| goggles_tensor::argmax(mv.row(i))).collect();
        let snorkel_acc = accuracy_of(&model.hard_labels(), &truth);
        let mv_acc = accuracy_of(&mv_labels, &truth);
        assert!(
            snorkel_acc > mv_acc + 0.02,
            "snorkel {snorkel_acc} should beat majority vote {mv_acc}"
        );
    }

    #[test]
    fn all_abstain_instance_posterior_is_valid() {
        let lm = LabelMatrix::new(3, 1, 2, vec![0, 0, ABSTAIN]).unwrap();
        let model = SnorkelModel::fit(&lm, 50, 1e-6).unwrap();
        // Every posterior row must be a distribution; the voting instances
        // must follow their (only) vote.
        for i in 0..3 {
            let p = model.probs.row(i);
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        }
        let hard = model.hard_labels();
        assert_eq!(hard[0], 0);
        assert_eq!(hard[1], 0);
    }

    #[test]
    fn deterministic() {
        let (lm, _) = simulate(100, &[0.8, 0.7], &[0.9, 0.9], 5);
        let a = SnorkelModel::fit(&lm, 50, 1e-6).unwrap();
        let b = SnorkelModel::fit(&lm, 50, 1e-6).unwrap();
        assert_eq!(a.hard_labels(), b.hard_labels());
    }

    #[test]
    fn theta_rows_are_stochastic() {
        let (lm, _) = simulate(150, &[0.8, 0.6], &[0.7, 0.9], 6);
        let model = SnorkelModel::fit(&lm, 50, 1e-6).unwrap();
        for theta in &model.thetas {
            for c in 0..2 {
                let s: f64 = theta.row(c).iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
                assert!(theta.row(c).iter().all(|&v| v > 0.0));
            }
        }
    }
}
