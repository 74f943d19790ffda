//! Few-shot learning comparison: the Baseline++ cosine classifier of
//! Chen et al., "A Closer Look at Few-shot Classification" (ICLR 2019) —
//! the FSL column of Table 2.
//!
//! Baseline++ freezes the backbone and trains a classifier whose logit for
//! class `k` is a scaled cosine similarity between the feature vector and a
//! learned class weight vector. §5.1.3: the paper's "2-way 5-shot" setup
//! trains this head on exactly the same 10-example development set GOGGLES
//! uses, over the same frozen VGG-16 features.

use crate::adam::Adam;
use goggles_tensor::rng::{normal, std_rng};
use goggles_tensor::{log_sum_exp, Matrix};

/// Cosine-similarity classifier head (Baseline++).
#[derive(Debug, Clone)]
pub struct CosineClassifier {
    /// Class weight vectors, `K × d`.
    weights: Matrix<f64>,
    /// Logit temperature (Baseline++ uses a fixed scale).
    scale: f64,
}

impl CosineClassifier {
    /// Train on the (few) support examples with cross-entropy + Adam.
    ///
    /// `features`: `n × d` support features (the dev set); `labels` their
    /// classes; `epochs` full-batch steps at learning rate 1e-3 (§5.1.3).
    pub fn train(
        features: &Matrix<f64>,
        labels: &[usize],
        num_classes: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        let (n, d) = features.shape();
        assert_eq!(labels.len(), n, "label arity");
        assert!(n > 0 && num_classes >= 2, "need support examples and ≥ 2 classes");
        // Init class weights at the normalized class means (a strong,
        // standard initialization for cosine heads), with tiny noise to
        // break exact ties.
        let mut rng = std_rng(seed);
        let mut weights = Matrix::<f64>::zeros(num_classes, d);
        let mut counts = vec![0.0f64; num_classes];
        for (i, &l) in labels.iter().enumerate() {
            assert!(l < num_classes, "label {l} out of range");
            counts[l] += 1.0;
            for (w, &x) in weights.row_mut(l).iter_mut().zip(features.row(i)) {
                *w += x;
            }
        }
        for c in 0..num_classes {
            let inv = 1.0 / counts[c].max(1.0);
            for w in weights.row_mut(c) {
                *w = *w * inv + 1e-3 * normal(&mut rng);
            }
        }
        let scale = 10.0;
        let mut params: Vec<f64> = weights.as_slice().to_vec();
        let mut opt = Adam::new(params.len(), 1e-3);
        let mut grads = vec![0.0f64; params.len()];
        let mut logits = vec![0.0f64; num_classes];
        for _ in 0..epochs {
            grads.fill(0.0);
            for i in 0..n {
                let x = features.row(i);
                let x_norm = l2_norm(x).max(1e-12);
                // forward: cosine logits
                let mut w_norms = vec![0.0f64; num_classes];
                for c in 0..num_classes {
                    let w = &params[c * d..(c + 1) * d];
                    w_norms[c] = l2_norm(w).max(1e-12);
                    let dot: f64 = w.iter().zip(x).map(|(&a, &b)| a * b).sum();
                    logits[c] = scale * dot / (w_norms[c] * x_norm);
                }
                let lse = log_sum_exp(&logits);
                for c in 0..num_classes {
                    let p = (logits[c] - lse).exp();
                    let err = p - f64::from(u8::from(labels[i] == c));
                    // d cos(w,x)/dw = x/(|w||x|) − cos · w/|w|²
                    let w = &params[c * d..(c + 1) * d];
                    let cos = logits[c] / scale;
                    let g = &mut grads[c * d..(c + 1) * d];
                    for ((gv, &wv), &xv) in g.iter_mut().zip(w).zip(x) {
                        let dcos =
                            xv / (w_norms[c] * x_norm) - cos * wv / (w_norms[c] * w_norms[c]);
                        *gv += err * scale * dcos;
                    }
                }
            }
            let inv_n = 1.0 / n as f64;
            for g in &mut grads {
                *g *= inv_n;
            }
            opt.step(&mut params, &grads);
        }
        let weights = Matrix::from_vec(num_classes, d, params).expect("shape preserved");
        Self { weights, scale }
    }

    /// Class probabilities for query features.
    pub fn predict_proba(&self, features: &Matrix<f64>) -> Matrix<f64> {
        let k = self.weights.rows();
        let d = self.weights.cols();
        assert_eq!(features.cols(), d, "feature dim mismatch");
        let mut out = Matrix::<f64>::zeros(features.rows(), k);
        let mut logits = vec![0.0f64; k];
        for (i, x) in features.rows_iter().enumerate() {
            let xn = l2_norm(x).max(1e-12);
            for c in 0..k {
                let w = self.weights.row(c);
                let wn = l2_norm(w).max(1e-12);
                let dot: f64 = w.iter().zip(x).map(|(&a, &b)| a * b).sum();
                logits[c] = self.scale * dot / (wn * xn);
            }
            let lse = log_sum_exp(&logits);
            for c in 0..k {
                out[(i, c)] = (logits[c] - lse).exp();
            }
        }
        out
    }

    /// Hard predictions.
    pub fn predict(&self, features: &Matrix<f64>) -> Vec<usize> {
        let p = self.predict_proba(features);
        (0..p.rows()).map(|i| goggles_tensor::argmax(p.row(i))).collect()
    }
}

#[inline]
fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|&x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::accuracy;
    use goggles_tensor::rng::std_rng;

    fn blobs(n_per: usize, sep: f64, seed: u64) -> (Matrix<f64>, Vec<usize>) {
        let mut rng = std_rng(seed);
        let n = 2 * n_per;
        let truth: Vec<usize> = (0..n).map(|i| usize::from(i >= n_per)).collect();
        let feats = Matrix::from_fn(n, 8, |i, j| {
            let c = if truth[i] == 0 { -sep } else { sep };
            // direction varies per feature to avoid axis alignment
            let sign = if j % 2 == 0 { 1.0 } else { -0.5 };
            c * sign + normal(&mut rng)
        });
        (feats, truth)
    }

    #[test]
    fn five_shot_generalizes_on_separable_features() {
        let (support, s_labels) = blobs(5, 2.0, 1); // 5 per class
        let (query, q_labels) = blobs(100, 2.0, 2);
        let clf = CosineClassifier::train(&support, &s_labels, 2, 100, 0);
        let acc = accuracy(&clf.predict(&query), &q_labels);
        assert!(acc > 0.9, "5-shot accuracy = {acc}");
    }

    #[test]
    fn chance_level_on_unseparable_features() {
        let (support, s_labels) = blobs(5, 0.0, 3);
        let (query, q_labels) = blobs(100, 0.0, 4);
        let clf = CosineClassifier::train(&support, &s_labels, 2, 100, 0);
        let acc = accuracy(&clf.predict(&query), &q_labels);
        assert!((0.3..0.7).contains(&acc), "noise accuracy = {acc}");
    }

    #[test]
    fn cosine_head_is_scale_invariant_in_features() {
        let (support, s_labels) = blobs(5, 2.0, 5);
        let (query, _) = blobs(20, 2.0, 6);
        let clf = CosineClassifier::train(&support, &s_labels, 2, 50, 0);
        let scaled = query.map(|v| v * 7.5);
        assert_eq!(clf.predict(&query), clf.predict(&scaled));
    }

    #[test]
    fn probabilities_normalized() {
        let (support, s_labels) = blobs(4, 1.0, 7);
        let clf = CosineClassifier::train(&support, &s_labels, 2, 30, 0);
        let p = clf.predict_proba(&support);
        for i in 0..p.rows() {
            assert!((p.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn training_improves_over_initialization() {
        // With heavy class overlap the class-mean init is poor; training
        // should not make support accuracy worse.
        let (support, s_labels) = blobs(10, 0.8, 8);
        let init = CosineClassifier::train(&support, &s_labels, 2, 0, 0);
        let trained = CosineClassifier::train(&support, &s_labels, 2, 200, 0);
        let a0 = accuracy(&init.predict(&support), &s_labels);
        let a1 = accuracy(&trained.predict(&support), &s_labels);
        assert!(a1 >= a0 - 0.05, "training hurt: {a0} → {a1}");
    }

    #[test]
    fn cosine_head_is_not_scale_sensitive_but_linear_is() {
        // The defining difference between Baseline and Baseline++.
        let (support, s_labels) = blobs(5, 1.5, 11);
        let (query, _) = blobs(20, 1.5, 12);
        let cosine = CosineClassifier::train(&support, &s_labels, 2, 50, 0);
        let scaled = query.map(|v| 100.0 * v);
        assert_eq!(cosine.predict(&query), cosine.predict(&scaled));
    }

    use goggles_tensor::rng::normal;
}
