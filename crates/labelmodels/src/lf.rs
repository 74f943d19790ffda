//! Labeling functions and the vote matrix.
//!
//! A labeling function maps an instance to a class label or abstains — the
//! data-programming contract (Figure 1 of the paper shows two examples).
//! The [`LabelMatrix`] collects all votes; label models consume it.

use crate::{LabelModelError, Result};
use goggles_tensor::Matrix;

/// The abstain vote.
// goggles-lint: allow(dead-pub): the weak-supervision abstain sentinel, part of the LabelMatrix contract; external callers compare against the literal through the matrix API
pub const ABSTAIN: i64 = -1;

/// Dense matrix of LF votes: `n instances × m labeling functions`, entries
/// in `{ABSTAIN} ∪ {0..num_classes}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMatrix {
    votes: Vec<i64>,
    n: usize,
    m: usize,
    num_classes: usize,
}

impl LabelMatrix {
    /// Build from row-major votes.
    pub fn new(n: usize, m: usize, num_classes: usize, votes: Vec<i64>) -> Result<Self> {
        if n == 0 || m == 0 {
            return Err(LabelModelError::EmptyInput);
        }
        if votes.len() != n * m {
            return Err(LabelModelError::InvalidInput(format!(
                "{} votes cannot fill {n}×{m}",
                votes.len()
            )));
        }
        if num_classes < 2 {
            return Err(LabelModelError::InvalidInput("need ≥ 2 classes".into()));
        }
        if let Some(&bad) =
            votes.iter().find(|&&v| v != ABSTAIN && (v < 0 || v >= num_classes as i64))
        {
            return Err(LabelModelError::InvalidInput(format!("invalid vote {bad}")));
        }
        Ok(Self { votes, n, m, num_classes })
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of labeling functions.
    pub(crate) fn num_lfs(&self) -> usize {
        self.m
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Vote of LF `j` on instance `i`.
    #[inline(always)]
    pub(crate) fn vote(&self, i: usize, j: usize) -> i64 {
        debug_assert!(i < self.n && j < self.m);
        self.votes[i * self.m + j]
    }

    /// Votes of instance `i` across all LFs.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.votes[i * self.m..(i + 1) * self.m]
    }

    /// Fraction of instances where at least one LF votes.
    pub fn total_coverage(&self) -> f64 {
        let covered = (0..self.n).filter(|&i| self.row(i).iter().any(|&v| v != ABSTAIN)).count();
        covered as f64 / self.n as f64
    }

    /// Majority-vote probabilistic labels: per instance, the normalized
    /// vote histogram (uniform when all LFs abstain). The standard
    /// data-programming baseline aggregator.
    pub(crate) fn majority_vote(&self) -> Matrix<f64> {
        let k = self.num_classes;
        let mut out = Matrix::<f64>::zeros(self.n, k);
        for i in 0..self.n {
            let mut counts = vec![0.0f64; k];
            for &v in self.row(i) {
                if v != ABSTAIN {
                    counts[v as usize] += 1.0;
                }
            }
            let total: f64 = counts.iter().sum();
            let row = out.row_mut(i);
            if total == 0.0 {
                row.fill(1.0 / k as f64);
            } else {
                for (dst, c) in row.iter_mut().zip(counts) {
                    *dst = c / total;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 instances, 3 LFs, 2 classes.
    fn sample() -> LabelMatrix {
        LabelMatrix::new(
            4,
            3,
            2,
            vec![
                0, ABSTAIN, 0, //
                1, 1, ABSTAIN, //
                ABSTAIN, ABSTAIN, ABSTAIN, //
                0, 1, 1,
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(LabelMatrix::new(0, 1, 2, vec![]).is_err());
        assert!(LabelMatrix::new(1, 1, 2, vec![5]).is_err());
        assert!(LabelMatrix::new(1, 1, 2, vec![0, 1]).is_err());
        assert!(LabelMatrix::new(1, 1, 1, vec![0]).is_err());
        assert!(LabelMatrix::new(1, 2, 2, vec![ABSTAIN, 1]).is_ok());
    }

    #[test]
    fn coverage_and_conflicts() {
        let lm = sample();
        // instance 2 is the only one where every LF abstains
        assert!((lm.total_coverage() - 0.75).abs() < 1e-12);
        // instance 3's non-abstain votes disagree (0 vs 1, 1): it is covered
        // but split in the vote
        assert!(lm.row(3).contains(&0) && lm.row(3).contains(&1));
    }

    #[test]
    fn majority_vote_normalizes_and_defaults_uniform() {
        let lm = sample();
        let mv = lm.majority_vote();
        assert_eq!(mv.row(0), &[1.0, 0.0]);
        assert_eq!(mv.row(1), &[0.0, 1.0]);
        assert_eq!(mv.row(2), &[0.5, 0.5]); // all abstain → uniform
        assert!((mv.row(3)[1] - 2.0 / 3.0).abs() < 1e-12);
    }
}
