//! Affinity functions and the affinity matrix (§2.2 Step 1, §3.2).
//!
//! An affinity function `f_L^z` is indexed by a max-pool layer `L` and a
//! prototype rank `z`; its value on an ordered pair is
//! `f_L^z(x_i, x_j) = max_{h,w} cos(v_j^z, v_i^{(h,w)})` (Equation 2) — "find
//! the most similar patch in image x_i with respect to the z-th prototype of
//! image x_j".
//!
//! The affinity matrix `A ∈ R^{N×αN}` packs every function's `N × N` block
//! side by side: `A[i, f·N + j] = f(x_i, x_j)` (the paper's
//! `A[i, j] = f_{j/N}(x_i, x_{j%N})`).
//!
//! Because patch tables and prototypes are pre-normalized, each block
//! reduces to a matrix product followed by a column-max, and rows are
//! computed in parallel.

use crate::prototypes::ImageEmbedding;
use goggles_tensor::Matrix;

/// Identifier of one affinity function: `(layer L, prototype rank z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffinityFunction {
    /// Max-pool layer index, shallow → deep (`0..5` for the VGG backbone).
    pub layer: usize,
    /// Prototype rank within the layer, `0..Z`.
    pub z: usize,
}

impl AffinityFunction {
    /// All `n_layers · z_per_layer` functions in canonical order
    /// (layer-major). `n_layers` must match the backbone the affinity matrix
    /// was built with — deriving it here (instead of hardcoding the VGG-16
    /// count of 5) keeps flat indices in sync with
    /// [`PrototypeBank::alpha`] for any backbone depth.
    pub fn library(n_layers: usize, z_per_layer: usize) -> Vec<AffinityFunction> {
        (0..n_layers)
            .flat_map(|layer| (0..z_per_layer).map(move |z| AffinityFunction { layer, z }))
            .collect()
    }
}

impl std::fmt::Display for AffinityFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f[L{}:z{}]", self.layer + 1, self.z + 1)
    }
}

/// The dense `N × αN` affinity matrix plus its layout metadata.
#[derive(Debug, Clone)]
pub struct AffinityMatrix {
    /// Row-major scores; row `i`, column `f·N + j`.
    pub data: Matrix<f64>,
    /// Number of instances `N = n + m`.
    pub n: usize,
    /// Number of affinity functions `α`.
    pub alpha: usize,
    /// Prototypes per layer (`Z`), recorded for function bookkeeping.
    pub z_per_layer: usize,
}

/// The frozen prototype side of a fitted affinity matrix: per layer, the
/// stacked `(n·z) × C` prototype table of all `n` training images (row
/// `j·z + r` holds prototype `r` of image `j`).
///
/// A bank is everything needed to evaluate every affinity function against
/// the *stored* training corpus for a **new** image: the `1 × αN` row
/// `A[x, f·N + j] = f(x, x_j)` follows from the new image's patch tables
/// alone, so out-of-sample inference never re-embeds the training set (the
/// serving path of `goggles-serve`).
///
/// The kernel does not read `stacked`. Prototype extraction pads each
/// image's prototypes to `Z` by repeating them, so at construction the bank
/// keeps, per layer, only the *distinct* rows of each image (compared bit
/// for bit) plus a slot map from `j·z + r` to the distinct row. Each
/// affinity request computes every distinct prototype once and scatters
/// through the map. That is exact: the kernel's output for a prototype
/// depends only on that prototype's bits and the query's patches.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeBank {
    /// One stacked prototype table per backbone layer, shallow → deep.
    pub stacked: Vec<Matrix<f32>>,
    /// Number of stored (training) images `N`.
    pub n: usize,
    /// Prototypes per layer (`Z`).
    pub z_per_layer: usize,
    /// The distinct prototypes of each layer as the kernel reads them,
    /// built once at construction and reused by every affinity request.
    layers: Vec<DistinctLayer>,
}

/// One layer of a [`PrototypeBank`] without repeated work: its distinct
/// prototype rows, the slot map back to the stacked table, and the packed
/// panel of the distinct rows.
#[derive(Debug, Clone, PartialEq)]
struct DistinctLayer {
    /// The distinct rows of the stacked table, row-major, image by image,
    /// each image's rows in order of first occurrence. Two rows of an image
    /// are the same only if every value has the same bits, so `+0.0` and
    /// `-0.0` differ, and so do NaNs with different payloads.
    rows: Vec<f32>,
    /// `slots[j·z + r]`: the row of `rows` that holds prototype `r` of
    /// image `j`.
    slots: Vec<u32>,
    /// `rows` packed for the kernel (16-wide channel-major blocks), so the
    /// per-request hot path neither packs nor allocates on the prototype
    /// side.
    panel: goggles_tensor::ColmaxPanel,
}

impl DistinctLayer {
    /// Dedupe each image's `z` rows of one stacked layer table.
    ///
    /// # Panics
    /// Panics if the table has more than `u32::MAX` rows.
    fn new(stacked: &Matrix<f32>, z: usize) -> Self {
        assert!(stacked.rows() <= u32::MAX as usize, "prototype bank exceeds u32::MAX rows");
        let cols = stacked.cols();
        let mut rows: Vec<f32> = Vec::with_capacity(stacked.len());
        let mut slots = Vec::with_capacity(stacked.rows());
        for image in stacked.as_slice().chunks_exact(z * cols) {
            let first = rows.len() / cols;
            for proto in image.chunks_exact(cols) {
                let seen = rows[first * cols..].chunks_exact(cols).position(|kept| {
                    kept.iter().zip(proto).all(|(k, p)| k.to_bits() == p.to_bits())
                });
                let slot = match seen {
                    Some(d) => first + d,
                    None => {
                        rows.extend_from_slice(proto);
                        rows.len() / cols - 1
                    }
                };
                // Lossless: slot < stacked.rows() ≤ u32::MAX.
                slots.push(slot as u32);
            }
        }
        let panel = goggles_tensor::ColmaxPanel::new(&rows, cols);
        Self { rows, slots, panel }
    }
}

impl PrototypeBank {
    /// Stack the prototypes of a training corpus.
    ///
    /// All embeddings must share one backbone geometry (same layer count,
    /// same prototypes-per-layer `Z`, same channel width per layer); the
    /// bank's shape is taken from it. A mismatch panics loudly — an
    /// embedding with *more* prototypes would otherwise be silently
    /// truncated to `Z`, and one with a different layer count would index
    /// out of bounds.
    pub fn from_embeddings(embeddings: &[ImageEmbedding]) -> Self {
        let n = embeddings.len();
        assert!(n > 0, "need at least one embedding");
        let n_layers = embeddings[0].layers.len();
        let z = embeddings[0].layers[0].prototypes.rows();
        for (i, emb) in embeddings.iter().enumerate() {
            assert_eq!(
                emb.layers.len(),
                n_layers,
                "PrototypeBank::from_embeddings: embedding {i} has {} layers but embedding 0 \
                 has {n_layers} — all embeddings must come from the same backbone config",
                emb.layers.len()
            );
            for (l, layer) in emb.layers.iter().enumerate() {
                assert_eq!(
                    layer.prototypes.rows(),
                    z,
                    "PrototypeBank::from_embeddings: embedding {i} layer {l} has {} prototypes \
                     but embedding 0 has Z = {z} — was it extracted with a different top_z?",
                    layer.prototypes.rows()
                );
                assert_eq!(
                    layer.prototypes.cols(),
                    embeddings[0].layers[l].prototypes.cols(),
                    "PrototypeBank::from_embeddings: embedding {i} layer {l} has prototype dim \
                     {} but embedding 0 has {} — mixed backbone channel widths",
                    layer.prototypes.cols(),
                    embeddings[0].layers[l].prototypes.cols()
                );
            }
        }
        let stacked: Vec<Matrix<f32>> = (0..n_layers)
            .map(|layer| {
                let c = embeddings[0].layers[layer].prototypes.cols();
                let mut p = Matrix::<f32>::zeros(n * z, c);
                for (j, emb) in embeddings.iter().enumerate() {
                    for r in 0..z {
                        p.row_mut(j * z + r).copy_from_slice(emb.layers[layer].prototypes.row(r));
                    }
                }
                p
            })
            .collect();
        let layers = stacked.iter().map(|p| DistinctLayer::new(p, z)).collect();
        Self { stacked, n, z_per_layer: z, layers }
    }

    /// Build a bank directly from already-stacked per-layer prototype
    /// tables — the deserialization path (`goggles-serve` snapshots, any
    /// future external bank source). Unlike a struct literal this validates
    /// the geometry, so a corrupt or hand-built bank fails here instead of
    /// panicking later inside the affinity kernel:
    ///
    /// * `n ≥ 1`, `z_per_layer ≥ 1`, at least one layer,
    /// * every layer is `(n · z_per_layer) × C_l` with `C_l ≥ 1`.
    pub fn from_stacked(
        stacked: Vec<Matrix<f32>>,
        n: usize,
        z_per_layer: usize,
    ) -> crate::Result<Self> {
        if n == 0 || z_per_layer == 0 || stacked.is_empty() {
            return Err(crate::GogglesError::InvalidInput(format!(
                "prototype bank must be non-empty (N = {n}, Z = {z_per_layer}, layers = {})",
                stacked.len()
            )));
        }
        // Deserialized dimensions are untrusted: a corrupt N/Z pair must
        // come back as an error, not an arithmetic-overflow panic or one in
        // the u32 slot map.
        let rows = n
            .checked_mul(z_per_layer)
            .filter(|&rows| u32::try_from(rows).is_ok())
            .ok_or_else(|| {
                crate::GogglesError::InvalidInput(format!(
                    "bank shape N·Z = {n}·{z_per_layer} exceeds u32::MAX rows"
                ))
            })?;
        for (l, layer) in stacked.iter().enumerate() {
            if layer.rows() != rows || layer.cols() == 0 {
                return Err(crate::GogglesError::InvalidInput(format!(
                    "bank layer {l} is {}×{}; expected N·Z = {n}·{z_per_layer} = {rows} rows \
                     and ≥ 1 channel",
                    layer.rows(),
                    layer.cols(),
                )));
            }
        }
        let layers = stacked.iter().map(|p| DistinctLayer::new(p, z_per_layer)).collect();
        Ok(Self { stacked, n, z_per_layer, layers })
    }

    /// Number of affinity functions `α = layers · Z`.
    pub fn alpha(&self) -> usize {
        self.stacked.len() * self.z_per_layer
    }

    /// Affinity rows of `queries` against the stored prototypes: an
    /// `m × αN` matrix laid out exactly like [`AffinityMatrix::data`]
    /// (`row q, column f·N + j = f(query_q, train_j)`). Cost is
    /// `O(m · N)` affinity evaluations — independent of `N²`.
    ///
    /// The rows run on up to `threads` participants of the process-wide
    /// [`goggles_tensor::pool`] (the calling thread and the pool's helpers),
    /// which claim queries one at a time; a single query runs on the
    /// calling thread. Each row is [`PrototypeBank::affinity_row`], the
    /// register-tiled [`goggles_tensor::colmax_matmul_panel_f32`] kernel
    /// writing only its own output row, so the output is bit-identical for
    /// every thread count and schedule.
    pub fn affinity_rows(&self, queries: &[ImageEmbedding], threads: usize) -> Matrix<f64> {
        let m = queries.len();
        let row_len = self.alpha() * self.n;
        let mut data = Matrix::<f64>::zeros(m, row_len);
        if m == 0 {
            return data;
        }
        self.validate_queries(queries);
        goggles_tensor::pool::for_each_chunk_mut(
            data.as_mut_slice(),
            row_len,
            threads,
            |q, row| self.fill_validated_row(&queries[q], row),
        );
        data
    }

    /// The `1 × αN` affinity row of one query, written into `row` (laid out
    /// like one row of [`PrototypeBank::affinity_rows`], which computes
    /// every row through this method). Runs on the calling thread with the
    /// thread's own kernel workspace, kept in a thread-local across calls.
    ///
    /// # Panics
    /// If `row` is not `α·N` long, or the query was embedded with a
    /// different backbone geometry than the bank's.
    pub fn affinity_row(&self, query: &ImageEmbedding, row: &mut [f64]) {
        self.validate_queries(std::slice::from_ref(query));
        self.fill_validated_row(query, row);
    }

    /// [`PrototypeBank::affinity_row`] for a query whose geometry was
    /// already checked.
    fn fill_validated_row(&self, query: &ImageEmbedding, row: &mut [f64]) {
        assert_eq!(row.len(), self.alpha() * self.n, "affinity row must be α·N long");
        // `fill_row` calls nothing that could borrow the scratch again.
        ROW_SCRATCH.with(|cell| {
            fill_row(row, query, &self.layers, self.n, self.z_per_layer, &mut cell.borrow_mut())
        });
    }

    /// The pre-blocking scalar reference path: the same `m × αN` rows via
    /// plain per-prototype dot-product loops on one thread, allocating its
    /// maxima buffer per row like the original hot path did. Retained so
    /// tests can cross-check the blocked kernel end-to-end and the
    /// `speedup_bars` test can hold it to its 2× single-row bar.
    pub fn affinity_rows_reference(&self, queries: &[ImageEmbedding]) -> Matrix<f64> {
        let m = queries.len();
        let row_len = self.alpha() * self.n;
        let mut data = Matrix::<f64>::zeros(m, row_len);
        if m == 0 {
            return data;
        }
        self.validate_queries(queries);
        for (q, row) in data.as_mut_slice().chunks_mut(row_len).enumerate() {
            fill_row_reference(row, &queries[q], &self.stacked, self.n, self.z_per_layer);
        }
        data
    }

    /// Fail loudly (also in release) on geometry mismatches — a query
    /// embedded with a different backbone config would otherwise produce
    /// silently truncated dot products in the kernel.
    fn validate_queries(&self, queries: &[ImageEmbedding]) {
        for (q, emb) in queries.iter().enumerate() {
            assert_eq!(
                emb.layers.len(),
                self.stacked.len(),
                "query {q}: {} layers but the bank holds {}",
                emb.layers.len(),
                self.stacked.len()
            );
            for (l, (layer, protos)) in emb.layers.iter().zip(&self.stacked).enumerate() {
                assert_eq!(
                    layer.patches.cols(),
                    protos.cols(),
                    "query {q} layer {l}: patch dim {} != bank prototype dim {} \
                     (was it embedded with the same backbone config?)",
                    layer.patches.cols(),
                    protos.cols()
                );
            }
        }
    }
}

impl AffinityMatrix {
    /// Build the matrix from per-image embeddings (Algorithm 1 applied to
    /// all ordered pairs). `threads` caps the participants that fill rows
    /// (see [`PrototypeBank::affinity_rows`]).
    pub fn build(embeddings: &[ImageEmbedding], threads: usize) -> Self {
        Self::from_bank(&PrototypeBank::from_embeddings(embeddings), embeddings, threads)
    }

    /// The matrix of `embeddings` against a bank built from those same
    /// embeddings: one [`PrototypeBank::affinity_rows`] call, so every path
    /// that fits a corpus computes its rows the same way.
    pub(crate) fn from_bank(
        bank: &PrototypeBank,
        embeddings: &[ImageEmbedding],
        threads: usize,
    ) -> Self {
        let data = bank.affinity_rows(embeddings, threads);
        Self { data, n: bank.n, alpha: bank.alpha(), z_per_layer: bank.z_per_layer }
    }

    /// Grow the matrix in place by `rows` (`m × αN`, laid out like
    /// [`AffinityMatrix::data`]): the continuous-learning append, with no
    /// copy of the rows already held. A block of the wrong width is refused
    /// before any data moves, so the matrix keeps its shape and bits.
    pub fn append_rows(&mut self, rows: &Matrix<f64>) -> crate::Result<()> {
        self.data.append_rows(rows).map_err(|e| crate::GogglesError::InvalidInput(e.to_string()))
    }

    /// The `N × N` block of affinity function `f` (by flat index).
    pub fn function_block(&self, f: usize) -> Matrix<f64> {
        assert!(f < self.alpha, "function index {f} out of range ({})", self.alpha);
        self.data.col_block(f * self.n, (f + 1) * self.n)
    }

    /// A copy restricted to the affinity functions selected by `keep` —
    /// arbitrary **flat** function indices, required to be strictly
    /// increasing (used by the Figure 9 sweep over the number of affinity
    /// functions). Duplicate or out-of-order indices would silently
    /// desynchronize the `z_per_layer` bookkeeping of the copy, so they are
    /// rejected.
    pub fn restrict_functions(&self, keep: &[usize]) -> AffinityMatrix {
        assert!(!keep.is_empty());
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "restrict_functions: indices must be strictly increasing (no duplicates), got {keep:?}"
        );
        assert!(
            keep[keep.len() - 1] < self.alpha,
            "function index {} out of range ({})",
            keep[keep.len() - 1],
            self.alpha
        );
        let n = self.n;
        let mut data = Vec::with_capacity(self.data.rows() * keep.len() * n);
        for row in self.data.rows_iter() {
            for &f in keep {
                data.extend_from_slice(&row[f * n..(f + 1) * n]);
            }
        }
        let data = Matrix::from_vec(self.data.rows(), keep.len() * n, data).expect("whole rows");
        AffinityMatrix { data, n, alpha: keep.len(), z_per_layer: self.z_per_layer }
    }

    /// Build a **single-function** affinity matrix from arbitrary feature
    /// vectors via pairwise cosine similarity — the HOG / Logits
    /// representation baselines of §5.1.5 feed this into the same inference
    /// module.
    pub fn from_feature_vectors(features: &Matrix<f64>) -> Self {
        let n = features.rows();
        assert!(n > 0, "need at least one feature row");
        let mut normalized = features.clone();
        normalized.l2_normalize_rows();
        let sims = normalized.matmul(&normalized.transpose());
        Self { data: sims, n, alpha: 1, z_per_layer: 1 }
    }

    /// Per-function separation diagnostics against ground truth (drives the
    /// Figure 2 and Figure 5 harnesses).
    pub fn score_distribution(&self, f: usize, labels: &[usize]) -> ScoreDistribution {
        assert_eq!(labels.len(), self.n, "labels must cover all instances");
        let block = self.function_block(f);
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                let v = block[(i, j)];
                if labels[i] == labels[j] {
                    same.push(v);
                } else {
                    diff.push(v);
                }
            }
        }
        let auc = goggles_tensor::auc(&same, &diff);
        ScoreDistribution { function: f, same_class: same, cross_class: diff, auc }
    }

    /// Class-sorted block means of one function's `N × N` slice — the
    /// numeric content of the paper's Figure 5 heatmap. Entry `[a][b]` is
    /// the mean affinity of (row class `a`, column class `b`) pairs.
    pub fn sorted_block_view(&self, f: usize, labels: &[usize], k: usize) -> Vec<Vec<f64>> {
        let block = self.function_block(f);
        let mut sums = vec![vec![0.0f64; k]; k];
        let mut counts = vec![vec![0usize; k]; k];
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                sums[labels[i]][labels[j]] += block[(i, j)];
                counts[labels[i]][labels[j]] += 1;
            }
        }
        for a in 0..k {
            for b in 0..k {
                if counts[a][b] > 0 {
                    sums[a][b] /= counts[a][b] as f64;
                }
            }
        }
        sums
    }
}

/// Same-class vs cross-class affinity scores of one function, plus the AUC
/// separation measure used to rank functions (Example 2 / Figure 2).
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): return type of pub PrototypeBank scoring API; external callers destructure it without naming it
pub struct ScoreDistribution {
    /// Flat function index.
    pub function: usize,
    /// Scores of ordered same-class pairs (diagonal excluded).
    pub same_class: Vec<f64>,
    /// Scores of ordered cross-class pairs.
    pub cross_class: Vec<f64>,
    /// P(same-class score > cross-class score); 0.5 = uninformative.
    pub auc: f64,
}

/// Per-thread workspace of the row-filling hot path: the kernel scratch
/// (the packed patch panel) plus the per-layer maxima buffer. Each buffer
/// grows once to the largest layer geometry and is then reused across
/// every layer and row the thread fills — the hot path never reallocates.
#[derive(Default)]
struct RowScratch {
    kernel: goggles_tensor::ColmaxScratch,
    best: Vec<f32>,
}

thread_local! {
    /// Every thread's [`RowScratch`], kept across calls.
    static ROW_SCRATCH: std::cell::RefCell<RowScratch> =
        std::cell::RefCell::new(RowScratch::default());
}

/// Fill row `i` of the affinity matrix: for every layer, run the blocked
/// fused matmul + column-max kernel over the image's patch table and the
/// layer's distinct prototypes (Equation 2 vectorized over all of them at
/// once), then scatter the maxima through the slot map into the paper's
/// `f·N + j` column layout. The kernel reads the bank's cached packed
/// panel, so the per-request work is pure streaming arithmetic.
fn fill_row(
    row: &mut [f64],
    embedding: &ImageEmbedding,
    layers: &[DistinctLayer],
    n: usize,
    z: usize,
    scratch: &mut RowScratch,
) {
    for (layer, table) in layers.iter().enumerate() {
        let patches = &embedding.layers[layer].patches; // HW × C
        let distinct = table.panel.rows();
        debug_assert_eq!(patches.cols(), table.panel.cols());
        if scratch.best.len() < distinct {
            scratch.best.resize(distinct, 0.0);
        }
        let best = &mut scratch.best[..distinct];
        goggles_tensor::colmax_matmul_panel_f32(
            &mut scratch.kernel,
            patches.as_slice(),
            &table.rows,
            &table.panel,
            0,
            best,
        );
        scatter_layer(row, best, &table.slots, layer, n, z);
    }
}

/// Scatter one layer's maxima into the affinity row: prototype `r` of image
/// `j` (maximum `best[slots[j·z + r]]`) goes to function `layer·z + r`'s
/// block, column `j`.
fn scatter_layer(row: &mut [f64], best: &[f32], slots: &[u32], layer: usize, n: usize, z: usize) {
    for (j, image) in slots.chunks_exact(z).enumerate() {
        for (r, &slot) in image.iter().enumerate() {
            row[(layer * z + r) * n + j] = f64::from(best[slot as usize]);
        }
    }
}

/// The original scalar hot path, kept verbatim as the reference
/// implementation: per-patch, per-prototype sequential dot products with a
/// freshly allocated maxima buffer each call. See
/// [`PrototypeBank::affinity_rows_reference`].
fn fill_row_reference(
    row: &mut [f64],
    embedding: &ImageEmbedding,
    stacked: &[Matrix<f32>],
    n: usize,
    z: usize,
) {
    for (layer, protos) in stacked.iter().enumerate() {
        let patches = &embedding.layers[layer].patches; // HW × C
        let hw = patches.rows();
        let nz = protos.rows(); // n·z
        debug_assert_eq!(patches.cols(), protos.cols());
        // scores[(j·z + r)] = max over patches of dot(patch, proto)
        let mut best = vec![f32::NEG_INFINITY; nz];
        let identity: Vec<u32> = (0..nz as u32).collect();
        for p in 0..hw {
            let patch = patches.row(p);
            for (b, proto_row) in best.iter_mut().zip(0..nz) {
                let proto = protos.row(proto_row);
                let mut dot = 0.0f32;
                for (&a, &q) in patch.iter().zip(proto) {
                    dot += a * q;
                }
                if dot > *b {
                    *b = dot;
                }
            }
        }
        scatter_layer(row, &best, &identity, layer, n, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prototypes::{embed_images, LayerEmbedding};
    use goggles_cnn::{Vgg16, VggConfig};
    use goggles_vision::{draw, Image};

    /// Hand-built one-layer embedding for exact-value tests.
    fn toy_embedding(patch_rows: &[&[f32]], proto_rows: &[&[f32]]) -> ImageEmbedding {
        let mut patches = Matrix::from_rows(patch_rows);
        patches.l2_normalize_rows();
        let mut prototypes = Matrix::from_rows(proto_rows);
        prototypes.l2_normalize_rows();
        let locations = vec![(0, 0); proto_rows.len()];
        ImageEmbedding { layers: vec![LayerEmbedding { patches, prototypes, locations }] }
    }

    /// The bits of every entry, so comparisons tell `+0.0` from `-0.0`.
    fn f64_bits(m: &Matrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn affinity_is_max_cosine_over_patches() {
        // Image 0 has patches along x and y axes; image 1's prototype is
        // along x. f(x_0, x_1) must be cos(x, x) = 1.
        let e0 = toy_embedding(&[&[1.0, 0.0], &[0.0, 1.0]], &[&[0.0, 1.0]]);
        let e1 = toy_embedding(&[&[0.7, 0.7]], &[&[1.0, 0.0]]);
        let am = AffinityMatrix::build(&[e0, e1], 1);
        assert_eq!(am.alpha, 1);
        assert_eq!(am.n, 2);
        let block = am.function_block(0);
        // A[0, 1] = max cos(patches of 0, proto of 1) = max(1, 0) = 1
        assert!((block[(0, 1)] - 1.0).abs() < 1e-6);
        // A[1, 0] = max cos(patch (0.7,0.7)/√.98, proto y) = √0.5
        assert!((block[(1, 0)] - 0.5f64.sqrt()).abs() < 1e-6);
        // Self-affinity: image's own prototype is among its patches -> 1
        assert!((block[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layout_matches_paper_indexing() {
        // Two functions (z=2), three images: column f·N + j.
        let mk = |a: f32, b: f32| toy_embedding(&[&[a, b]], &[&[a, b], &[b, a]]);
        let embs = vec![mk(1.0, 0.0), mk(0.0, 1.0), mk(0.7, 0.7)];
        let am = AffinityMatrix::build(&embs, 2);
        assert_eq!(am.data.shape(), (3, 2 * 3));
        // block f=1, j=0 lives at column 1*3+0 = 3
        let b1 = am.function_block(1);
        assert_eq!(am.data[(2, 3)], b1[(2, 0)]);
    }

    #[test]
    fn append_rows_grows_in_place_and_refuses_a_wrong_width() {
        let mk = |a: f32, b: f32| toy_embedding(&[&[a, b]], &[&[a, b], &[b, a]]);
        let embs = vec![mk(1.0, 0.0), mk(0.0, 1.0), mk(0.7, 0.7)];
        let mut am = AffinityMatrix::build(&embs, 1);
        let original = f64_bits(&am.data);

        // One column short, and one too many: refused, nothing moves.
        for cols in [am.alpha * am.n - 1, am.alpha * am.n + 1] {
            assert!(am.append_rows(&Matrix::from_fn(2, cols, |i, j| (i + j) as f64)).is_err());
            assert_eq!(am.data.shape(), (3, 6), "{cols} columns");
            assert_eq!(f64_bits(&am.data), original, "{cols} columns");
        }

        // The right width lands below the old rows; n and α stay put.
        let bank = PrototypeBank::from_embeddings(&embs);
        let extra = bank.affinity_rows(&embs[1..], 1);
        am.append_rows(&extra).unwrap();
        assert_eq!(am.data.shape(), (5, 6));
        assert_eq!((am.n, am.alpha), (3, 2));
        assert_eq!(f64_bits(&am.data)[..original.len()], original[..]);
        assert_eq!(f64_bits(&am.data)[original.len()..], f64_bits(&extra)[..]);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let net = Vgg16::new(&VggConfig::tiny(), 3);
        let images: Vec<Image> = (0..5)
            .map(|i| {
                let mut img = Image::filled(3, 32, 32, 0.2);
                draw::fill_disc(&mut img, 8.0 + i as f32 * 3.0, 16.0, 5.0, &[0.9, 0.3, 0.1]);
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let embs = embed_images(&net, &refs, 3, 1, false);
        let a1 = AffinityMatrix::build(&embs, 1);
        let a4 = AffinityMatrix::build(&embs, 4);
        assert_eq!(f64_bits(&a1.data), f64_bits(&a4.data));
    }

    #[test]
    fn from_feature_vectors_is_cosine_gram() {
        let feats = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        let am = AffinityMatrix::from_feature_vectors(&feats);
        assert_eq!(am.alpha, 1);
        assert!((am.data[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((am.data[(0, 1)]).abs() < 1e-12);
        assert!((am.data[(0, 2)] - 0.5f64.sqrt()).abs() < 1e-12);
        // symmetric
        assert!((am.data[(2, 1)] - am.data[(1, 2)]).abs() < 1e-12);
    }

    #[test]
    fn score_distribution_separates_good_function() {
        // Build features where class 0 ⟂ class 1: affinity within class 1,
        // across class 0 → AUC must be 1.
        let feats = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let am = AffinityMatrix::from_feature_vectors(&feats);
        let dist = am.score_distribution(0, &[0, 0, 1, 1]);
        assert!((dist.auc - 1.0).abs() < 1e-9);
        assert_eq!(dist.same_class.len(), 4);
        assert_eq!(dist.cross_class.len(), 8);
    }

    #[test]
    fn sorted_block_view_shows_block_structure() {
        let feats = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let am = AffinityMatrix::from_feature_vectors(&feats);
        let blocks = am.sorted_block_view(0, &[0, 0, 1, 1], 2);
        assert!(blocks[0][0] > 0.99 && blocks[1][1] > 0.99);
        assert!(blocks[0][1] < 0.01 && blocks[1][0] < 0.01);
    }

    #[test]
    fn restrict_functions_keeps_selected_blocks() {
        let mk = |a: f32, b: f32| toy_embedding(&[&[a, b]], &[&[a, b], &[b, a]]);
        let embs = vec![mk(1.0, 0.0), mk(0.0, 1.0)];
        let am = AffinityMatrix::build(&embs, 1);
        let restricted = am.restrict_functions(&[1]);
        assert_eq!(restricted.alpha, 1);
        assert_eq!(restricted.data, am.function_block(1));
    }

    #[test]
    fn restrict_functions_keeps_non_contiguous_blocks() {
        // α = 3, keep functions 0 and 2: each block of the copy is the
        // matching block of the source.
        let mk = |a: f32, b: f32| toy_embedding(&[&[a, b]], &[&[a, b], &[b, a], &[a, -b]]);
        let am = AffinityMatrix::build(&[mk(1.0, 0.0), mk(0.6, 0.8), mk(0.0, 1.0)], 1);
        assert_eq!(am.alpha, 3);
        let restricted = am.restrict_functions(&[0, 2]);
        assert_eq!((restricted.alpha, restricted.n), (2, 3));
        assert_eq!(restricted.data.shape(), (3, 6));
        assert_eq!(restricted.function_block(0), am.function_block(0));
        assert_eq!(restricted.function_block(1), am.function_block(2));
    }

    #[test]
    fn prototype_bank_rows_match_full_matrix() {
        // The out-of-sample row path must agree exactly with the batch build
        // when the "queries" are the training images themselves.
        let net = Vgg16::new(&VggConfig::tiny(), 5);
        let images: Vec<Image> = (0..6)
            .map(|i| {
                let mut img = Image::filled(3, 32, 32, 0.25);
                draw::fill_disc(&mut img, 6.0 + 3.0 * i as f32, 14.0, 5.0, &[0.8, 0.4, 0.2]);
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let embs = embed_images(&net, &refs, 3, 1, false);
        let am = AffinityMatrix::build(&embs, 2);
        let bank = PrototypeBank::from_embeddings(&embs);
        assert_eq!(bank.alpha(), am.alpha);
        let rows = bank.affinity_rows(&embs, 3);
        assert_eq!(f64_bits(&rows), f64_bits(&am.data));
        // A strict subset of queries reproduces the matching rows.
        let sub = bank.affinity_rows(&embs[2..4], 1);
        assert_eq!(sub.shape(), (2, am.alpha * am.n));
        for (q, i) in (2..4).enumerate() {
            for c in 0..sub.cols() {
                assert_eq!(sub[(q, c)], am.data[(i, c)]);
            }
        }
    }

    /// Affinity rows of `queries` against every stacked prototype with no
    /// deduplication: one `colmax_matmul_panel_f32` per layer over all
    /// `n·z` rows, scattered into the `f·N + j` layout.
    fn undeduplicated_rows(bank: &PrototypeBank, queries: &[ImageEmbedding]) -> Matrix<f64> {
        let (n, z) = (bank.n, bank.z_per_layer);
        let mut data = Matrix::<f64>::zeros(queries.len(), bank.alpha() * n);
        let mut scratch = goggles_tensor::ColmaxScratch::default();
        for (q, query) in queries.iter().enumerate() {
            for (layer, protos) in bank.stacked.iter().enumerate() {
                let panel = goggles_tensor::ColmaxPanel::new(protos.as_slice(), protos.cols());
                let mut best = vec![0.0f32; protos.rows()];
                goggles_tensor::colmax_matmul_panel_f32(
                    &mut scratch,
                    query.layers[layer].patches.as_slice(),
                    protos.as_slice(),
                    &panel,
                    0,
                    &mut best,
                );
                for (s, v) in best.iter().enumerate() {
                    data[(q, (layer * z + s % z) * n + s / z)] = f64::from(*v);
                }
            }
        }
        data
    }

    #[test]
    fn deduplicated_rows_match_undeduplicated_kernel_bit_for_bit() {
        // The tiny backbone's pool5 is 1×1, so its Z prototypes per image
        // are all one location, repeated. Planted on top: rows differing
        // only by the sign of zeros (all +0.0 against all -0.0, which the
        // tall path sums to different zeros), NaN rows with different
        // payloads, and a bit-exact copy of a NaN row, which alone may merge.
        let z = 4;
        let net = Vgg16::new(&VggConfig::tiny(), 13);
        let images: Vec<Image> = (0..4)
            .map(|i| {
                let mut img = Image::filled(3, 32, 32, 0.2);
                draw::fill_disc(&mut img, 8.0 + 4.0 * i as f32, 15.0, 5.0, &[0.6, 0.9, 0.1]);
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let mut embs = embed_images(&net, &refs, z, 1, false);
        let nan_a = f32::NAN;
        let nan_b = f32::from_bits(f32::NAN.to_bits() | 1);
        // Layer 0 (tall path: 256 patches × 4 channels) and layer 3 (wide
        // path: 4 patches × 16 channels).
        for layer in [0, 3] {
            let protos = &mut embs[1].layers[layer].prototypes;
            protos.row_mut(0).fill(0.0);
            protos.row_mut(1).fill(-0.0);
            protos.row_mut(2).fill(nan_a);
            protos.row_mut(3).fill(nan_b);
            let protos = &mut embs[2].layers[layer].prototypes;
            protos.row_mut(0).fill(nan_a);
            protos.row_mut(1).fill(nan_a);
        }
        let bank = PrototypeBank::from_embeddings(&embs);
        let stacked = PrototypeBank::from_stacked(bank.stacked.clone(), bank.n, z).unwrap();
        for b in [&bank, &stacked] {
            // pool5: one distinct row per image.
            assert_eq!(b.layers[4].panel.rows(), bank.n);
            assert_eq!(b.layers[4].slots, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
            for layer in [0, 3] {
                // Image 1's four planted rows stay four; image 2's NaN copy
                // merges with its original.
                let slots = &b.layers[layer].slots;
                let first = slots[4] as usize;
                assert_eq!(slots[4..8], [0, 1, 2, 3].map(|d| (first + d) as u32), "layer {layer}");
                assert_eq!(slots[8], slots[9], "layer {layer}");
                assert!(slots[10] > slots[9], "layer {layer}");
            }
        }
        let oracle = undeduplicated_rows(&bank, &embs);
        for b in [&bank, &stacked] {
            for threads in [1, 2, 3] {
                let rows = b.affinity_rows(&embs, threads);
                assert_eq!(f64_bits(&rows), f64_bits(&oracle), "threads = {threads}");
            }
        }
        // The planted signed zeros reach the output as different zeros.
        let zero_col = |r: usize| (r * bank.n) + 1;
        assert_eq!(oracle[(0, zero_col(0))].to_bits(), 0.0f64.to_bits());
        assert_eq!(oracle[(0, zero_col(1))].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn from_stacked_validates_geometry() {
        let layer = Matrix::<f32>::zeros(6, 4); // N·Z = 3·2
        let bank = PrototypeBank::from_stacked(vec![layer.clone()], 3, 2).unwrap();
        assert_eq!(bank.alpha(), 2);
        assert_eq!(bank.n, 3);
        // wrong row count, empty channel axis, and empty banks are rejected
        assert!(PrototypeBank::from_stacked(vec![Matrix::<f32>::zeros(5, 4)], 3, 2).is_err());
        assert!(PrototypeBank::from_stacked(vec![Matrix::<f32>::zeros(6, 0)], 3, 2).is_err());
        assert!(PrototypeBank::from_stacked(vec![], 3, 2).is_err());
        assert!(PrototypeBank::from_stacked(vec![layer.clone()], 0, 2).is_err());
        assert!(PrototypeBank::from_stacked(vec![layer], 3, 0).is_err());
    }

    #[test]
    fn prototype_bank_empty_queries() {
        let e0 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0]]);
        let bank = PrototypeBank::from_embeddings(&[e0]);
        let rows = bank.affinity_rows(&[], 4);
        assert_eq!(rows.shape(), (0, 1));
    }

    #[test]
    fn library_enumerates_layer_major() {
        let lib = AffinityFunction::library(5, 10);
        assert_eq!(lib.len(), 50);
        assert_eq!(lib[0], AffinityFunction { layer: 0, z: 0 });
        assert_eq!(lib[10], AffinityFunction { layer: 1, z: 0 });
        assert_eq!(lib[49], AffinityFunction { layer: 4, z: 9 });
        assert_eq!(format!("{}", lib[10]), "f[L2:z1]");
    }

    #[test]
    fn library_tracks_bank_layer_count() {
        // A non-5-layer geometry must stay in sync with the bank's α
        // (regression: the layer count used to be hardcoded to 5).
        let e0 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0], &[0.0, 1.0]]);
        let bank = PrototypeBank::from_embeddings(&[e0]);
        let lib = AffinityFunction::library(bank.stacked.len(), bank.z_per_layer);
        assert_eq!(lib.len(), bank.alpha());
        assert_eq!(lib.len(), 2);
        for (f, func) in lib.iter().enumerate() {
            assert_eq!(func.layer * bank.z_per_layer + func.z, f);
        }
    }

    #[test]
    #[should_panic(expected = "embedding 1 has 2 layers but embedding 0 has 1")]
    fn from_embeddings_rejects_layer_count_mismatch() {
        let e0 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0]]);
        let mut e1 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0]]);
        e1.layers.push(e1.layers[0].clone());
        PrototypeBank::from_embeddings(&[e0, e1]);
    }

    #[test]
    #[should_panic(expected = "embedding 1 layer 0 has 2 prototypes but embedding 0 has Z = 1")]
    fn from_embeddings_rejects_prototype_count_mismatch() {
        // The extra prototype used to be silently truncated to Z.
        let e0 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0]]);
        let e1 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0], &[0.0, 1.0]]);
        PrototypeBank::from_embeddings(&[e0, e1]);
    }

    #[test]
    #[should_panic(expected = "prototype dim 3 but embedding 0 has 2")]
    fn from_embeddings_rejects_channel_width_mismatch() {
        let e0 = toy_embedding(&[&[1.0, 0.0]], &[&[1.0, 0.0]]);
        let e1 = toy_embedding(&[&[1.0, 0.0, 0.0]], &[&[1.0, 0.0, 0.0]]);
        PrototypeBank::from_embeddings(&[e0, e1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn restrict_functions_rejects_duplicates() {
        let mk = |a: f32, b: f32| toy_embedding(&[&[a, b]], &[&[a, b], &[b, a]]);
        let am = AffinityMatrix::build(&[mk(1.0, 0.0), mk(0.0, 1.0)], 1);
        am.restrict_functions(&[1, 1]);
    }

    #[test]
    fn affinity_rows_bit_identical_across_thread_counts() {
        // Covers both paths: serial (threads = 1 or m < threads) and
        // row-parallel (m ≥ threads). Every combination must produce
        // bit-identical output.
        let net = Vgg16::new(&VggConfig::tiny(), 7);
        let images: Vec<Image> = (0..3)
            .map(|i| {
                let mut img = Image::filled(3, 32, 32, 0.3);
                draw::fill_disc(&mut img, 7.0 + 4.0 * i as f32, 15.0, 4.0, &[0.7, 0.2, 0.4]);
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let embs = embed_images(&net, &refs, 3, 1, false);
        let bank = PrototypeBank::from_embeddings(&embs);
        let serial = bank.affinity_rows(&embs[..2], 1);
        for threads in [2, 3, 5, 8] {
            let parallel = bank.affinity_rows(&embs[..2], threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // The single-query online case runs serially for any budget.
        let one = bank.affinity_rows(&embs[..1], 1);
        for threads in [2, 4, 7] {
            assert_eq!(one, bank.affinity_rows(&embs[..1], threads), "m=1 threads={threads}");
        }
    }

    #[test]
    fn blocked_rows_match_scalar_reference() {
        // End-to-end agreement of the blocked kernel path (all thread
        // shapes) with the original scalar triple loop, within 1e-5.
        let net = Vgg16::new(&VggConfig::tiny(), 9);
        let images: Vec<Image> = (0..4)
            .map(|i| {
                let mut img = Image::filled(3, 32, 32, 0.22);
                draw::fill_disc(&mut img, 9.0 + 3.0 * i as f32, 17.0, 5.0, &[0.3, 0.8, 0.2]);
                img
            })
            .collect();
        let refs: Vec<&Image> = images.iter().collect();
        let embs = embed_images(&net, &refs, 4, 1, true);
        let bank = PrototypeBank::from_embeddings(&embs);
        let reference = bank.affinity_rows_reference(&embs);
        for threads in [1, 2, 8] {
            let blocked = bank.affinity_rows(&embs, threads);
            let diff = blocked.max_abs_diff(&reference);
            assert!(diff < 1e-5, "threads = {threads}: diff = {diff}");
        }
    }
}
