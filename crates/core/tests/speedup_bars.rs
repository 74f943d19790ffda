//! Speedup bars of the two hot paths against their retained scalar
//! references, at quick-scale geometry (tiny backbone, 32×32, Z = 4,
//! N = 32):
//!
//! - a full single-image embedding (tiled-GEMM trunk + extraction) must be
//!   at least 2.5× faster than the naive trunk + the same extraction;
//! - one `1 × αN` affinity row on one thread must be at least 2× faster
//!   than the pre-blocking scalar reference.
//!
//! Wall-clock assertions only mean something on an optimized, otherwise
//! idle build, so both tests are `#[ignore]`d; run them with
//!
//! ```text
//! cargo test --release -p goggles-core --test speedup_bars -- --ignored --test-threads=1
//! ```
//!
//! Correctness of both fast paths against their references is checked by
//! the regular suite (`conv_gemm.rs`, `affinity::tests`).

use goggles_cnn::ConvScratch;
use goggles_core::prototypes::{embed_from_taps, embed_image_with, embed_images};
use goggles_core::{Goggles, GogglesConfig, PrototypeBank};
use goggles_datasets::{generate, Dataset, TaskConfig, TaskKind};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each fast path; the slow references get fewer.
const REPS: usize = 15;

/// A quick-scale CUB task (16 training images per class → N = 32) and the
/// matching GOGGLES system.
fn quick_fixture(seed: u64) -> (Dataset, Goggles) {
    let mut task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 16, 8, seed);
    task.image_size = 32;
    let goggles = Goggles::new(GogglesConfig { seed, ..GogglesConfig::fast() });
    (generate(&task), goggles)
}

/// Median wall-clock of `reps` calls to `f`, in milliseconds (one warmup
/// call excluded).
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

#[test]
#[ignore = "wall-clock bar; run in release with --ignored --test-threads=1"]
fn gemm_embedding_is_at_least_2_5x_the_scalar_path() {
    let (ds, goggles) = quick_fixture(23);
    let (net, config) = (goggles.backbone(), goggles.config());
    let query = ds.test_images()[0];
    let mut arena = ConvScratch::new();
    let fast_ms = median_ms(REPS, || {
        embed_image_with(net, &mut arena, query, config.top_z, config.center_patches)
    });
    let naive_ms = median_ms(7, || {
        embed_from_taps(&net.forward_pool_taps_naive(query), config.top_z, config.center_patches)
    });
    let speedup = naive_ms / fast_ms;
    println!("embed: naive {naive_ms:.3} ms, gemm {fast_ms:.3} ms, {speedup:.1}×");
    assert!(speedup >= 2.5, "single-image embedding speedup {speedup:.2}× below the 2.5× bar");
}

#[test]
#[ignore = "wall-clock bar; run in release with --ignored --test-threads=1"]
fn blocked_affinity_row_is_at_least_2x_the_scalar_reference() {
    let (ds, goggles) = quick_fixture(17);
    let config = goggles.config();
    let embeddings = embed_images(
        goggles.backbone(),
        &ds.train_images(),
        config.top_z,
        config.threads,
        config.center_patches,
    );
    let bank = PrototypeBank::from_embeddings(&embeddings);
    assert_eq!(bank.n, 32);
    let query = &embeddings[..1];
    let naive_ms = median_ms(REPS, || bank.affinity_rows_reference(query));
    let blocked_ms = median_ms(REPS, || bank.affinity_rows(query, 1));
    let speedup = naive_ms / blocked_ms;
    println!("affinity row: reference {naive_ms:.3} ms, blocked {blocked_ms:.3} ms, {speedup:.1}×");
    assert!(speedup >= 2.0, "single-row affinity speedup {speedup:.2}× below the 2× bar");
}
