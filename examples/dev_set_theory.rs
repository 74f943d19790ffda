//! How many labels do you actually need? Reproduces the §4.4 analysis:
//! the Theorem-1 lower bound on the probability that the dev set picks the
//! correct cluster→class mapping (Figure 7), its empirical counterpart on a
//! real pipeline run (Figure 8's mechanism), and the DP-vs-brute-force
//! cross-check.
//!
//! ```text
//! cargo run --release --example dev_set_theory
//! ```

use goggles::core::mapping::{apply_mapping, map_clusters_via_dev_set};
use goggles::core::{theory, translate_dev_to_rows};
use goggles::prelude::*;

fn main() {
    // --- the theory curve (Figure 7) ---
    println!("Theorem 1 lower bound, K = 2:");
    println!("{:>4} {:>6}  {:>8} {:>8} {:>8}", "d", "total", "η=0.7", "η=0.8", "η=0.9");
    for d in [1usize, 2, 4, 6, 8, 10, 15, 20, 25] {
        println!(
            "{:>4} {:>6}  {:>8.4} {:>8.4} {:>8.4}",
            d,
            2 * d,
            theory::p_mapping_correct(0.7, 2, d),
            theory::p_mapping_correct(0.8, 2, d),
            theory::p_mapping_correct(0.9, 2, d),
        );
    }
    let (d_star, m_star) = theory::min_dev_set_size(0.8, 2, 0.95, 100).expect("bound reachable");
    println!("\nη = 0.8 needs d* = {d_star} per class (m* = {m_star} total) for P ≥ 0.95");
    println!("(the paper: \"when η = 0.8, only about 20 examples are required\")");

    // DP vs exhaustive enumeration — the §4.4 complexity claim, verified.
    let dp = theory::p_class_correct(0.8, 3, 6);
    let brute = theory::p_class_correct_brute_force(0.8, 3, 6);
    println!(
        "\nDP {dp:.10} vs brute force {brute:.10} (K=3, d=6) — agree: {}",
        (dp - brute).abs() < 1e-9
    );

    // --- empirical counterpart on a real pipeline (Figure 8 mechanism) ---
    println!("\nempirical mapping success on a CUB task (100 dev resamples per size):");
    let task = TaskConfig::new(TaskKind::Cub { class_a: 0, class_b: 1 }, 24, 4, 3);
    let dataset = generate(&task);
    let goggles = Goggles::new(GogglesConfig::fast());
    let affinity = goggles.build_affinity_matrix(&dataset.train_images());
    // Fit once (unsupervised), then resample dev sets of each size.
    let (_, _, model) =
        goggles.infer_from_affinity(&affinity, &DevSet::empty()).expect("unsupervised fit");
    let truth = dataset.train_labels();
    // The "correct" mapping is whichever maximizes accuracy.
    let acc_of = |g: &[usize]| {
        let mapped = apply_mapping(&model.responsibilities, g);
        let hard: Vec<usize> = (0..mapped.rows())
            .map(|i| if mapped[(i, 0)] >= mapped[(i, 1)] { 0 } else { 1 })
            .collect();
        hard.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    };
    let correct_mapping = if acc_of(&[0, 1]) >= acc_of(&[1, 0]) { vec![0, 1] } else { vec![1, 0] };
    let eta = acc_of(&correct_mapping);
    println!("cluster quality η = {:.3}", eta);
    println!("{:>4} {:>10} {:>10}", "d", "empirical", "theory");
    for d in [1usize, 2, 3, 5] {
        let mut hits = 0;
        for rep in 0..100u64 {
            let dev = dataset.sample_dev_set(d, 1000 + rep);
            let rows = translate_dev_to_rows(&dataset.train_indices, &dev).unwrap();
            if map_clusters_via_dev_set(&model.responsibilities, &rows) == correct_mapping {
                hits += 1;
            }
        }
        let bound = theory::p_mapping_correct(eta.clamp(0.5001, 0.9999), 2, d);
        println!("{:>4} {:>10.2} {:>10.4}", d, hits as f64 / 100.0, bound);
    }
    println!("\nempirical success should dominate the (loose) lower bound — as §4.4 predicts.");
}
