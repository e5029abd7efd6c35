//! Fidelity sweep — the camera's cost/accuracy axis as one scenario matrix.
//!
//! DriveNetBench-style camera benchmarks make resolution a *configurable*
//! axis so a sweep stays affordable; this example does the same for the
//! simulated rig. One declarative campaign races the three camera
//! fidelity profiles (the frozen `full` reference renderer, the
//! counter-based `fast` default, and quarter-resolution `lowres`) over a
//! seed axis, then reports what each profile costs in wall-clock time and
//! what it pays in solver-visible accuracy.
//!
//! ```text
//! cargo run --release --example fidelity_sweep
//! ```

use sdl_lab::core::{CampaignConfig, CampaignRunner};
use sdl_lab::vision::Fidelity;
use std::time::Instant;

/// The same declarative document `sdl-lab campaign --config` would take:
/// a `fidelities:` axis over a small genetic-solver base config.
const MATRIX: &str = "\
name: fidelity-sweep
samples: 32
batch: 4
solver: genetic
seed: 7
seeds: 3
fidelities: [full, fast, lowres]
publish_images: false
";

fn main() {
    let config = CampaignConfig::from_yaml(MATRIX).expect("matrix parses");
    let scenarios = config.scenarios();
    println!("running {} scenarios (3 fidelity profiles x 3 seeds)...\n", scenarios.len());

    let mut rows = Vec::new();
    for profile in Fidelity::ALL {
        let subset: Vec<_> =
            scenarios.iter().filter(|s| s.config.fidelity == profile).cloned().collect();
        let n = subset.len();
        let t = Instant::now();
        let report = CampaignRunner::new().threads(1).run(subset);
        let wall = t.elapsed().as_secs_f64();
        let scores: Vec<f64> =
            report.results.iter().map(|r| r.expect_outcome().best_score).collect();
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        rows.push((profile, wall, n, mean));
    }

    println!("{:<8} {:>12} {:>16} {:>12}", "profile", "wall (s)", "samples/s", "mean best");
    let full_wall = rows[0].1;
    for (profile, wall, n, mean) in &rows {
        println!(
            "{:<8} {:>12.2} {:>16.1} {:>12.2}   ({:.1}x vs full)",
            profile.name(),
            wall,
            (*n as f64 * 32.0) / wall,
            mean,
            full_wall / wall
        );
    }
    println!(
        "\nSame seeds, same solver, same chemistry — only the camera changed. \
         The fast profile keeps full-resolution accuracy; lowres trades a little \
         accuracy for another big step in throughput."
    );
}
