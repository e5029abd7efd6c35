//! Batch-size sweep — a scaled-down Figure 4 on the campaign engine.
//!
//! Runs the color picker at several batch sizes in parallel (one simulated
//! lab per worker thread) and prints the time/quality trade-off the paper
//! reports: "experiments with smaller batch sizes achieve lower scores,
//! but take longer to run."
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```

use sdl_lab::core::{batch_sweep, AppConfig, CampaignRunner};

fn main() {
    let base = AppConfig { sample_budget: 64, publish_images: false, ..AppConfig::default() };
    let batches = [1u32, 4, 16, 64];
    println!("running {} experiments of {} samples each...", batches.len(), base.sample_budget);

    let report = CampaignRunner::new().run(batch_sweep(&base, &batches));

    println!(
        "\n{:<6} {:>12} {:>12} {:>10} {:>8}",
        "batch", "duration", "min/color", "best", "plates"
    );
    for result in &report.results {
        let out = result.expect_outcome();
        println!(
            "{:<6} {:>12} {:>12.2} {:>10.2} {:>8}",
            result.label(),
            out.duration.to_string(),
            out.duration.as_minutes() / out.samples_measured as f64,
            out.best_score,
            out.plates_used,
        );
    }
    println!("\nsmaller batches: more feedback per sample, better color, much longer runs.");
}
