//! Solver shootout — §2.5's claim in miniature, now as a stress suite.
//!
//! The paper implemented a Bayesian optimizer alongside the genetic solver
//! but found it "does not yield a systematic improvement". This example
//! races the search strategies on identical budgets and seeds — not just
//! on the clean RGB objective, but across the full stress matrix:
//! perceptual objectives (CIEDE2000, CAM16-UCS) crossed with camera
//! drift, multi-target and moving-target conditions. The leaderboard
//! ranks solvers within each cell, where every solver faced identical
//! conditions, so no single easy cell can carry a solver.
//!
//! ```text
//! cargo run --release --example solver_shootout
//! ```
//!
//! The same matrix is available from the CLI as `sdl-lab stress`.

use sdl_lab::core::{AppConfig, CampaignRunner, Leaderboard, StressSuite};

fn main() {
    let base =
        AppConfig { sample_budget: 48, batch: 4, publish_images: false, ..AppConfig::default() };
    let suite = StressSuite::new(base);
    println!(
        "racing {} solvers x {} objectives x {} conditions x {} seeds (N={}, B={})...",
        suite.solvers.len(),
        suite.objectives.len(),
        suite.kinds.len(),
        suite.seeds.len(),
        suite.base.sample_budget,
        suite.base.batch
    );
    let report = CampaignRunner::new().run(suite.scenarios());

    let board = Leaderboard::from_report(&report);
    println!("\n{}", board.render_table());

    // The per-cell detail behind the ranks: each solver's best score per
    // (objective, condition) pair, averaged over seeds and normalized by
    // the objective's scale so the columns are comparable.
    println!("\nmean normalized best per condition:");
    print!("{:<12}", "solver");
    for kind in &suite.kinds {
        print!(" {:>13}", kind.name());
    }
    println!();
    for &solver in &suite.solvers {
        print!("{:<12}", solver.name());
        for &kind in &suite.kinds {
            let mut scores = Vec::new();
            for &objective in &suite.objectives {
                for &seed in &suite.seeds {
                    let label = format!(
                        "stress/{}/{}/{}/s{seed}",
                        objective.name(),
                        kind.name(),
                        solver.name()
                    );
                    if let Some(result) = report.by_label(&label) {
                        if let Ok(out) = &result.outcome {
                            scores.push(out.best_score / objective.scale());
                        }
                    }
                }
            }
            let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
            print!(" {:>13.2}", mean);
        }
        println!();
    }
    println!("\nexpect: genetic ≈ bayesian ahead of annealing and random overall, with");
    println!("the gap narrowing under drift (noisy scores) and moving targets (stale");
    println!("early observations).");
}
