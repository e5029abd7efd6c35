//! The campaign engine: every way of running experiments — single runs,
//! batch sweeps, solver comparisons, fault studies, multi-OT2 scaling —
//! goes through one parallel, deterministic runner.
//!
//! * [`ScenarioSpec`] — one fully specified experiment: target color ×
//!   solver × seed × batch × sample budget × workcell × fault profile;
//! * [`CampaignRunner`] — executes a `Vec<ScenarioSpec>` across a
//!   configurable OS-thread pool. Each scenario derives all randomness
//!   from its own spec, so a campaign's results are **bit-identical
//!   regardless of worker-thread count**;
//! * [`CampaignScheduler`] — the distributed flavor: the same scenario
//!   list sharded across a pool of `sdl-lab serve` workers with work
//!   stealing, retry-on-worker-death and the same bit-identical merge;
//! * [`CampaignReport`] — per-scenario outcomes plus aggregate views,
//!   streamed into an [`sdl_datapub::AcdcPortal`] as scenarios finish;
//! * [`CampaignConfig`] — a declarative scenario matrix
//!   (`solvers × seeds × batches × targets × …`) loaded via `sdl-conf`.
//!
//! The legacy sweep helpers ([`run_sweep`], [`batch_sweep`],
//! [`solver_sweep`], [`run_one`]) are thin veneers over the runner.

mod events;
mod progress;
mod publish;
mod queue;
mod report;
mod resume;
mod runner;
mod scheduler;
mod spec;
mod stress;

pub use events::{
    CampaignEvent, EventLog, EventRecord, EventScope, RecoveryReport, ScenarioSummary,
    SingleTelemetry,
};
pub use progress::{ProgressModel, WorkerProgress};
pub use report::{CampaignReport, ScenarioResult};
pub use resume::ResumeStats;
pub use runner::CampaignRunner;
pub use scheduler::{CampaignScheduler, PhaseTimings, SchedulerReport, WorkerStats};
pub use spec::{CampaignConfig, RunMode, ScenarioSpec};
pub use stress::{Leaderboard, LeaderboardRow, StressKind, StressSuite};

use crate::app::{AppError, ColorPickerApp, ExperimentOutcome};
use crate::config::AppConfig;
use sdl_solvers::SolverKind;

/// Run one experiment to completion on the current thread.
pub fn run_one(config: AppConfig) -> Result<ExperimentOutcome, AppError> {
    ColorPickerApp::new(config)?.run()
}

/// A labelled configuration inside a sweep (alias kept for the pre-campaign
/// API; a sweep item *is* a scenario).
pub type SweepItem = ScenarioSpec;

/// Run many experiments in parallel through the campaign engine; results
/// come back in input order.
pub fn run_sweep(items: Vec<ScenarioSpec>) -> Vec<(String, Result<ExperimentOutcome, AppError>)> {
    CampaignRunner::new().run(items).into_label_outcomes()
}

/// The Figure-4 batch sweep: N samples at each batch size, same solver.
pub fn batch_sweep(base: &AppConfig, batches: &[u32]) -> Vec<ScenarioSpec> {
    batches
        .iter()
        .map(|&b| {
            let mut config = base.clone();
            config.batch = b;
            // Per-experiment seed, as in the paper (each experiment's first
            // samples are independently random).
            config.seed = base.seed.wrapping_add(b as u64).wrapping_mul(0x9e37_79b9);
            ScenarioSpec::new(format!("B={b}"), config)
        })
        .collect()
}

/// Solver-comparison sweep: same budget, several seeds per solver.
pub fn solver_sweep(base: &AppConfig, solvers: &[SolverKind], seeds: &[u64]) -> Vec<ScenarioSpec> {
    let mut items = Vec::new();
    for &solver in solvers {
        for &seed in seeds {
            let mut config = base.clone();
            config.solver = solver;
            config.seed = seed;
            items.push(ScenarioSpec::new(format!("{}/seed{}", solver.name(), seed), config));
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AppConfig {
        AppConfig { sample_budget: 6, batch: 3, publish_images: false, ..AppConfig::default() }
    }

    #[test]
    fn sweep_preserves_order_and_labels() {
        let base = small_config();
        let items = batch_sweep(&base, &[1, 2, 3]);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].label, "B=1");
        assert_eq!(items[2].config.batch, 3);
        // Distinct seeds per experiment.
        assert_ne!(items[0].config.seed, items[1].config.seed);
    }

    #[test]
    fn solver_sweep_crosses_solvers_and_seeds() {
        let base = small_config();
        let items = solver_sweep(&base, &[SolverKind::Genetic, SolverKind::Random], &[1, 2, 3]);
        assert_eq!(items.len(), 6);
        assert_eq!(items[0].label, "genetic/seed1");
        assert_eq!(items[5].config.solver, SolverKind::Random);
    }

    #[test]
    fn parallel_sweep_runs_everything() {
        let base = small_config();
        let items = batch_sweep(&base, &[2, 3]);
        let results = run_sweep(items);
        assert_eq!(results.len(), 2);
        for (label, r) in &results {
            let out = r.as_ref().unwrap_or_else(|e| panic!("{label} failed: {e}"));
            assert_eq!(out.samples_measured, 6, "{label}");
        }
    }
}
