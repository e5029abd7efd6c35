//! Campaign results: per-scenario outcomes and aggregate views.

use crate::app::{AppError, ExperimentOutcome};
use crate::campaign::spec::{RunMode, ScenarioSpec};
use sdl_datapub::AcdcPortal;
use std::fmt::Write as _;
use std::sync::Arc;

/// One scenario's spec plus what happened when it ran.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario as submitted.
    pub spec: ScenarioSpec,
    /// Position in the campaign's input order.
    pub index: usize,
    /// The outcome (an `Err` records the failure without sinking the
    /// campaign's other scenarios).
    pub outcome: Result<ExperimentOutcome, AppError>,
}

impl ScenarioResult {
    /// The scenario's label.
    pub fn label(&self) -> &str {
        &self.spec.label
    }

    /// The outcome, panicking with the label on failure.
    pub fn expect_outcome(&self) -> &ExperimentOutcome {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("scenario '{}' failed: {e}", self.spec.label),
        }
    }
}

/// Everything a finished campaign reports.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-scenario results, in input order.
    pub results: Vec<ScenarioResult>,
    /// The portal every scenario summary streamed into.
    pub portal: Arc<AcdcPortal>,
    /// Worker threads the campaign ran on (informational; results do not
    /// depend on it).
    pub threads: usize,
}

impl CampaignReport {
    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when the campaign had no scenarios.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Iterate over successful outcomes with their labels, panicking on the
    /// first failed scenario.
    pub fn expect_all(&self) -> impl Iterator<Item = (&str, &ExperimentOutcome)> {
        self.results.iter().map(|r| (r.spec.label.as_str(), r.expect_outcome()))
    }

    /// Final best scores of every scenario whose label starts with `prefix`
    /// (failed scenarios are skipped).
    pub fn best_scores_with_prefix(&self, prefix: &str) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.spec.label.starts_with(prefix))
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.best_score)
            .collect()
    }

    /// The result with exactly this label.
    pub fn by_label(&self, label: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.spec.label == label)
    }

    /// Total degenerate-surrogate fallbacks across all completed scenarios
    /// — nonzero means some proposals silently degraded to random search.
    pub fn solver_fallbacks(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.solver_fallbacks)
            .sum()
    }

    /// Decompose into `(label, outcome)` pairs in input order, adapting the
    /// pre-campaign `run_sweep` return shape.
    pub fn into_label_outcomes(self) -> Vec<(String, Result<ExperimentOutcome, AppError>)> {
        self.results.into_iter().map(|r| (r.spec.label, r.outcome)).collect()
    }

    /// Render a fixed-width summary table of every scenario.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>10} {:>8} {:>7}",
            "scenario", "duration", "best", "samples", "plates"
        );
        let _ = writeln!(out, "{:-<70}", "");
        for r in &self.results {
            match &r.outcome {
                Ok(o) => {
                    let _ = writeln!(
                        out,
                        "{:<28} {:>12} {:>10.2} {:>8} {:>7}",
                        r.spec.label,
                        o.duration.to_string(),
                        o.best_score,
                        o.samples_measured,
                        o.plates_used
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<28} FAILED: {e}", r.spec.label);
                }
            }
        }
        out
    }

    /// A canonical fingerprint of every result: identical fingerprints mean
    /// bit-identical campaign outcomes (scores are rendered via their IEEE
    /// bit patterns, so even sub-ULP drift is caught). Used by the
    /// determinism suite to compare runs at different thread counts.
    /// Multi-OT2 scenarios print their per-handler split instead of the
    /// trajectory.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let _ = write!(out, "{}|{}|", r.index, r.spec.label);
            match &r.outcome {
                Ok(o) => {
                    let _ = write!(
                        out,
                        "best={:016x} dur={} n={} plates={} cmds={}",
                        o.best_score.to_bits(),
                        o.duration.as_micros(),
                        o.samples_measured,
                        o.plates_used,
                        o.counters.robotic_completed
                    );
                    if let RunMode::MultiOt2(_) = r.spec.mode {
                        let _ = write!(out, " per={:?}", o.per_handler_samples);
                    } else {
                        for p in &o.trajectory {
                            let _ = write!(
                                out,
                                " {}:{:016x}:{:016x}",
                                p.sample,
                                p.score.to_bits(),
                                p.best.to_bits()
                            );
                        }
                    }
                }
                Err(e) => {
                    let _ = write!(out, "error={e}");
                }
            }
            out.push('\n');
        }
        out
    }
}
