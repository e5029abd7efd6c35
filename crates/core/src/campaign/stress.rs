//! The ColorBench-style stress suite: a built-in campaign matrix that
//! probes every solver under perceptual objectives and adversarial
//! observation conditions — illumination drift, sensor-gain drift,
//! multiple acceptable targets and a target that moves mid-experiment.
//!
//! [`StressSuite`] expands `objectives × stress kinds × solvers × seeds`
//! into ordinary [`ScenarioSpec`]s, so the suite runs through the exact
//! same campaign machinery as any declarative matrix (thread pool or
//! distributed scheduler, event logs, resume, fingerprints).
//! [`Leaderboard`] then folds a finished [`CampaignReport`] back into a
//! per-solver ranking: within each *cell* — one (objective, stress kind,
//! seed) triple — every solver faced identical conditions, so ranking by
//! score inside the cell and averaging ranks across cells compares
//! solvers without letting an easy cell drown out a hard one.

use crate::campaign::report::CampaignReport;
use crate::campaign::spec::ScenarioSpec;
use crate::config::AppConfig;
use sdl_color::{Objective, Rgb8};
use sdl_conf::Value;
use sdl_datapub::AcdcPortal;
use sdl_solvers::SolverKind;
use sdl_vision::{DriftSpec, Fidelity};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One adversarial condition in the stress matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressKind {
    /// The unmodified base configuration (control group).
    Baseline,
    /// Periodic white-balance (illumination-tint) drift on the camera.
    WbDrift,
    /// Periodic sensor-gain (exposure) drift on the camera.
    GainDrift,
    /// Several acceptable targets: the score is the best match against
    /// any of them (the solver only observes scores, so it must cope
    /// with a multi-modal landscape).
    MultiTarget,
    /// The target interpolates to a different color over the budget, so
    /// early observations go stale.
    MovingTarget,
}

impl StressKind {
    /// Every stress kind, in canonical (label and report) order.
    pub const ALL: [StressKind; 5] = [
        StressKind::Baseline,
        StressKind::WbDrift,
        StressKind::GainDrift,
        StressKind::MultiTarget,
        StressKind::MovingTarget,
    ];

    /// Name as used in scenario labels and leaderboard cells (contains
    /// no `/`, so labels stay splittable).
    pub fn name(self) -> &'static str {
        match self {
            StressKind::Baseline => "baseline",
            StressKind::WbDrift => "wb-drift",
            StressKind::GainDrift => "gain-drift",
            StressKind::MultiTarget => "multi-target",
            StressKind::MovingTarget => "moving-target",
        }
    }

    /// Parse the name produced by [`StressKind::name`].
    pub fn parse(s: &str) -> Option<StressKind> {
        StressKind::ALL.into_iter().find(|k| k.name() == s.trim().to_ascii_lowercase())
    }

    /// The names [`StressKind::parse`] accepts, for error messages.
    pub fn valid_names() -> String {
        StressKind::ALL.map(StressKind::name).join(", ")
    }

    /// Impose this condition on a base configuration. Deterministic: the
    /// perturbation derives only from fields already in `config`.
    ///
    /// Drift kinds downgrade a `full`-fidelity camera to `fast` — the
    /// frozen reference renderer refuses drift by design, and the suite
    /// must keep the control (`baseline`) cell on whatever fidelity the
    /// base requested while still exercising drift elsewhere.
    pub fn apply(self, config: &mut AppConfig) {
        let [r, g, b] = config.target.channels();
        match self {
            StressKind::Baseline => {}
            StressKind::WbDrift => {
                config.drift = Some(DriftSpec::WB);
                if config.fidelity == Fidelity::Full {
                    config.fidelity = Fidelity::Fast;
                }
            }
            StressKind::GainDrift => {
                config.drift = Some(DriftSpec::GAIN);
                if config.fidelity == Fidelity::Full {
                    config.fidelity = Fidelity::Fast;
                }
            }
            StressKind::MultiTarget => {
                // The complement plus a wrapping channel shift: both are
                // guaranteed distinct from the target in every channel
                // (255 - r == r has no u8 solution; wrapping_add(85) is
                // never the identity), so the landscape really is
                // multi-modal even for achromatic targets.
                config.target_set = vec![
                    Rgb8::new(255 - r, 255 - g, 255 - b),
                    Rgb8::new(b.wrapping_add(85), r.wrapping_add(85), g.wrapping_add(85)),
                ];
            }
            StressKind::MovingTarget => {
                // Wrapping offsets keep the endpoint distinct from the
                // start in every channel, for any target (a pure channel
                // rotation would be the identity on achromatic targets).
                config.target_to =
                    Some(Rgb8::new(r.wrapping_add(90), g.wrapping_sub(70), b.wrapping_add(50)));
            }
        }
    }
}

impl std::fmt::Display for StressKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The built-in stress matrix: `objectives × kinds × solvers × seeds`,
/// expanded over a base configuration.
#[derive(Debug, Clone)]
pub struct StressSuite {
    /// Base configuration every cell starts from (its `solver`,
    /// `objective` and `seed` are overridden per scenario).
    pub base: AppConfig,
    /// Solvers under comparison (ranked against each other per cell).
    pub solvers: Vec<SolverKind>,
    /// Objectives to score under.
    pub objectives: Vec<Objective>,
    /// Stress conditions to impose.
    pub kinds: Vec<StressKind>,
    /// Master seeds; each is one replication of the full matrix.
    pub seeds: Vec<u64>,
}

impl StressSuite {
    /// The default suite over `base`: four search strategies (the
    /// deterministic `grid` and the oracle `analytic` are excluded —
    /// they would win or lose every cell identically), three objectives
    /// spanning the metric families (RGB-Euclidean control, CIEDE2000,
    /// CAM16-UCS), all five stress kinds, two seeds.
    pub fn new(mut base: AppConfig) -> StressSuite {
        base.publish_images = false;
        StressSuite {
            solvers: vec![
                SolverKind::Genetic,
                SolverKind::Bayesian,
                SolverKind::Random,
                SolverKind::Annealing,
            ],
            objectives: vec![Objective::Rgb, Objective::Ciede2000, Objective::Cam16Ucs],
            kinds: StressKind::ALL.to_vec(),
            seeds: vec![base.seed, base.seed.wrapping_add(1)],
            base,
        }
    }

    /// Number of scenarios the suite expands to.
    pub fn len(&self) -> usize {
        self.objectives.len() * self.kinds.len() * self.solvers.len() * self.seeds.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the matrix into ordinary campaign scenarios, labelled
    /// `stress/{objective}/{kind}/{solver}/s{seed}` (the label is what
    /// [`Leaderboard::from_report`] later parses the stress kind back out
    /// of). Row-major with seed fastest, so every solver×seed block of
    /// one cell group is contiguous.
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::with_capacity(self.len());
        for &objective in &self.objectives {
            for &kind in &self.kinds {
                for &solver in &self.solvers {
                    for &seed in &self.seeds {
                        let mut config = self.base.clone();
                        config.objective = objective;
                        config.solver = solver;
                        config.custom_solver = None;
                        config.seed = seed;
                        kind.apply(&mut config);
                        let label = format!(
                            "stress/{}/{}/{}/s{seed}",
                            objective.name(),
                            kind.name(),
                            solver.name()
                        );
                        out.push(ScenarioSpec::new(label, config));
                    }
                }
            }
        }
        out
    }
}

impl Default for StressSuite {
    fn default() -> StressSuite {
        StressSuite::new(AppConfig::default())
    }
}

/// One solver's aggregate standing across every stress cell it ran in.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Solver label (as recorded in the scenario configs).
    pub solver: String,
    /// Cells this solver completed (failed scenarios don't count).
    pub cells: usize,
    /// Cells this solver won outright (rank 1).
    pub wins: usize,
    /// Mean within-cell rank (1.0 = won every cell; lower is better).
    pub mean_rank: f64,
    /// Mean best score, normalized by each objective's scale so RGB and
    /// ΔE cells average in comparable units.
    pub mean_score: f64,
}

/// Per-solver ranking folded out of a stress-suite campaign report.
///
/// A *cell* is one (objective, stress kind, seed) triple — inside it,
/// every solver faced identical conditions, so the within-cell order of
/// best scores is a fair comparison. Scores are normalized by
/// [`Objective::scale`] before any cross-cell averaging.
#[derive(Debug, Clone)]
pub struct Leaderboard {
    /// Rows sorted best first (by mean rank, then mean score, then name).
    pub rows: Vec<LeaderboardRow>,
    /// Number of distinct cells that produced at least one result.
    pub cells: usize,
    /// Stress scenarios that failed (excluded from the ranking).
    pub failed: usize,
}

impl Leaderboard {
    /// Fold a campaign report into a leaderboard. Only scenarios labelled
    /// `stress/{objective}/{kind}/{solver}/s{seed}` participate; anything
    /// else in the report is ignored, so a stress suite can share a
    /// portal with other work.
    pub fn from_report(report: &CampaignReport) -> Leaderboard {
        // Cell key -> (solver, normalized best score). BTreeMap keeps the
        // fold order — and therefore tie-breaks and float summation —
        // independent of scenario completion order.
        let mut cells: BTreeMap<(String, String, u64), Vec<(String, f64)>> = BTreeMap::new();
        let mut failed = 0usize;
        for result in &report.results {
            let mut parts = result.spec.label.split('/');
            if parts.next() != Some("stress") {
                continue;
            }
            let config = &result.spec.config;
            let Some(kind) = parts.nth(1) else { continue };
            match &result.outcome {
                Ok(outcome) => {
                    let norm = outcome.best_score / config.objective.scale();
                    cells
                        .entry((config.objective.name().to_string(), kind.to_string(), config.seed))
                        .or_default()
                        .push((config.solver_label().to_string(), norm));
                }
                Err(_) => failed += 1,
            }
        }

        #[derive(Default)]
        struct Acc {
            cells: usize,
            wins: usize,
            rank_sum: f64,
            score_sum: f64,
        }
        let n_cells = cells.len();
        let mut acc: BTreeMap<String, Acc> = BTreeMap::new();
        for entries in cells.into_values() {
            let mut entries = entries;
            entries.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            for (i, (solver, score)) in entries.into_iter().enumerate() {
                let a = acc.entry(solver).or_default();
                a.cells += 1;
                a.wins += (i == 0) as usize;
                a.rank_sum += (i + 1) as f64;
                a.score_sum += score;
            }
        }

        let mut rows: Vec<LeaderboardRow> = acc
            .into_iter()
            .map(|(solver, a)| LeaderboardRow {
                solver,
                cells: a.cells,
                wins: a.wins,
                mean_rank: a.rank_sum / a.cells as f64,
                mean_score: a.score_sum / a.cells as f64,
            })
            .collect();
        rows.sort_by(|a, b| {
            a.mean_rank
                .total_cmp(&b.mean_rank)
                .then_with(|| a.mean_score.total_cmp(&b.mean_score))
                .then_with(|| a.solver.cmp(&b.solver))
        });
        Leaderboard { rows, cells: n_cells, failed }
    }

    /// Render the leaderboard as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>6} {:>7} {:>12}",
            "solver", "mean rank", "wins", "cells", "mean score"
        );
        let _ = writeln!(out, "{:-<51}", "");
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10.2} {:>6} {:>7} {:>12.2}",
                row.solver, row.mean_rank, row.wins, row.cells, row.mean_score
            );
        }
        let _ = write!(out, "({} cells, {} failed scenario(s))", self.cells, self.failed);
        out
    }

    /// The leaderboard as a portal record (`kind: stress_leaderboard`).
    pub fn to_value(&self) -> Value {
        let mut v = Value::map();
        v.set("kind", "stress_leaderboard");
        v.set("cells", self.cells as i64);
        v.set("failed", self.failed as i64);
        let mut rows = Value::seq();
        for row in &self.rows {
            let mut r = Value::map();
            r.set("solver", row.solver.as_str());
            r.set("mean_rank", row.mean_rank);
            r.set("wins", row.wins as i64);
            r.set("cells", row.cells as i64);
            r.set("mean_score", row.mean_score);
            rows.push(r);
        }
        v.set("rows", rows);
        v
    }

    /// Ingest the leaderboard record into a portal.
    pub fn publish(&self, portal: &AcdcPortal) {
        portal.ingest(self.to_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::runner::CampaignRunner;
    use sdl_conf::ValueExt;

    fn tiny_suite() -> StressSuite {
        let mut suite = StressSuite::new(AppConfig {
            sample_budget: 4,
            batch: 2,
            seed: 11,
            publish_images: false,
            ..AppConfig::default()
        });
        suite.solvers = vec![SolverKind::Random, SolverKind::Genetic];
        suite.objectives = vec![Objective::Rgb, Objective::Ciede2000];
        suite.kinds = vec![StressKind::Baseline, StressKind::WbDrift, StressKind::MovingTarget];
        suite.seeds = vec![11];
        suite
    }

    #[test]
    fn suite_expands_the_full_matrix_with_parsable_labels() {
        let suite = tiny_suite();
        let scenarios = suite.scenarios();
        assert_eq!(scenarios.len(), suite.len());
        assert_eq!(scenarios.len(), 2 * 3 * 2);
        for spec in &scenarios {
            let parts: Vec<&str> = spec.label.split('/').collect();
            assert_eq!(parts.len(), 5, "{}", spec.label);
            assert_eq!(parts[0], "stress");
            assert_eq!(parts[1], spec.config.objective.name());
            assert!(StressKind::parse(parts[2]).is_some(), "{}", spec.label);
            assert_eq!(parts[3], spec.config.solver_label());
            assert_eq!(parts[4], format!("s{}", spec.config.seed));
        }
        // The baseline cell is untouched; drift cells carry drift.
        let baseline = &scenarios[0];
        assert_eq!(baseline.config.drift, None);
        assert_eq!(baseline.config.target_to, None);
        let drifted = scenarios.iter().find(|s| s.label.contains("/wb-drift/")).unwrap();
        assert_eq!(drifted.config.drift, Some(DriftSpec::WB));
        let moving = scenarios.iter().find(|s| s.label.contains("/moving-target/")).unwrap();
        assert!(moving.config.target_to.is_some());
    }

    #[test]
    fn drift_kinds_downgrade_the_frozen_reference_renderer() {
        let mut config = AppConfig { fidelity: Fidelity::Full, ..AppConfig::default() };
        StressKind::GainDrift.apply(&mut config);
        assert_eq!(config.fidelity, Fidelity::Fast);
        assert_eq!(config.drift, Some(DriftSpec::GAIN));
        // Non-drift kinds leave the requested fidelity alone.
        let mut config = AppConfig { fidelity: Fidelity::Full, ..AppConfig::default() };
        StressKind::MultiTarget.apply(&mut config);
        assert_eq!(config.fidelity, Fidelity::Full);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in StressKind::ALL {
            assert_eq!(StressKind::parse(kind.name()), Some(kind));
            assert!(StressKind::valid_names().contains(kind.name()));
            assert!(!kind.name().contains('/'));
        }
        assert_eq!(StressKind::parse("vibes"), None);
    }

    #[test]
    fn leaderboard_ranks_solvers_within_cells() {
        let suite = tiny_suite();
        let report = CampaignRunner::new().threads(2).run(suite.scenarios());
        let board = Leaderboard::from_report(&report);
        assert_eq!(board.failed, 0);
        // One cell per objective × kind × seed.
        assert_eq!(board.cells, 2 * 3);
        assert_eq!(board.rows.len(), 2);
        for row in &board.rows {
            assert_eq!(row.cells, board.cells, "{} missed cells", row.solver);
            assert!(row.mean_rank >= 1.0 && row.mean_rank <= 2.0, "{}", row.mean_rank);
            assert!(row.mean_score.is_finite());
        }
        // Ranks over N solvers sum to N(N+1)/2 per cell, so mean ranks
        // across the two rows average to 1.5 exactly.
        let total: f64 = board.rows.iter().map(|r| r.mean_rank).sum();
        assert!((total - 3.0).abs() < 1e-9, "{total}");
        // Wins across solvers account for every cell.
        let wins: usize = board.rows.iter().map(|r| r.wins).sum();
        assert_eq!(wins, board.cells);
        // Rows come best-first.
        assert!(board.rows[0].mean_rank <= board.rows[1].mean_rank);

        let table = board.render_table();
        assert!(table.contains("mean rank"), "{table}");

        board.publish(&report.portal);
        let records = report.portal.find("kind", "stress_leaderboard");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].opt_i64("cells"), Some(board.cells as i64));
    }

    #[test]
    fn leaderboard_is_deterministic_across_thread_counts() {
        let suite = tiny_suite();
        let one = CampaignRunner::new().threads(1).run(suite.scenarios());
        let four = CampaignRunner::new().threads(4).run(suite.scenarios());
        assert_eq!(one.fingerprint(), four.fingerprint());
        assert_eq!(Leaderboard::from_report(&one).rows, Leaderboard::from_report(&four).rows);
    }

    #[test]
    fn leaderboard_ignores_non_stress_labels_and_counts_failures() {
        let ok =
            AppConfig { sample_budget: 2, batch: 2, publish_images: false, ..Default::default() };
        let mut specs = vec![ScenarioSpec::new("not-stress", ok.clone())];
        // An unregistered custom solver makes the scenario fail at setup.
        let mut bad = ok.clone();
        bad.custom_solver = Some("no-such-solver".into());
        bad.objective = Objective::Cie76;
        specs.push(ScenarioSpec::new("stress/cie76/baseline/genetic/s1", bad));
        let mut fine = ok;
        fine.objective = Objective::Cie76;
        fine.solver = SolverKind::Random;
        specs.push(ScenarioSpec::new("stress/cie76/baseline/random/s1", fine));
        let report = CampaignRunner::new().threads(1).run(specs);
        let board = Leaderboard::from_report(&report);
        assert_eq!(board.failed, 1);
        assert_eq!(board.cells, 1);
        assert_eq!(board.rows.len(), 1);
        assert_eq!(board.rows[0].solver, "random");
        assert_eq!(board.rows[0].wins, 1);
    }
}
