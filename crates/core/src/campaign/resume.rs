//! Resume an interrupted campaign from its event log.
//!
//! The log is the source of truth: `campaign_opened` embeds every
//! [`ScenarioSpec`], `sample_published` events carry each measurement
//! bit-exactly, and `scenario_finished` carries the authoritative close
//! telemetry. A resume therefore needs nothing but the log file:
//!
//! 1. **Recover** — [`EventLog::recover`] truncates the file to its
//!    checksum-verified prefix and reopens it for appending.
//! 2. **Replay** — every scenario with a terminal event is rebuilt from
//!    its recorded samples. A single-loop scenario is rebuilt *through the
//!    solver*: the samples feed a [`ReplayBackend`], whose bit-exact
//!    proposal verification proves the log matches what the solver would
//!    do again. A multi-OT2 scenario's flows asked ahead of their tells, so
//!    its samples are told back to a fresh session in logged order. Either
//!    way the session re-grades every sample and republishes its records;
//!    close telemetry that replay cannot see (virtual duration, plate
//!    count, robot command totals, the per-handler split) is patched from
//!    the logged [`ScenarioSummary`].
//! 3. **Re-drive** — scenarios without a terminal event run live on the
//!    runner's thread pool, appending to the same log with a bumped
//!    attempt number. This is the same pool, per-attempt step, merge and
//!    close that [`CampaignRunner::run`] uses (a run is a resume with
//!    nothing replayed), so a resume prints progress and streams completed
//!    prefixes into the portal exactly as a run does.
//!
//! The merged report publishes in input order, so its fingerprint is
//! bit-identical to the uninterrupted run's.

use crate::app::{AppError, ExperimentOutcome};
use crate::backend::{Batch, LabBackend, ReplayBackend};
use crate::campaign::events::{CampaignEvent, EventLog, RecoveryReport, ScenarioSummary};
use crate::campaign::report::{CampaignReport, ScenarioResult};
use crate::campaign::runner::CampaignRunner;
use crate::campaign::spec::{RunMode, ScenarioSpec};
use crate::experiment::Experiment;
use sdl_datapub::SampleRecord;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// What a resume restored versus re-executed.
#[derive(Debug, Clone)]
pub struct ResumeStats {
    /// Scenarios rebuilt from the log without re-execution.
    pub replayed: usize,
    /// Scenarios re-driven live (no terminal event in the log).
    pub redriven: usize,
    /// The recovery scan: accepted events and any torn tail.
    pub recovery: RecoveryReport,
}

/// Per-scenario state mined from the recovered event stream.
#[derive(Default)]
struct Mined {
    /// Terminal outcome, first one wins: finished summary or failure text.
    terminal: Option<Result<(u32, ScenarioSummary), String>>,
    /// `sample_published` events per attempt, in log order.
    samples: BTreeMap<u32, Vec<SampleRecord>>,
    /// Highest attempt number that ever started.
    last_attempt: Option<u32>,
}

impl CampaignRunner {
    /// Resume the campaign recorded in the event log at `path`: recover
    /// the log's verified prefix, rebuild finished scenarios through
    /// [`ReplayBackend`]'s bit-exact verification, re-drive unfinished
    /// ones on this runner's thread pool, and append the continuation to
    /// the same log. The merged fingerprint is bit-identical to an
    /// uninterrupted run of the same campaign.
    pub fn resume(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(CampaignReport, ResumeStats), AppError> {
        let (log, events, recovery) = EventLog::recover(&path)?;
        if log.closed() {
            return Err(AppError::Setup(format!(
                "event log {} records a completed campaign (nothing to resume)",
                path.as_ref().display()
            )));
        }
        let log = Arc::new(log);

        // Mine the stream: specs from campaign_opened, then per-scenario
        // terminal events and per-attempt sample records.
        let mut specs: Option<Vec<ScenarioSpec>> = None;
        let mut mined: Vec<Mined> = Vec::new();
        for rec in &events {
            match &rec.event {
                CampaignEvent::CampaignOpened { specs: raw, .. } => {
                    let parsed: Result<Vec<ScenarioSpec>, _> =
                        raw.iter().map(ScenarioSpec::from_value).collect();
                    let parsed = parsed
                        .map_err(|e| AppError::Setup(format!("event log spec unreadable: {e}")))?;
                    mined = parsed.iter().map(|_| Mined::default()).collect();
                    specs = Some(parsed);
                }
                CampaignEvent::ScenarioStarted { index, attempt, .. } => {
                    if let Some(m) = mined.get_mut(*index) {
                        m.last_attempt = Some(m.last_attempt.map_or(*attempt, |a| a.max(*attempt)));
                    }
                }
                CampaignEvent::SamplePublished {
                    index,
                    attempt,
                    run,
                    sample,
                    well,
                    ratios,
                    measured,
                    score,
                    best,
                    elapsed_us,
                    batch_wall_us,
                } => {
                    let (Some(m), Some(spec)) =
                        (mined.get_mut(*index), specs.as_ref().and_then(|s| s.get(*index)))
                    else {
                        continue;
                    };
                    m.samples.entry(*attempt).or_default().push(SampleRecord {
                        experiment_id: spec.config.experiment_id(),
                        run: *run,
                        sample: *sample,
                        well: well.clone(),
                        ratios: ratios.clone(),
                        volumes_ul: Vec::new(),
                        measured: *measured,
                        target: spec.config.target.channels(),
                        score: *score,
                        best_so_far: *best,
                        elapsed_s: *elapsed_us as f64 / 1e6,
                        batch_wall_s: Some(*batch_wall_us as f64 / 1e6),
                        image_ref: None,
                    });
                }
                CampaignEvent::ScenarioFinished { index, attempt, summary, .. } => {
                    if let Some(m) = mined.get_mut(*index) {
                        m.terminal.get_or_insert(Ok((*attempt, summary.clone())));
                    }
                }
                CampaignEvent::ScenarioFailed { index, error, .. } => {
                    if let Some(m) = mined.get_mut(*index) {
                        m.terminal.get_or_insert(Err(error.clone()));
                    }
                }
                _ => {}
            }
        }
        let specs = specs.ok_or_else(|| {
            AppError::Setup(format!(
                "event log {} has no campaign_opened event",
                path.as_ref().display()
            ))
        })?;
        let n = specs.len();

        // Unfinished scenarios re-drive at their next attempt number.
        let todo: Vec<(usize, u32)> = (0..n)
            .filter(|&i| mined[i].terminal.is_none())
            .map(|i| (i, mined[i].last_attempt.map_or(0, |a| a + 1)))
            .collect();
        let (replayed, redriven) = (n - todo.len(), todo.len());
        log.append(&CampaignEvent::CampaignResumed { replayed, redriven });

        // Rebuild every terminal scenario from its logged attempt.
        let mut slots: Vec<Option<ScenarioResult>> = (0..n).map(|_| None).collect();
        for (i, m) in mined.iter_mut().enumerate() {
            let Some(terminal) = m.terminal.take() else { continue };
            let spec = specs[i].clone();
            let outcome = match terminal {
                Ok((attempt, summary)) => {
                    let samples = m.samples.remove(&attempt).unwrap_or_default();
                    rebuild(&spec, &summary, samples)
                }
                Err(msg) => Err(AppError::Restored(msg)),
            };
            slots[i] = Some(ScenarioResult { spec, index: i, outcome });
        }

        // Re-drive the rest on the runner's pool, appending to the
        // recovered log; the merge publishes in input order, exactly as an
        // uninterrupted run streams it.
        let report = self.drive(&specs, Some(&log), slots, &todo);
        Ok((report, ResumeStats { replayed, redriven, recovery }))
    }
}

/// Rebuild one finished scenario from its logged samples and summary.
fn rebuild(
    spec: &ScenarioSpec,
    summary: &ScenarioSummary,
    mut samples: Vec<SampleRecord>,
) -> Result<ExperimentOutcome, AppError> {
    samples.sort_by_key(|r| r.sample);
    // A multi-OT2 scenario's batches in tell order: samples are numbered
    // as they are told, so each run's samples are contiguous.
    let retold: Option<Vec<Batch>> = matches!(spec.mode, RunMode::MultiOt2(_)).then(|| {
        samples
            .chunk_by(|a, b| a.run == b.run)
            .map(|run| Batch {
                run: run[0].run,
                ratios: run.iter().map(|r| r.ratios.clone()).collect(),
            })
            .collect()
    });
    let recorded = samples.len() as u32;
    let mut session = Experiment::new(spec.config.clone())?;
    let mut backend = ReplayBackend::from_records(samples);
    let caps = backend.open()?;
    match retold {
        // Stop once every recorded sample is consumed: the logged
        // termination explains why the original stopped here (an
        // out-of-plates abort leaves fewer samples than the budget).
        None => {
            while session.samples_measured() < recorded {
                let Some(batch) = session.ask(&caps) else { break };
                let result = backend.submit_batch(&batch)?;
                session.tell(&batch, result)?;
            }
        }
        Some(batches) => {
            session.announce();
            for batch in batches {
                let result = backend.submit_batch(&batch)?;
                session.tell(&batch, result)?;
            }
        }
    }
    if let Some(t) = &summary.single {
        session.terminate(t.termination.clone());
    }
    let close = backend.close(session.samples_measured())?;
    let mut out = session.outcome(close);
    out.duration = summary.duration;
    out.plates_used = summary.plates;
    out.counters.robotic_completed = summary.robotic_commands;
    out.solver_fallbacks = summary.solver_fallbacks;
    out.per_handler_samples = summary.multi.clone().unwrap_or_default();
    if let Some(t) = &summary.single {
        out.termination = t.termination.clone();
        out.metrics.twh = t.twh;
        out.metrics.ccwh = t.ccwh;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSpec;
    use crate::campaign::runner::CampaignRunner;
    use crate::config::AppConfig;
    use sdl_solvers::SolverKind;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdl-resume-{}-{name}.jsonl", std::process::id()))
    }

    fn specs() -> Vec<ScenarioSpec> {
        let mut out: Vec<ScenarioSpec> = (0..5)
            .map(|i| {
                let solver = [SolverKind::Genetic, SolverKind::Random, SolverKind::Bayesian][i % 3];
                ScenarioSpec::new(
                    format!("s{i}"),
                    AppConfig {
                        solver,
                        sample_budget: 6,
                        batch: 2,
                        seed: 40 + i as u64,
                        publish_images: false,
                        ..AppConfig::default()
                    },
                )
            })
            .collect();
        let base =
            AppConfig { sample_budget: 4, batch: 2, publish_images: false, ..AppConfig::default() };
        out.push(ScenarioSpec::multi_ot2("m2", base.clone(), 2));
        // A scenario that fails (multi-OT2 cannot run on a remote backend):
        // resume must restore its error display verbatim.
        let mut bad = ScenarioSpec::multi_ot2("bad", base, 2);
        bad.backend = BackendSpec::Remote("127.0.0.1:1".to_string());
        out.push(bad);
        // A scenario that terminates early on a match threshold: resume
        // must reproduce the TargetMatched termination, not BudgetExhausted.
        let mut matched = AppConfig {
            solver: SolverKind::Random,
            sample_budget: 40,
            batch: 4,
            seed: 7,
            publish_images: false,
            ..AppConfig::default()
        };
        matched.match_threshold = Some(200.0);
        out.push(ScenarioSpec::new("matched", matched));
        out
    }

    #[test]
    fn resuming_a_complete_log_replays_every_scenario_bit_exactly() {
        let golden = CampaignRunner::new().threads(2).run(specs());
        let path = tmp("complete");
        let log = Arc::new(EventLog::create(&path).unwrap());
        let full = CampaignRunner::new().threads(2).with_events(log).run(specs());
        assert_eq!(golden.fingerprint(), full.fingerprint());

        // The closed log refuses a resume outright.
        let err = CampaignRunner::new().resume(&path).unwrap_err();
        assert!(err.to_string().contains("nothing to resume"), "{err}");

        // Strip the campaign_closed line: everything replays, nothing runs.
        let raw = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = raw.lines().collect();
        assert!(lines.last().unwrap().contains("campaign_closed"));
        lines.pop();
        let open = tmp("complete-open");
        std::fs::write(&open, lines.join("\n") + "\n").unwrap();
        let (report, stats) = CampaignRunner::new().threads(2).resume(&open).unwrap();
        assert_eq!(golden.fingerprint(), report.fingerprint());
        assert_eq!((stats.replayed, stats.redriven), (specs().len(), 0));
        assert!(stats.recovery.torn.is_none());
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(open);
    }

    #[test]
    fn resuming_a_truncated_log_redrives_the_rest_bit_exactly() {
        let golden = CampaignRunner::new().threads(2).run(specs());
        let path = tmp("truncated");
        let log = Arc::new(EventLog::create(&path).unwrap());
        CampaignRunner::new().threads(2).with_events(log).run(specs());

        // Cut the log mid-stream (past the opened event, before the end),
        // simulating a crash: the tail line is torn, some scenarios have
        // no terminal event.
        let raw = std::fs::read(&path).unwrap();
        let first_line = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = (raw.len() * 2 / 5).max(first_line + 1);
        let torn = tmp("truncated-cut");
        std::fs::write(&torn, &raw[..cut]).unwrap();

        let (report, stats) = CampaignRunner::new().threads(2).resume(&torn).unwrap();
        assert_eq!(golden.fingerprint(), report.fingerprint(), "resume diverged: {stats:?}");
        assert!(stats.redriven >= 1, "cut log should leave unfinished scenarios: {stats:?}");
        assert_eq!(stats.replayed + stats.redriven, specs().len());

        // The continued log is itself complete: a second resume refuses.
        let err = CampaignRunner::new().resume(&torn).unwrap_err();
        assert!(err.to_string().contains("nothing to resume"), "{err}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(torn);
    }

    #[test]
    fn resuming_around_the_multi_ot2_scenario_is_bit_exact() {
        use crate::campaign::EventRecord;
        use sdl_conf::ValueExt as _;
        let runner = || CampaignRunner::new().threads(2).publish_records(true);
        let golden = runner().run(specs());
        let path = tmp("multi");
        runner().with_events(Arc::new(EventLog::create(&path).unwrap())).run(specs());
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.split_inclusive('\n').collect();
        let events: Vec<CampaignEvent> =
            lines.iter().map(|l| EventRecord::from_line(l).unwrap().event).collect();
        let m2 = specs().iter().position(|s| s.label == "m2").unwrap();
        let at = |kind: &str| {
            let of_m2 = |e: &CampaignEvent| match e {
                CampaignEvent::SamplePublished { index, .. }
                | CampaignEvent::ScenarioFinished { index, .. } => *index == m2,
                _ => false,
            };
            events.iter().position(|e| e.kind() == kind && of_m2(e)).unwrap()
        };
        // The multi scenario's records (its experiment and samples, and the
        // campaign_scenario summaries under its experiment id), in order.
        let id = specs()[m2].config.experiment_id();
        let records = |portal: &sdl_datapub::AcdcPortal| -> Vec<String> {
            let mine = portal.search(|r| r.opt_str("experiment_id") == Some(id.as_str()));
            mine.iter().map(sdl_conf::to_json).collect()
        };
        assert!(records(&golden.portal).len() > 4, "m2 published no sample records");

        // Torn right after m2's first sample (re-driven), and right after
        // m2 finished (rebuilt from its logged samples).
        for (name, cut) in
            [("inside", at("sample_published") + 1), ("after", at("scenario_finished") + 1)]
        {
            let torn = tmp(&format!("multi-{name}"));
            std::fs::write(&torn, lines[..cut].concat()).unwrap();
            let (report, stats) = runner().resume(&torn).unwrap();
            assert_eq!(golden.fingerprint(), report.fingerprint(), "{name}: {stats:?}");
            assert_eq!(records(&golden.portal), records(&report.portal), "{name}");
            let _ = std::fs::remove_file(torn);
        }
        let _ = std::fs::remove_file(path);
    }
}
