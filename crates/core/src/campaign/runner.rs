//! The parallel campaign executor, and the per-attempt step every
//! executor shares.
//!
//! [`CampaignRunner::run`] is a resume with nothing replayed, so it and
//! [`CampaignRunner::resume`] drive one local thread pool. Every lane of
//! every executor — these pool threads (`local-N`), the scheduler's own
//! `driver` lane and its remote lanes (the worker URL) — runs a scenario
//! attempt through one `step`: claim, start, execute, finish. The results
//! go through one in-order merge and one close (`publish.rs`).

use crate::app::{AppError, ExperimentOutcome};
use crate::backend::BackendSpec;
use crate::campaign::events::{CampaignEvent, EventLog, EventScope, ScenarioSummary};
use crate::campaign::publish::Merge;
use crate::campaign::report::{CampaignReport, ScenarioResult};
use crate::campaign::spec::{RunMode, ScenarioSpec};
use crate::experiment::Experiment;
use crate::multi::drive_multi_ot2;
use sdl_datapub::{AcdcPortal, BlobStore};
use sdl_vision::DetectorScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Executes scenario lists across an OS-thread pool.
///
/// Every scenario is an isolated simulated lab whose randomness derives
/// entirely from its own spec (`config.seed`), so the report is a pure
/// function of the scenario list: **bit-identical regardless of the number
/// of worker threads** and of completion order. Scenario summaries stream
/// into the runner's [`AcdcPortal`] in input order as prefixes complete.
pub struct CampaignRunner {
    pub(crate) threads: usize,
    pub(crate) portal: Arc<AcdcPortal>,
    pub(crate) store: Arc<BlobStore>,
    pub(crate) progress: bool,
    pub(crate) publish_records: bool,
    pub(crate) events: Option<Arc<EventLog>>,
    pub(crate) name: String,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner::new()
    }
}

impl CampaignRunner {
    /// A runner with one worker per available core.
    pub fn new() -> CampaignRunner {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        CampaignRunner {
            threads,
            portal: Arc::new(AcdcPortal::new()),
            store: Arc::new(BlobStore::in_memory()),
            progress: false,
            publish_records: false,
            events: None,
            name: "campaign".to_string(),
        }
    }

    /// Builder: append every lifecycle event to `log` (the campaign's
    /// append-only source of truth; see [`EventLog`]).
    pub fn with_events(mut self, log: Arc<EventLog>) -> CampaignRunner {
        self.events = Some(log);
        self
    }

    /// Builder: the campaign name recorded in the `campaign_opened` event.
    pub fn name(mut self, name: impl Into<String>) -> CampaignRunner {
        self.name = name.into();
        self
    }

    /// Builder: use exactly `n` worker threads.
    pub fn threads(mut self, n: usize) -> CampaignRunner {
        self.threads = n.max(1);
        self
    }

    /// Builder: print one progress line per completed scenario to stderr.
    pub fn progress(mut self, on: bool) -> CampaignRunner {
        self.progress = on;
        self
    }

    /// Builder: stream scenario summaries into an existing portal instead
    /// of a fresh one.
    pub fn with_portal(mut self, portal: Arc<AcdcPortal>) -> CampaignRunner {
        self.portal = portal;
        self
    }

    /// The portal scenario summaries stream into.
    pub fn portal(&self) -> &Arc<AcdcPortal> {
        &self.portal
    }

    /// Builder: collect published plate images into an existing blob store
    /// (e.g. one a portal server is concurrently serving `/blobs/` from).
    pub fn with_store(mut self, store: Arc<BlobStore>) -> CampaignRunner {
        self.store = store;
        self
    }

    /// Builder: also stream each scenario's *full* record set (experiment
    /// metadata and per-sample records) into the campaign portal, not just
    /// the scenario summary. This is what a live portal server wants: the
    /// Figure-3 summary and run-detail views become available per
    /// experiment as each scenario completes.
    pub fn publish_records(mut self, on: bool) -> CampaignRunner {
        self.publish_records = on;
        self
    }

    /// The blob store scenario plate images merge into.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// The number of worker threads `run` will use.
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Execute every scenario, returning per-scenario results in input
    /// order.
    pub fn run(&self, scenarios: Vec<ScenarioSpec>) -> CampaignReport {
        let n = scenarios.len();
        if n == 0 {
            return self.report(Vec::new());
        }
        if let Some(log) = &self.events {
            log.append(&CampaignEvent::CampaignOpened {
                campaign: self.name.clone(),
                executor: "runner".to_string(),
                workers: Vec::new(),
                specs: scenarios.iter().map(|s| s.to_value()).collect(),
            });
        }
        // A run is a resume with nothing replayed: every index at attempt 0.
        let todo: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
        self.drive(&scenarios, self.events.as_ref(), (0..n).map(|_| None).collect(), &todo)
    }

    /// The local thread pool behind [`run`](Self::run) and
    /// [`resume`](Self::resume): execute each `(index, attempt)` in `todo`,
    /// merge the results with the already-filled `slots`, and close.
    pub(crate) fn drive(
        &self,
        specs: &[ScenarioSpec],
        log: Option<&Arc<EventLog>>,
        slots: Vec<Option<ScenarioResult>>,
        todo: &[(usize, u32)],
    ) -> CampaignReport {
        let mut merge =
            Merge::new(&self.portal, &self.store, self.publish_records, self.progress, slots);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<ScenarioResult>();
        std::thread::scope(|scope| {
            for w in 0..self.threads.min(todo.len()) {
                let (tx, next) = (tx.clone(), &next);
                scope.spawn(move || {
                    // One scratch arena per worker thread: detector buffers
                    // (several MB) are reused across every scenario this
                    // worker executes instead of reallocated per run.
                    let mut scratch = DetectorScratch::default();
                    let me = format!("local-{w}");
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(index, attempt)) = todo.get(pos) else { break };
                        let claimed = Claimed {
                            index,
                            attempt,
                            worker: &me,
                            claim: "own",
                            queue_depth: todo.len() - (pos + 1),
                            victim: None,
                        };
                        let spec = &specs[index];
                        if !step(log, &tx, spec, claimed, |ev| {
                            Some(execute(spec, &mut scratch, ev))
                        }) {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for result in rx {
                merge.accept(result);
            }
        });
        self.report(merge.close(log, |_, _| None))
    }

    fn report(&self, results: Vec<ScenarioResult>) -> CampaignReport {
        CampaignReport { results, portal: Arc::clone(&self.portal), threads: self.threads }
    }
}

/// Who runs which attempt of a scenario, and how it was claimed: the
/// fields of its `scenario_claimed` and `scenario_started` events.
pub(crate) struct Claimed<'a> {
    pub(crate) index: usize,
    pub(crate) attempt: u32,
    /// The lane: `local-N`, `driver` or a worker URL.
    pub(crate) worker: &'a str,
    /// `own`, `retry`, `stolen`, `local` or `fallback`.
    pub(crate) claim: &'a str,
    pub(crate) queue_depth: usize,
    /// The peer a steal took the scenario from.
    pub(crate) victim: Option<&'a str>,
}

/// The per-attempt step every lane shares: `scenario_claimed` (plus
/// `worker_stolen_from` for a steal) and `scenario_started`, then `drive`
/// with the attempt's event scope, then `scenario_finished|failed` and the
/// hand-over to the merge. `drive` returns `None` when the attempt did not
/// end the scenario (a remote lane requeued it); nothing more is written
/// then. Returns `false` once the merge has hung up.
pub(crate) fn step(
    log: Option<&Arc<EventLog>>,
    tx: &mpsc::Sender<ScenarioResult>,
    spec: &ScenarioSpec,
    c: Claimed<'_>,
    drive: impl FnOnce(Option<EventScope>) -> Option<Result<ExperimentOutcome, AppError>>,
) -> bool {
    let (index, attempt, worker) = (c.index, c.attempt, c.worker);
    if let Some(log) = log {
        log.append(&CampaignEvent::ScenarioClaimed {
            index,
            worker: worker.to_string(),
            claim: c.claim.to_string(),
            queue_depth: c.queue_depth,
        });
        if let Some(victim) = c.victim {
            log.append(&CampaignEvent::WorkerStolenFrom {
                victim: victim.to_string(),
                thief: worker.to_string(),
                index,
            });
        }
        log.append(&CampaignEvent::ScenarioStarted {
            index,
            label: spec.label.clone(),
            attempt,
            worker: worker.to_string(),
        });
    }
    let Some(outcome) = drive(log.map(|log| EventScope::new(Arc::clone(log), index, attempt)))
    else {
        return true;
    };
    if let Some(log) = log {
        let (label, worker) = (spec.label.clone(), worker.to_string());
        log.append(&match &outcome {
            Ok(o) => CampaignEvent::ScenarioFinished {
                index,
                label,
                attempt,
                worker,
                summary: ScenarioSummary::of(o),
            },
            Err(e) => CampaignEvent::ScenarioFailed {
                index,
                label,
                attempt,
                worker,
                error: e.to_string(),
            },
        });
    }
    tx.send(ScenarioResult { spec: spec.clone(), index, outcome }).is_ok()
}

/// Run one scenario to completion (workers call this; also the single-run
/// fast path): an [`Experiment`] session driven on the scenario's
/// configured lab backend, or on the multi-OT2 flows. `scratch` is the
/// worker's reusable detector arena, loaned to backends with a detection
/// pipeline. With `events`, the session appends batch/sample events as it
/// goes, whichever lab runs it.
pub(crate) fn execute(
    spec: &ScenarioSpec,
    scratch: &mut DetectorScratch,
    events: Option<EventScope>,
) -> Result<ExperimentOutcome, AppError> {
    if let RunMode::MultiOt2(_) = spec.mode {
        if spec.backend != BackendSpec::Sim {
            return Err(AppError::Setup(format!(
                "multi-OT2 scenarios only run on the sim backend (got '{}')",
                spec.backend
            )));
        }
    }
    let mut session = Experiment::new(spec.config.clone())?;
    if let Some(scope) = events {
        session.attach_events(scope);
    }
    if let RunMode::MultiOt2(n) = spec.mode {
        return drive_multi_ot2(session, n);
    }
    let mut backend = spec.backend.build(&spec.config)?;
    backend.swap_scratch(scratch);
    let outcome = session.run_on(backend.as_mut());
    backend.swap_scratch(scratch);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use sdl_conf::ValueExt;

    fn spec(label: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            label,
            AppConfig {
                sample_budget: 4,
                batch: 2,
                seed,
                publish_images: false,
                ..AppConfig::default()
            },
        )
    }

    #[test]
    fn results_come_back_in_input_order() {
        let report =
            CampaignRunner::new().threads(4).run(vec![spec("a", 1), spec("b", 2), spec("c", 3)]);
        assert_eq!(report.len(), 3);
        let labels: Vec<&str> = report.results.iter().map(|r| r.label()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        for r in &report.results {
            assert_eq!(r.expect_outcome().samples_measured, 4, "{}", r.label());
        }
    }

    #[test]
    fn portal_receives_stream_in_order() {
        let report = CampaignRunner::new().threads(8).run(vec![
            spec("s0", 1),
            spec("s1", 2),
            spec("s2", 3),
            spec("s3", 4),
        ]);
        let records = report.portal.find("kind", "campaign_scenario");
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.opt_i64("index"), Some(i as i64), "stream out of order");
        }
        assert_eq!(report.portal.find("kind", "campaign").len(), 1);
    }

    #[test]
    fn full_records_and_blobs_stream_into_shared_sinks() {
        let portal = Arc::new(AcdcPortal::new());
        let store = Arc::new(BlobStore::in_memory());
        let mut with_images = spec("imaged", 7);
        with_images.config.publish_images = true;
        let report = CampaignRunner::new()
            .threads(2)
            .with_portal(Arc::clone(&portal))
            .with_store(Arc::clone(&store))
            .publish_records(true)
            .run(vec![with_images, spec("plain", 8)]);
        assert_eq!(report.len(), 2);
        // Full per-sample records from both scenarios landed in the shared
        // portal alongside the scenario summaries.
        assert_eq!(portal.find("kind", "experiment").len(), 2);
        assert_eq!(portal.find("kind", "sample").len(), 8);
        assert_eq!(portal.find("kind", "campaign_scenario").len(), 2);
        // The imaged scenario's plate frames were merged into the shared
        // blob store under their original references.
        assert!(!store.is_empty(), "publish_images scenario produced no blobs");
        let sample_with_image = portal
            .search(|r| r.opt_str("kind") == Some("sample") && r.opt_str("image_ref").is_some());
        let r = sample_with_image[0].opt_str("image_ref").unwrap();
        assert!(store.get(&sdl_datapub::BlobRef(r.to_string())).is_some());
    }

    #[test]
    fn summaries_only_without_publish_records() {
        let report = CampaignRunner::new().threads(2).run(vec![spec("s", 9)]);
        assert_eq!(report.portal.find("kind", "sample").len(), 0);
        assert_eq!(report.portal.find("kind", "campaign_scenario").len(), 1);
    }

    #[test]
    fn multi_ot2_scenarios_execute() {
        let base =
            AppConfig { sample_budget: 6, batch: 2, publish_images: false, ..AppConfig::default() };
        let report =
            CampaignRunner::new().threads(2).run(vec![ScenarioSpec::multi_ot2("m2", base, 2)]);
        let out = report.results[0].expect_outcome();
        assert_eq!(out.samples_measured, 6);
        assert_eq!(out.per_handler_samples.len(), 2);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let report = CampaignRunner::new().run(Vec::new());
        assert!(report.is_empty());
        assert_eq!(report.fingerprint(), "");
    }

    #[test]
    fn event_log_captures_the_full_lifecycle() {
        use crate::campaign::CampaignScheduler;
        let tmp = |name: &str| {
            std::env::temp_dir().join(format!("sdl-lifecycle-{}-{name}.jsonl", std::process::id()))
        };
        // A torn log to resume from: a one-thread run cut mid-line right
        // after scenario a's first batch_asked, so a resume re-drives both
        // scenarios, a at attempt 1 and b at attempt 0.
        let source = tmp("source");
        CampaignRunner::new()
            .threads(1)
            .name("lifecycle")
            .with_events(Arc::new(EventLog::create(&source).unwrap()))
            .run(vec![spec("a", 1), spec("b", 2)]);
        let raw = std::fs::read_to_string(&source).unwrap();
        let lines: Vec<&str> = raw.split_inclusive('\n').collect();
        let asked = lines.iter().position(|l| l.contains("batch_asked")).unwrap();
        let torn = lines[..=asked].concat() + &lines[asked + 1][..lines[asked + 1].len() / 2];

        // (executor, expected worker prefix, claim kind, attempt per index)
        let executors = [
            ("runner", "local-", "own", [0, 0]),
            ("scheduler", "driver", "local", [0, 0]),
            ("resume", "local-", "own", [1, 0]),
        ];
        for (executor, worker, claim, attempts) in executors {
            let path = tmp(executor);
            let log = || Arc::new(EventLog::create(&path).unwrap());
            let scenarios = vec![spec("a", 1), spec("b", 2)];
            let report = match executor {
                "runner" => CampaignRunner::new()
                    .threads(2)
                    .name("lifecycle")
                    .with_events(log())
                    .run(scenarios),
                "scheduler" => {
                    CampaignScheduler::new(vec![])
                        .name("lifecycle")
                        .with_events(log())
                        .run(scenarios)
                        .0
                }
                _ => {
                    std::fs::write(&path, &torn).unwrap();
                    CampaignRunner::new().threads(2).resume(&path).unwrap().0
                }
            };
            assert_eq!(report.len(), 2, "{executor}");

            let (log, _, _) = EventLog::recover(&path).unwrap();
            let (lines, head, closed) = log.lines_from(1, usize::MAX);
            assert_eq!(lines.len() as u64, head, "{executor}");
            assert!(closed, "{executor}: campaign_closed must mark the log closed");
            let events: Vec<CampaignEvent> = lines
                .iter()
                .map(|(_, l)| crate::campaign::EventRecord::from_line(l).unwrap().event)
                .collect();
            assert!(
                matches!(&events[0], CampaignEvent::CampaignOpened { campaign, specs, .. }
                    if campaign == "lifecycle" && specs.len() == 2),
                "{executor}: first event must be campaign_opened"
            );
            assert!(matches!(
                events.last(),
                Some(CampaignEvent::CampaignClosed { scenarios: 2, failed: 0, .. })
            ));
            // What this executor wrote: a resume's events follow its marker.
            let own = match events.iter().position(|e| e.kind() == "campaign_resumed") {
                Some(p) => &events[p + 1..],
                None => &events[..],
            };
            let count = |kind: &str| own.iter().filter(|e| e.kind() == kind).count();
            assert_eq!(count("scenario_claimed"), 2, "{executor}");
            assert_eq!(count("scenario_started"), 2, "{executor}");
            assert_eq!(count("scenario_finished"), 2, "{executor}");
            // 4 samples per scenario in batches of 2 → 2 asks, 2 tells each.
            assert_eq!(count("batch_asked"), 4, "{executor}");
            assert_eq!(count("batch_told"), 4, "{executor}");
            assert_eq!(count("sample_published"), 8, "{executor}");
            for (idx, &expected_attempt) in attempts.iter().enumerate() {
                // Every batch is asked before it is told, per scenario.
                let mut asked = 0u32;
                for e in own {
                    match e {
                        CampaignEvent::BatchAsked { index, run, .. } if *index == idx => {
                            asked = *run;
                        }
                        CampaignEvent::BatchTold { index, run, .. } if *index == idx => {
                            assert!(*run <= asked, "told run {run} before it was asked");
                        }
                        _ => {}
                    }
                }
                // Each scenario's worker, claim kind and attempt number.
                for e in own {
                    match e {
                        CampaignEvent::ScenarioClaimed { index, worker: w, claim: c, .. }
                            if *index == idx =>
                        {
                            assert!(w.starts_with(worker), "{executor}: {w} claimed {idx}");
                            assert_eq!(c, claim, "{executor}: claim of {idx}");
                        }
                        CampaignEvent::ScenarioStarted { index, worker: w, attempt, .. }
                        | CampaignEvent::ScenarioFinished { index, worker: w, attempt, .. }
                            if *index == idx =>
                        {
                            assert!(w.starts_with(worker), "{executor}: {w} ran {idx}");
                            assert_eq!(*attempt, expected_attempt, "{executor}: attempt of {idx}");
                        }
                        CampaignEvent::BatchAsked { index, attempt, .. } if *index == idx => {
                            assert_eq!(*attempt, expected_attempt, "{executor}: attempt of {idx}");
                        }
                        _ => {}
                    }
                }
            }
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(source);
    }
}
