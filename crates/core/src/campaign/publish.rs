//! Streaming campaign results into the data portal.
//!
//! Every campaign executor — [`CampaignRunner::run`],
//! [`CampaignRunner::resume`] and [`CampaignScheduler::run`] — hands its
//! results to one [`Merge`] and finishes with its one [`Merge::close`], so
//! a campaign's progress output, portal stream and closing events have one
//! shape regardless of where the scenarios executed.
//!
//! [`CampaignRunner::run`]: crate::CampaignRunner::run
//! [`CampaignRunner::resume`]: crate::CampaignRunner::resume
//! [`CampaignScheduler::run`]: crate::CampaignScheduler::run

use crate::campaign::events::{CampaignEvent, EventLog};
use crate::campaign::report::ScenarioResult;
use crate::campaign::spec::RunMode;
use sdl_conf::Value;
use sdl_datapub::{AcdcPortal, BlobStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The in-order merge. Lanes hand results over in completion order; each
/// arrival prints a progress line, and every completed prefix publishes
/// into the portal and blob store in input order, so the portal stream is
/// deterministic too.
pub(crate) struct Merge<'a> {
    portal: &'a AcdcPortal,
    store: &'a BlobStore,
    publish_records: bool,
    progress: bool,
    slots: Vec<Option<ScenarioResult>>,
    published: usize,
    done: usize,
    /// Time spent publishing: the scheduler's `PhaseTimings::merge`.
    spent: Duration,
}

impl<'a> Merge<'a> {
    /// A merge over `slots`. Filled slots (a resume's replayed scenarios)
    /// count as done and publish at once as far as they form a prefix.
    pub(crate) fn new(
        portal: &'a AcdcPortal,
        store: &'a BlobStore,
        publish_records: bool,
        progress: bool,
        slots: Vec<Option<ScenarioResult>>,
    ) -> Merge<'a> {
        let done = slots.iter().filter(|s| s.is_some()).count();
        let mut merge = Merge {
            portal,
            store,
            publish_records,
            progress,
            slots,
            published: 0,
            done,
            spent: Duration::ZERO,
        };
        merge.publish_prefix();
        merge
    }

    /// Take one finished scenario.
    pub(crate) fn accept(&mut self, result: ScenarioResult) {
        self.done += 1;
        if self.progress {
            eprintln!(
                "[{}/{}] {} {}",
                self.done,
                self.slots.len(),
                result.spec.label,
                match &result.outcome {
                    Ok(o) => format!("best {:.2} in {}", o.best_score, o.duration),
                    Err(e) => format!("FAILED: {e}"),
                }
            );
        }
        let index = result.index;
        self.slots[index] = Some(result);
        self.publish_prefix();
    }

    fn publish_prefix(&mut self) {
        let started = Instant::now();
        while let Some(Some(result)) = self.slots.get(self.published) {
            publish_scenario(self.portal, self.store, self.publish_records, result);
            self.published += 1;
        }
        self.spent += started.elapsed();
    }

    /// The close: one `campaign` record describing the whole campaign into
    /// the portal, then `campaign_closed` into the log. `scheduler` sees
    /// the results and the total merge time; the value it returns (the
    /// scheduler report) publishes after the campaign record and rides in
    /// `campaign_closed`.
    pub(crate) fn close(
        self,
        log: Option<&Arc<EventLog>>,
        scheduler: impl FnOnce(&[ScenarioResult], Duration) -> Option<Value>,
    ) -> Vec<ScenarioResult> {
        let results: Vec<ScenarioResult> =
            self.slots.into_iter().map(|s| s.expect("every scenario slot filled")).collect();
        let failed = results.iter().filter(|r| r.outcome.is_err()).count();
        let best_score = results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.best_score)
            .fold(None, |a: Option<f64>, s| Some(a.map_or(s, |a| a.min(s))));
        let started = Instant::now();
        let mut v = Value::map();
        v.set("kind", "campaign");
        v.set("scenarios", results.len() as i64);
        v.set("failed", failed as i64);
        if let Some(best) = best_score.filter(|b| b.is_finite()) {
            v.set("best_score", best);
        }
        self.portal.ingest(v);
        let scheduler = scheduler(&results, self.spent + started.elapsed());
        if let Some(v) = &scheduler {
            self.portal.ingest(v.clone());
        }
        if let Some(log) = log {
            log.append(&CampaignEvent::CampaignClosed {
                scenarios: results.len(),
                failed,
                best_score,
                scheduler,
            });
        }
        results
    }
}

/// Stream one scenario's summary record into the portal, and its plate
/// images into the shared blob store. With `publish_records`, the
/// scenario's full per-sample record set merges in too.
fn publish_scenario(
    portal: &AcdcPortal,
    store: &BlobStore,
    publish_records: bool,
    result: &ScenarioResult,
) {
    if let Ok(out) = &result.outcome {
        out.store.merge_into(store);
        if publish_records {
            portal.merge_from(&out.portal);
        }
    }
    let mut v = Value::map();
    v.set("kind", "campaign_scenario");
    v.set("label", result.spec.label.as_str());
    v.set("index", result.index as i64);
    v.set("experiment_id", result.spec.config.experiment_id().as_str());
    v.set("solver", result.spec.config.solver_label());
    v.set("backend", result.spec.backend.to_string().as_str());
    v.set("batch", result.spec.config.batch as i64);
    v.set("seed", result.spec.config.seed as i64);
    v.set("samples", result.spec.config.sample_budget as i64);
    if let RunMode::MultiOt2(n) = result.spec.mode {
        v.set("n_ot2", n as i64);
    }
    match &result.outcome {
        Ok(o) => {
            v.set("best_score", o.best_score);
            v.set("duration_s", o.duration.as_secs_f64());
            v.set("samples_measured", o.samples_measured as i64);
            v.set("plates_used", o.plates_used as i64);
            v.set("robotic_commands", o.counters.robotic_completed as i64);
            v.set("solver_fallbacks", o.solver_fallbacks as i64);
            v.set("twh_s", o.metrics.twh.as_secs_f64());
            v.set("ccwh", o.metrics.ccwh as i64);
            v.set("termination", o.termination.to_string().as_str());
        }
        Err(e) => {
            v.set("error", e.to_string().as_str());
        }
    }
    portal.ingest(v);
}
