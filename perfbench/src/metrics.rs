//! The benchmark's metric catalogue: every metric it prints, its unit,
//! which direction is better and — for the per-layer rows — which
//! end-to-end metric on which workload a change to that layer should
//! move. `BENCHMARK.json` lists the same names, units and directions; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end rows: what the metric measures on each workload.
    /// Per-layer rows: the end-to-end metric and workload it should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric { name, unit, better, note }
}

/// End-to-end metrics, printed with `--trace 0`. Every workload reports
/// every one; the unit of work behind "batch" and "request" is the one the
/// workload's client submits and waits for.
pub const END_TO_END: &[Metric] = &[
    m("samples_per_s", "1/s", "higher",
      "sim_bayes/remote_random/pool_matrix: samples measured per wall second of the timed phase; portal_reads: sample rows served by /records per second"),
    m("batch_p50_ms", "ms", "lower",
      "sim_bayes/remote_random: one batch of 4, start of Experiment::ask to end of Experiment::tell; pool_matrix: one CampaignScheduler::run of the matrix; portal_reads: one client's pass over the 7-request mix"),
    m("batch_p90_ms", "ms", "lower", "90th percentile of the batch_p50_ms unit"),
    m("req_per_s", "1/s", "higher",
      "portal_reads: admitted HTTP GETs per second; sim_bayes/remote_random/pool_matrix: batches executed by the lab per second"),
    m("req_p50_us", "us", "lower",
      "portal_reads: one GET; sim_bayes/remote_random: one LabBackend::submit_batch (a /v1/batch POST round trip remotely); pool_matrix: one batch, batch_asked to batch_told on the event log"),
    m("setup_s", "s", "lower",
      "construction, worker spawn, session open and portal seeding up to the first timed operation; median of 21 to 301 set-ups timed one by one (as many as fill 100 ms) after 5 warm-up set-ups"),
    m("peak_rss_mb", "MB", "lower", "peak resident memory (VmHWM) of the benchmark process, which hosts every server and worker, read when the timed phase ends, before the reference runs and set-up repetitions"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload never
/// calls reads 0. The `portal.*` rows and `datapub.search_page.p50_us`
/// come from `portal_reads`, or from the `portal_reads` phase a traced
/// `pool_matrix` run ends with.
pub const PER_LAYER: &[Metric] = &[
    m("req_p99_us", "us", "lower",
      "99th percentile of the req_p50_us unit over the traced phase; sim_bayes, remote_random and pool_matrix give it 4-10 requests beyond it per run and its run-to-run spread on a shared 2-vCPU host (0.22-0.68 IQR/median) exceeds the 0.25 end-to-end bound there, so it is reported here, unbounded"),
    m("experiment.ask.calls", "count", "higher", "samples_per_s, batch_p50_ms on sim_bayes; no change on remote_random, portal_reads"),
    m("experiment.ask.busy_ms", "ms", "lower", "samples_per_s, batch_p50_ms on sim_bayes; no change on remote_random, portal_reads"),
    m("experiment.ask.p50_us", "us", "lower", "samples_per_s, batch_p50_ms on sim_bayes; no change on remote_random, portal_reads"),
    m("backend.submit.calls", "count", "higher", "samples_per_s on sim_bayes, pool_matrix (sim); on remote_random, pool_matrix (remote)"),
    m("backend.submit.busy_ms", "ms", "lower", "samples_per_s on sim_bayes, pool_matrix (sim); on remote_random, pool_matrix (remote)"),
    m("backend.submit.p50_us", "us", "lower", "samples_per_s, req_p50_us on sim_bayes and remote_random; samples_per_s on pool_matrix"),
    m("backend.submit.p90_us", "us", "lower", "samples_per_s, batch_p90_ms on sim_bayes and remote_random"),
    m("backend.open_ms", "ms", "lower", "setup_s, samples_per_s on sim_bayes and remote_random"),
    m("backend.close_ms", "ms", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("backend.sim.other_us", "us", "lower", "samples_per_s on sim_bayes, pool_matrix; no change on portal_reads"),
    m("vision.render.p50_us", "us", "lower", "samples_per_s on sim_bayes, pool_matrix; no change on portal_reads"),
    m("vision.detect.p50_us", "us", "lower", "samples_per_s on sim_bayes, pool_matrix; no change on portal_reads"),
    m("vision.bmp.p50_us", "us", "lower", "samples_per_s on sim_bayes, pool_matrix; no change on portal_reads"),
    m("wire.encode.p50_us", "us", "lower", "samples_per_s, req_p50_us on remote_random; samples_per_s on pool_matrix; no change on sim_bayes"),
    m("wire.decode.p50_us", "us", "lower", "samples_per_s, req_p50_us on remote_random; samples_per_s on pool_matrix; no change on sim_bayes"),
    m("wire.bytes_per_batch", "bytes", "lower", "samples_per_s, req_p50_us on remote_random; samples_per_s on pool_matrix; no change on sim_bayes"),
    m("wire.image_bytes_per_batch", "bytes", "lower", "samples_per_s, req_p50_us on remote_random; samples_per_s on pool_matrix; no change on sim_bayes"),
    m("remote.overhead.p50_us", "us", "lower", "samples_per_s, req_p50_us on remote_random; samples_per_s on pool_matrix; no change on sim_bayes; computed only by --workload remote_random, which BENCHMARK.json does not list"),
    m("remote.posts", "count", "higher", "samples_per_s on remote_random, pool_matrix"),
    m("remote.resends", "count", "lower", "samples_per_s on remote_random, pool_matrix"),
    m("remote.reconnects", "count", "lower", "samples_per_s on remote_random, pool_matrix"),
    m("remote.sheds", "count", "lower", "samples_per_s on remote_random, pool_matrix"),
    m("experiment.tell.calls", "count", "higher", "samples_per_s, peak_rss_mb on sim_bayes and remote_random"),
    m("experiment.tell.busy_ms", "ms", "lower", "samples_per_s, batch_p50_ms on sim_bayes and remote_random"),
    m("experiment.tell.p50_us", "us", "lower", "samples_per_s, batch_p50_ms on sim_bayes and remote_random"),
    m("experiment.outcome_ms", "ms", "lower", "samples_per_s, peak_rss_mb on sim_bayes and remote_random"),
    m("datapub.published", "count", "higher", "samples_per_s, peak_rss_mb on sim_bayes and remote_random"),
    m("datapub.blobs", "count", "lower", "samples_per_s, peak_rss_mb on sim_bayes and remote_random"),
    m("datapub.failed", "count", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("datapub.store_mb", "MB", "lower", "peak_rss_mb on sim_bayes and remote_random"),
    m("events.appended", "count", "higher", "samples_per_s on sim_bayes and remote_random"),
    m("events.bytes", "bytes", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("events.append.mean_us", "us", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("loop.wall_ms", "ms", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("loop.unattributed_ms", "ms", "lower", "samples_per_s on sim_bayes and remote_random"),
    m("scheduler.deal_ms", "ms", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.steal_ms", "ms", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.retry_ms", "ms", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.merge_ms", "ms", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.busy_frac", "ratio", "higher", "samples_per_s on pool_matrix only"),
    m("scheduler.steals", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.retries", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.evictions", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.sheds", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.throttled", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.wire_posts", "count", "higher", "samples_per_s on pool_matrix only"),
    m("scheduler.wire_resends", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.local", "count", "lower", "samples_per_s on pool_matrix only"),
    m("scheduler.worker_balance", "ratio", "higher", "samples_per_s on pool_matrix only"),
    m("portal.records.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads; check remote_random for http.rs changes"),
    m("portal.records.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads; check remote_random for http.rs changes"),
    m("portal.records.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads; check remote_random for http.rs changes"),
    m("portal.summary.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.summary.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.summary.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.runs.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.runs.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.runs.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.blobs.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.blobs.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.blobs.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.metrics.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.metrics.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.metrics.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.healthz.count", "count", "higher", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.healthz.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.healthz.p99_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("portal.non2xx", "count", "lower", "req_per_s on portal_reads"),
    m("portal.bytes_out", "bytes", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("datapub.search_page.p50_us", "us", "lower", "req_per_s, req_p50_us and the req_p99_us row on portal_reads"),
    m("trace.overhead_frac", "ratio", "lower", "none: share of samples_per_s a traced run loses to its layer timings; the timestamps it took times their directly measured cost, over the phase wall time (client time on portal_reads)"),
    m("failed_frac", "ratio", "lower", "every end-to-end metric on every workload: failed or refused operations over attempted"),
];

/// Metric values by name, filled by a workload run.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value under `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}
