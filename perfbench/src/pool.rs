//! `pool_matrix`: `CampaignScheduler` fans a scenario matrix over two
//! loopback lab workers, with a file-backed event log. The matrix crosses
//! the genetic, Bayesian, random and annealing solvers with a small (2)
//! and a large (8) batch, plus one two-OT2 scenario, which the scheduler
//! runs itself rather than on a worker. The same matrix runs back to back
//! for the timed phase.
//!
//! Batch latency is read from outside: a reader tails the event log (as
//! `sdl-lab watch` does) and stamps each `batch_asked` and `batch_told`
//! line when it appears. The interval is one batch's round trip through
//! the lab — over `/v1` for the shipped scenarios — the unit the other
//! loop workloads call a request.

use crate::metrics::Values;
use crate::probes;
use crate::session::loopback_worker;
use crate::stats::{median_setup_secs, mix, stamp_cost_us, us, Span};
use crate::{Report, Run};
use sdl_core::{
    AppConfig, CampaignEvent, CampaignRunner, CampaignScheduler, EventLog, EventRecord,
    ScenarioSpec, SchedulerReport,
};
use sdl_portal_server::ServerHandle;
use sdl_solvers::SolverKind;
use sdl_vision::Fidelity;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Samples per scenario.
const SCENARIO_SAMPLES: u32 = 64;
const SOLVERS: [SolverKind; 4] =
    [SolverKind::Genetic, SolverKind::Bayesian, SolverKind::Random, SolverKind::Annealing];
const BATCHES: [u32; 2] = [2, 8];

/// The scenario matrix a run seeded with `seed` schedules.
pub fn matrix(seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for (s, solver) in SOLVERS.iter().enumerate() {
        for (b, &batch) in BATCHES.iter().enumerate() {
            let config = AppConfig {
                solver: *solver,
                batch,
                sample_budget: SCENARIO_SAMPLES,
                seed: mix(seed, (s * BATCHES.len() + b) as u64),
                ..AppConfig::default()
            };
            specs.push(ScenarioSpec::new(format!("{solver:?}-b{batch}").to_lowercase(), config));
        }
    }
    let multi = AppConfig {
        batch: 2,
        sample_budget: SCENARIO_SAMPLES,
        seed: mix(seed, 100),
        ..AppConfig::default()
    };
    specs.push(ScenarioSpec::multi_ot2("multi-x2", multi, 2));
    specs
}

/// What the seed generates: the matrix.
pub fn inputs(seed: u64) -> String {
    matrix(seed).iter().map(|s| format!("{}:{:?} ", s.label, s.config)).collect()
}

struct Pool {
    workers: Vec<ServerHandle>,
    log_path: PathBuf,
}

impl Pool {
    fn spawn(dir: &Path) -> Result<Pool, String> {
        let workers = (0..WORKERS).map(|_| loopback_worker()).collect::<Result<Vec<_>, _>>()?;
        Ok(Pool { workers, log_path: dir.join("campaign.jsonl") })
    }

    fn scheduler(&self) -> Result<(CampaignScheduler, Arc<EventLog>), String> {
        let log = Arc::new(EventLog::create(&self.log_path).map_err(|e| e.to_string())?);
        let urls = self.workers.iter().map(|w| w.addr().to_string()).collect();
        Ok((CampaignScheduler::new(urls).with_events(Arc::clone(&log)), log))
    }

    fn shutdown(self) {
        for w in self.workers {
            w.shutdown();
        }
    }
}

/// Batch latencies seen on the event log, and scenarios that failed.
#[derive(Default)]
struct Seen {
    batches: Span,
    failed: u64,
}

/// Tail `log` until the campaign closes (or `done` is set and the log is
/// drained), stamping batch asks and tells.
fn tail(log: &EventLog, done: &AtomicBool) -> Seen {
    let mut seen = Seen::default();
    let mut asked: BTreeMap<(usize, u32, u32), Instant> = BTreeMap::new();
    let mut from = 1u64;
    loop {
        let stop = done.load(Ordering::SeqCst);
        let (lines, head, closed) = log.wait_from(from, 4096, Duration::from_millis(20));
        let now = Instant::now();
        for (seq, line) in &lines {
            from = seq + 1;
            if !(line.contains("\"batch_") || line.contains("\"scenario_failed\"")) {
                continue;
            }
            match EventRecord::from_line(line).map(|r| r.event) {
                Ok(CampaignEvent::BatchAsked { index, attempt, run, .. }) => {
                    asked.insert((index, attempt, run), now);
                }
                Ok(CampaignEvent::BatchTold { index, attempt, run, .. }) => {
                    if let Some(t) = asked.remove(&(index, attempt, run)) {
                        seen.batches.add(us(t, now));
                    }
                }
                Ok(CampaignEvent::ScenarioFailed { .. }) => seen.failed += 1,
                _ => {}
            }
        }
        if (closed || stop) && from > head {
            return seen;
        }
    }
}

/// One scheduled run of the matrix, timed from outside.
fn campaign(
    pool: &Pool,
    specs: &[ScenarioSpec],
) -> Result<(String, SchedulerReport, Seen, f64), String> {
    let (scheduler, log) = pool.scheduler()?;
    let done = AtomicBool::new(false);
    Ok(std::thread::scope(|s| {
        let tailer = s.spawn(|| tail(&log, &done));
        let t = Instant::now();
        let (report, sched) = scheduler.run(specs.to_vec());
        let took_us = us(t, Instant::now());
        done.store(true, Ordering::SeqCst);
        let seen = tailer.join().expect("event-log tailer panicked");
        (report.fingerprint(), sched, seen, took_us)
    }))
}

#[derive(Default)]
struct Tally {
    wall_s: f64,
    samples: u64,
    campaigns: Span,
    batches: Span,
    attempted: u64,
    failed: u64,
    fingerprints: Vec<String>,
    reports: Vec<SchedulerReport>,
}

fn timed_phase(pool: &Pool, specs: &[ScenarioSpec], seconds: f64) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        let (fingerprint, sched, seen, took_us) = campaign(pool, specs)?;
        tally.campaigns.add(took_us);
        tally.batches.extend(&seen.batches);
        tally.samples += sched.samples;
        tally.attempted += specs.len() as u64;
        tally.failed +=
            seen.failed + sched.total_retries() + sched.total_evictions() + sched.total_sheds();
        tally.fingerprints.push(fingerprint);
        tally.reports.push(sched);
        if Instant::now() >= deadline {
            break;
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    Ok(tally)
}

fn setup_seconds(dir: &Path) -> Result<f64, String> {
    let mut err = None;
    let secs = median_setup_secs(|| {
        let t = Instant::now();
        let pool = Pool::spawn(dir).and_then(|p| p.scheduler().map(|_| p));
        let took = t.elapsed();
        match pool {
            Ok(p) => p.shutdown(),
            Err(e) => err = Some(e),
        }
        took
    });
    err.map_or(Ok(secs), Err)
}

/// Run `pool_matrix`.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let specs = matrix(run.seed);
    let pool = Pool::spawn(&run.dir)?;
    let t = timed_phase(&pool, &specs, run.seconds)?;
    // Read before the reference run and the set-up repetitions below.
    report.values.set("peak_rss_mb", crate::host::peak_rss_mb());
    pool.shutdown();

    let reference = CampaignRunner::new().threads(WORKERS).run(specs.clone()).fingerprint();
    if t.fingerprints.iter().any(|fp| *fp != reference) {
        report
            .problems
            .push("pool_matrix fingerprint differs from CampaignRunner on the same matrix".into());
    }

    report.attempted = t.attempted;
    report.failed = t.failed;
    let v = &mut report.values;
    v.set("samples_per_s", samples_per_s(&t));
    v.set("batch_p50_ms", t.campaigns.p_us(50.0) / 1e3);
    v.set("batch_p90_ms", t.campaigns.p_us(90.0) / 1e3);
    v.set("req_per_s", t.batches.calls() / t.wall_s);
    v.set("req_p50_us", t.batches.p_us(50.0));
    v.set("req_p99_us", t.batches.p_us(99.0));
    if run.trace {
        scheduler_layers(&t.reports, v);
        // Timestamps the phase took: one per campaign and per batch told.
        let stamps = t.campaigns.calls() + t.batches.calls();
        v.set("trace.overhead_frac", stamps * stamp_cost_us() / (t.wall_s * 1e6));
        probes::vision(Fidelity::Fast, run.seed, v)?;
        v.set("failed_frac", crate::session::failed_frac(report.failed, report.attempted));
        let read_seconds = run.seconds.min(crate::portal::READ_PHASE_SECONDS);
        crate::portal::read_layers(run.seed, read_seconds, &mut report)?;
    } else {
        let setup_s = setup_seconds(&run.dir)?;
        report.values.set("setup_s", setup_s);
    }
    Ok(report)
}

/// Samples measured per wall second of a timed phase.
fn samples_per_s(t: &Tally) -> f64 {
    t.samples as f64 / t.wall_s
}

/// `scheduler.*` rows, summed (times, counts) or averaged (shares) over
/// every campaign of the traced phase.
fn scheduler_layers(reports: &[SchedulerReport], v: &mut Values) {
    let ms = |f: &dyn Fn(&SchedulerReport) -> Duration| -> f64 {
        reports.iter().map(|r| f(r).as_secs_f64() * 1e3).sum()
    };
    let count =
        |f: &dyn Fn(&SchedulerReport) -> u64| -> f64 { reports.iter().map(f).sum::<u64>() as f64 };
    let mean = |f: &dyn Fn(&SchedulerReport) -> f64| -> f64 {
        reports.iter().map(f).sum::<f64>() / reports.len().max(1) as f64
    };
    v.set("scheduler.deal_ms", ms(&|r| r.phases.deal));
    v.set("scheduler.steal_ms", ms(&|r| r.phases.steal));
    v.set("scheduler.retry_ms", ms(&|r| r.phases.retry));
    v.set("scheduler.merge_ms", ms(&|r| r.phases.merge));
    v.set(
        "scheduler.busy_frac",
        mean(&|r| {
            let busy: f64 = r.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
            busy / (r.workers.len().max(1) as f64 * r.wall.as_secs_f64())
        }),
    );
    v.set("scheduler.steals", count(&|r| r.total_steals()));
    v.set("scheduler.retries", count(&|r| r.total_retries()));
    v.set("scheduler.evictions", count(&|r| r.total_evictions()));
    v.set("scheduler.sheds", count(&|r| r.total_sheds()));
    v.set("scheduler.throttled", count(&|r| r.total_throttled()));
    v.set("scheduler.wire_posts", count(&|r| r.workers.iter().map(|w| w.wire_posts).sum()));
    v.set("scheduler.wire_resends", count(&|r| r.workers.iter().map(|w| w.wire_resends).sum()));
    v.set("scheduler.local", count(&|r| r.local));
    // Least over most busy worker: 1 when the pool is evenly loaded.
    v.set(
        "scheduler.worker_balance",
        mean(&|r| {
            let busy: Vec<f64> = r.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
            let max = busy.iter().copied().fold(0.0, f64::max);
            if max > 0.0 {
                busy.iter().copied().fold(f64::INFINITY, f64::min) / max
            } else {
                0.0
            }
        }),
    );
    v.set("remote.posts", count(&|r| r.workers.iter().map(|w| w.wire_posts).sum()));
    v.set("remote.resends", count(&|r| r.workers.iter().map(|w| w.wire_resends).sum()));
    v.set("remote.reconnects", count(&|r| r.workers.iter().map(|w| w.wire_reconnects).sum()));
    v.set("remote.sheds", count(&|r| r.total_sheds()));
}
