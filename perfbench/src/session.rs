//! `sim_bayes` and `remote_random`: the benchmark drives the paper's
//! ask → submit → tell loop itself, one `Experiment` of 128 samples after
//! another, with a file-backed `EventLog` attached through `EventScope`.
//! `sim_bayes` executes on an in-process `SimBackend` with the Bayesian
//! solver; `remote_random` executes over `RemoteBackend` on a loopback
//! `PortalServer` + `LabHost` worker with the random solver, so propose
//! costs almost nothing and `/v1` dispatch dominates. Both use the default
//! config otherwise: images on, `fast` fidelity, batch 4.

use crate::metrics::Values;
use crate::probes;
use crate::stats::{fnv64, median_setup_secs, mix, stamp_cost_us, us, Span};
use crate::{Report, Run};
use sdl_core::{
    AppConfig, BackendCaps, BatchResult, ColorPickerApp, EventLog, EventScope, Experiment,
    ExperimentOutcome, LabBackend, RemoteBackend, RemoteStats, SimBackend,
};
use sdl_datapub::{AcdcPortal, BlobStore};
use sdl_portal_server::{LabHost, PortalServer, ServerConfig, ServerHandle};
use sdl_solvers::SolverKind;
use sdl_vision::Fidelity;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: u32 = 128;
const BATCH: u32 = 4;
/// Batch results kept from a traced phase for the wire-codec probe.
const WIRE_SAMPLES: usize = 8;
/// A traced loop's unattributed time must stay under this share of its
/// wall time, or the layer rows do not explain the loop.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Which of the two session workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// W1: in-process sim backend, Bayesian solver.
    SimBayes,
    /// W2: remote backend over loopback HTTP, random solver.
    RemoteRandom,
}

/// The configuration of experiment `i` in a run seeded with `seed`.
pub fn config(kind: Kind, seed: u64, i: u64) -> AppConfig {
    AppConfig {
        solver: match kind {
            Kind::SimBayes => SolverKind::Bayesian,
            Kind::RemoteRandom => SolverKind::Random,
        },
        sample_budget: SAMPLES,
        batch: BATCH,
        seed: mix(seed, i),
        ..AppConfig::default()
    }
}

/// What the seed generates: the experiment seeds of the first experiments.
pub fn inputs(kind: Kind, seed: u64) -> String {
    (0..4).map(|i| format!("{:?} ", config(kind, seed, i))).collect()
}

/// The executor behind one experiment.
enum Lab {
    Sim(Box<SimBackend>),
    Remote(Box<RemoteBackend>),
}

impl Lab {
    fn backend(&mut self) -> &mut dyn LabBackend {
        match self {
            Lab::Sim(b) => b.as_mut(),
            Lab::Remote(b) => b.as_mut(),
        }
    }

    fn remote_stats(&self) -> RemoteStats {
        match self {
            Lab::Sim(_) => RemoteStats::default(),
            Lab::Remote(b) => b.stats(),
        }
    }
}

/// What outlives single experiments: the loopback worker (W2 only) and
/// the directory the event logs go to.
struct Rig {
    kind: Kind,
    worker: Option<ServerHandle>,
    log_path: PathBuf,
}

impl Rig {
    fn spawn(kind: Kind, dir: &Path) -> Result<Rig, String> {
        let worker = match kind {
            Kind::SimBayes => None,
            Kind::RemoteRandom => Some(loopback_worker()?),
        };
        Ok(Rig { kind, worker, log_path: dir.join("events.jsonl") })
    }

    fn lab(&self, config: &AppConfig) -> Result<Lab, String> {
        Ok(match &self.worker {
            None => Lab::Sim(Box::new(SimBackend::new(config).map_err(|e| e.to_string())?)),
            Some(w) => {
                Lab::Remote(Box::new(RemoteBackend::new(w.addr().to_string(), config.clone())))
            }
        })
    }

    fn shutdown(self) {
        if let Some(w) = self.worker {
            w.shutdown();
        }
    }
}

/// A lab worker as `sdl-lab serve` runs it, in this process, with no more
/// handler threads than the host has cores.
pub fn loopback_worker() -> Result<ServerHandle, String> {
    let server = PortalServer::new(Arc::new(AcdcPortal::new()), Arc::new(BlobStore::in_memory()))
        .with_lab(Arc::new(LabHost::new()));
    sdl_portal_server::spawn(
        server,
        &ServerConfig { threads: crate::threads(), ..ServerConfig::default() },
    )
    .map_err(|e| format!("bind loopback worker: {e}"))
}

/// An experiment that is set up and open, ready for its first ask.
struct Opened {
    session: Experiment,
    lab: Lab,
    caps: BackendCaps,
    log: Arc<EventLog>,
}

fn open(rig: &Rig, config: AppConfig, index: usize, tally: &mut Tally) -> Result<Opened, String> {
    let log = Arc::new(EventLog::create(&rig.log_path).map_err(|e| e.to_string())?);
    let mut lab = rig.lab(&config)?;
    let mut session = Experiment::new(config).map_err(|e| e.to_string())?;
    session.attach_events(EventScope::new(Arc::clone(&log), index, 0));
    let t = Instant::now();
    let caps = lab.backend().open().map_err(|e| format!("backend open: {e}"))?;
    tally.open.add(us(t, Instant::now()));
    Ok(Opened { session, lab, caps, log })
}

/// One batch result, reduced to what bit-identity compares.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    measurements: Vec<(String, [u8; 3])>,
    elapsed_us: u64,
    batch_wall_us: u64,
    image: Option<(usize, u64)>,
}

impl Digest {
    fn of(r: &BatchResult) -> Digest {
        Digest {
            measurements: r
                .measurements
                .iter()
                .map(|m| (m.well.to_string(), m.color.channels()))
                .collect(),
            elapsed_us: r.elapsed.as_micros(),
            batch_wall_us: r.batch_wall.as_micros(),
            image: r.image.as_ref().map(|i| (i.len(), fnv64(i))),
        }
    }
}

/// Everything one timed phase measured.
#[derive(Default)]
struct Tally {
    wall_s: f64,
    samples: u64,
    attempted: u64,
    failed: u64,
    batch: Span,
    ask: Span,
    submit: Span,
    tell: Span,
    open: Span,
    close: Span,
    outcome: Span,
    loop_wall_us: f64,
    /// The checks' own work inside the loop (digests, kept copies),
    /// microseconds; no layer's time, so taken out of every wall time.
    checking_us: f64,
    published: u64,
    blobs: u64,
    flow_failed: u64,
    store_mb: f64,
    events_appended: u64,
    events_bytes: u64,
    remote: RemoteStats,
    kept: Vec<BatchResult>,
    /// The first experiment's outcome fingerprint, samples and batch
    /// digests, for the checks (the outcome itself would pin its blob store).
    first: Option<(String, u32, Vec<Digest>)>,
}

/// Drive one open experiment to its budget, or until `deadline`. Without
/// a deadline it is the checked experiment, and also digests its batches.
fn drive(
    mut x: Opened,
    deadline: Option<Instant>,
    keep: bool,
    tally: &mut Tally,
) -> Result<(ExperimentOutcome, Vec<Digest>), String> {
    let mut digests = Vec::new();
    let mut checking_us = 0.0;
    let start = Instant::now();
    while deadline.is_none_or(|d| Instant::now() < d) {
        let t0 = Instant::now();
        let batch = x.session.ask(&x.caps);
        let t1 = Instant::now();
        tally.ask.add(us(t0, t1));
        let Some(batch) = batch else { break };
        tally.attempted += 1;
        let result = x.lab.backend().submit_batch(&batch);
        let t2 = Instant::now();
        tally.submit.add(us(t1, t2));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("batch {} failed: {e}", batch.run);
                tally.failed += 1;
                break;
            }
        };
        if deadline.is_none() {
            digests.push(Digest::of(&result));
        }
        if keep && tally.kept.len() < WIRE_SAMPLES {
            tally.kept.push(result.clone());
        }
        // Tell starts after the checks' work above.
        let t2b = Instant::now();
        checking_us += us(t2, t2b);
        if let Err(e) = x.session.tell(&batch, result) {
            eprintln!("tell {} failed: {e}", batch.run);
            tally.failed += 1;
            break;
        }
        let t3 = Instant::now();
        tally.tell.add(us(t2b, t3));
        tally.batch.add(us(t0, t2) + us(t2b, t3));
        tally.samples += batch.len() as u64;
    }
    let t4 = Instant::now();
    let close = x
        .lab
        .backend()
        .close(x.session.samples_measured())
        .map_err(|e| format!("backend close: {e}"))?;
    let t5 = Instant::now();
    let outcome = x.session.outcome(close);
    let t6 = Instant::now();
    tally.close.add(us(t4, t5));
    tally.outcome.add(us(t5, t6));
    tally.loop_wall_us += us(start, t6) - checking_us;
    tally.checking_us += checking_us;
    tally.published += outcome.flow_stats.published;
    tally.blobs += outcome.flow_stats.blobs;
    tally.flow_failed += outcome.flow_stats.failed;
    tally.store_mb = tally.store_mb.max(outcome.store.total_bytes() as f64 / 1e6);
    tally.events_appended += x.log.head();
    drop(x.log);
    let s = x.lab.remote_stats();
    tally.remote.posts += s.posts;
    tally.remote.resends += s.resends;
    tally.remote.reconnects += s.reconnects;
    tally.remote.sheds += s.sheds;
    Ok((outcome, digests))
}

/// Run experiments back to back for `seconds`. The first always runs to
/// its budget so the checks see a whole experiment; later ones stop at the
/// deadline.
fn timed_phase(rig: &Rig, seed: u64, seconds: f64, keep: bool) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    loop {
        let opened = open(rig, config(rig.kind, seed, i), i as usize, &mut tally)?;
        let (outcome, digests) = drive(opened, (i > 0).then_some(deadline), keep, &mut tally)?;
        tally.events_bytes += std::fs::metadata(&rig.log_path).map(|m| m.len()).unwrap_or(0);
        if i == 0 {
            tally.first = Some((outcome_fingerprint(&outcome), outcome.samples_measured, digests));
        }
        i += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    tally.wall_s = start.elapsed().as_secs_f64() - tally.checking_us / 1e6;
    Ok(tally)
}

/// Everything bit-identity compares in an experiment outcome.
fn outcome_fingerprint(o: &ExperimentOutcome) -> String {
    let mut s = format!(
        "{}|{:?}|{:016x}|{:?}|{}|{}|{}|{:?}|{}|{}|{}|{}",
        o.experiment_id,
        o.termination,
        o.best_score.to_bits(),
        o.best_ratios.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        o.samples_measured,
        o.duration.as_micros(),
        o.plates_used,
        o.counters,
        o.solver_fallbacks,
        o.flow_stats.published,
        o.flow_stats.blobs,
        o.portal.len(),
    );
    for p in &o.trajectory {
        s.push_str(&format!(
            " {}:{:016x}:{:016x}:{:016x}",
            p.sample,
            p.score.to_bits(),
            p.best.to_bits(),
            p.elapsed_min.to_bits()
        ));
    }
    s
}

/// The same experiment on an in-process `SimBackend` with no event log:
/// its batch digests and its submit latencies.
fn sim_reference(config: AppConfig) -> Result<(Vec<Digest>, Span), String> {
    let mut backend = SimBackend::new(&config).map_err(|e| e.to_string())?;
    let mut session = Experiment::new(config).map_err(|e| e.to_string())?;
    let caps = backend.open().map_err(|e| e.to_string())?;
    let (mut digests, mut submit) = (Vec::new(), Span::default());
    while let Some(batch) = session.ask(&caps) {
        let t = Instant::now();
        let result = backend.submit_batch(&batch).map_err(|e| e.to_string())?;
        submit.add(us(t, Instant::now()));
        digests.push(Digest::of(&result));
        session.tell(&batch, result).map_err(|e| e.to_string())?;
    }
    let close = backend.close(session.samples_measured()).map_err(|e| e.to_string())?;
    session.outcome(close);
    Ok((digests, submit))
}

/// Median wall time of setting up from nothing to an open experiment.
fn setup_seconds(kind: Kind, seed: u64, dir: &Path) -> Result<f64, String> {
    let mut err = None;
    let secs = median_setup_secs(|| {
        let t = Instant::now();
        let opened = Rig::spawn(kind, dir).and_then(|rig| {
            open(&rig, config(kind, seed, 0), 0, &mut Tally::default()).map(|x| (rig, x))
        });
        let took = t.elapsed();
        match opened {
            Ok((rig, mut x)) => {
                if let Ok(close) = x.lab.backend().close(0) {
                    x.session.outcome(close);
                }
                // Hang up first: shutdown waits for open connections.
                drop(x);
                rig.shutdown();
            }
            Err(e) => err = Some(e),
        }
        took
    });
    err.map_or(Ok(secs), Err)
}

/// Run `sim_bayes` or `remote_random`.
pub fn run(kind: Kind, run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let rig = Rig::spawn(kind, &run.dir)?;
    let t = timed_phase(&rig, run.seed, run.seconds, run.trace)?;
    // Read before the reference runs and the set-up repetitions below.
    report.values.set("peak_rss_mb", crate::host::peak_rss_mb());
    rig.shutdown();

    // Checks on the first experiment of the measured phase.
    let first_config = config(kind, run.seed, 0);
    let (first, first_samples, first_digests) = t.first.as_ref().ok_or("no experiment ran")?;
    if *first_samples != SAMPLES {
        report
            .problems
            .push(format!("first experiment measured {first_samples} of {SAMPLES} samples"));
    }
    let mut sim_submit = None;
    match kind {
        Kind::SimBayes => {
            let reference = ColorPickerApp::new(first_config)
                .and_then(|mut app| app.run())
                .map_err(|e| format!("ColorPickerApp::run: {e}"))?;
            if *first != outcome_fingerprint(&reference) {
                report.problems.push(
                    "sim_bayes outcome differs from ColorPickerApp::run on the same config".into(),
                );
            }
        }
        Kind::RemoteRandom => {
            let (digests, submit) = sim_reference(first_config)?;
            if &digests != first_digests {
                report.problems.push(
                    "remote_random measurements differ from a SimBackend run of the same config"
                        .into(),
                );
            }
            sim_submit = Some(submit);
        }
    }

    report.attempted = t.attempted;
    report.failed = t.failed + t.remote.resends + t.remote.sheds;
    let v = &mut report.values;
    v.set("samples_per_s", samples_per_s(&t));
    v.set("batch_p50_ms", t.batch.p_us(50.0) / 1e3);
    v.set("batch_p90_ms", t.batch.p_us(90.0) / 1e3);
    v.set("req_per_s", t.submit.calls() / t.wall_s);
    v.set("req_p50_us", t.submit.p_us(50.0));
    v.set("req_p99_us", t.submit.p_us(99.0));
    if run.trace {
        layers(kind, &t, sim_submit.as_ref(), run, &mut report)?;
    } else {
        let setup_s = setup_seconds(kind, run.seed, &run.dir)?;
        report.values.set("setup_s", setup_s);
    }
    Ok(report)
}

/// The per-layer rows of a traced phase.
fn layers(
    kind: Kind,
    t: &Tally,
    sim_submit: Option<&Span>,
    run: &Run,
    report: &mut Report,
) -> Result<(), String> {
    let v: &mut Values = &mut report.values;
    v.set("experiment.ask.calls", t.ask.calls());
    v.set("experiment.ask.busy_ms", t.ask.busy_ms());
    v.set("experiment.ask.p50_us", t.ask.p_us(50.0));
    v.set("backend.submit.calls", t.submit.calls());
    v.set("backend.submit.busy_ms", t.submit.busy_ms());
    v.set("backend.submit.p50_us", t.submit.p_us(50.0));
    v.set("backend.submit.p90_us", t.submit.p_us(90.0));
    v.set("backend.open_ms", t.open.p_us(50.0) / 1e3);
    v.set("backend.close_ms", t.close.p_us(50.0) / 1e3);
    v.set("experiment.tell.calls", t.tell.calls());
    v.set("experiment.tell.busy_ms", t.tell.busy_ms());
    v.set("experiment.tell.p50_us", t.tell.p_us(50.0));
    v.set("experiment.outcome_ms", t.outcome.busy_ms());
    v.set("datapub.published", t.published as f64);
    v.set("datapub.blobs", t.blobs as f64);
    v.set("datapub.failed", t.flow_failed as f64);
    v.set("datapub.store_mb", t.store_mb);
    v.set("events.appended", t.events_appended as f64);
    v.set("events.bytes", t.events_bytes as f64);
    v.set("remote.posts", t.remote.posts as f64);
    v.set("remote.resends", t.remote.resends as f64);
    v.set("remote.reconnects", t.remote.reconnects as f64);
    v.set("remote.sheds", t.remote.sheds as f64);

    // Reconciliation: the layer calls must account for the loop.
    let attributed_ms = t.ask.busy_ms()
        + t.submit.busy_ms()
        + t.tell.busy_ms()
        + t.close.busy_ms()
        + t.outcome.busy_ms();
    let wall_ms = t.loop_wall_us / 1e3;
    let unattributed_ms = wall_ms - attributed_ms;
    v.set("loop.wall_ms", wall_ms);
    v.set("loop.unattributed_ms", unattributed_ms);
    if unattributed_ms.abs() > MAX_UNATTRIBUTED * wall_ms {
        report.problems.push(format!(
            "ask + submit + tell + close + outcome leave {unattributed_ms:.1} of {wall_ms:.1} ms unattributed"
        ));
    }
    let stamps = [&t.ask, &t.submit, &t.tell, &t.batch, &t.open, &t.close, &t.outcome]
        .iter()
        .map(|s| s.calls())
        .sum::<f64>();
    v.set("trace.overhead_frac", stamps * stamp_cost_us() / (t.wall_s * 1e6));

    probes::vision(Fidelity::Fast, run.seed, v)?;
    probes::wire_codecs(&t.kept, v)?;
    probes::event_append(&run.dir, v)?;
    let frame_us = v.get("vision.render.p50_us").unwrap_or(0.0)
        + v.get("vision.detect.p50_us").unwrap_or(0.0)
        + v.get("vision.bmp.p50_us").unwrap_or(0.0);
    let sim_p50 = match (kind, sim_submit) {
        (Kind::RemoteRandom, Some(sim)) => {
            v.set("remote.overhead.p50_us", t.submit.p_us(50.0) - sim.p_us(50.0));
            sim.p_us(50.0)
        }
        _ => t.submit.p_us(50.0),
    };
    v.set("backend.sim.other_us", sim_p50 - frame_us);
    v.set("failed_frac", failed_frac(report.failed, report.attempted));
    Ok(())
}

/// Samples measured per wall second of a timed phase.
fn samples_per_s(t: &Tally) -> f64 {
    t.samples as f64 / t.wall_s
}

/// Failed or refused operations over attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}
