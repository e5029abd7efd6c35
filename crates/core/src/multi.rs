//! E6 — the paper's future-work experiment (§4): "An interesting future
//! experiment would involve integrating additional OT2s in our workflow, so
//! that multiple plates of colors could be mixed at once. This would lead to
//! an increase in CCWH, but potentially a lower TWH for the same
//! experimental results."
//!
//! Each OT-2 gets its own *flow process* on the `sdl-desim` executive:
//! flows own a plate on their handler's deck and contend for the shared
//! `pf400`, `sciclops` and camera nest exactly as physical plates would on
//! the rail. This module is the lab side only. Every decision goes through
//! the scenario's one [`Experiment`]: a flow reserves its batch from the
//! shared budget at the top of its loop, proposes once its plate is
//! staged, and tells the measurements when its image is graded, so N
//! samples are split dynamically between handlers and the history is
//! ordered by the simulated clock.

use crate::app::{AppError, ExperimentOutcome};
use crate::backend::{BackendCaps, BackendClose, BatchResult, PlateReader};
use crate::config::AppConfig;
use crate::experiment::Experiment;
use crate::metrics::SdlMetrics;
use crate::protocol::build_protocol;
use parking_lot::Mutex;
use sdl_desim::{RngHub, SimDuration, SimTime, Simulation};
use sdl_instruments::{ActionArgs, ActionData, Microplate, WellIndex};
use sdl_wei::{Engine, Workcell, WorkcellConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Build a workcell document with `n` liquid handlers (each with its own
/// replenisher) sharing one crane, arm and camera.
pub fn multi_ot2_workcell_yaml(n: usize) -> String {
    let mut out = String::from(
        "name: rpl_workcell_multi\nmodules:\n  - name: sciclops\n    type: plate_crane\n    config:\n      towers: [10, 10, 10, 10]\n      exchange: sciclops.exchange\n  - name: pf400\n    type: manipulator\n",
    );
    for i in 1..=n {
        let _ = write!(
            out,
            "  - name: ot2_{i}\n    type: liquid_handler\n    config:\n      deck: ot2_{i}.deck\n      reservoir_capacity_ul: 4000\n      tips: 960\n  - name: barty_{i}\n    type: liquid_replenisher\n    config:\n      feeds: ot2_{i}\n      stock_ul: 2000000\n"
        );
    }
    out.push_str("  - name: camera\n    type: camera\n    config:\n      nest: camera.nest\n");
    out
}

/// Lab state every flow shares: the workcell, the session that decides,
/// and the per-handler tallies.
struct Shared {
    engine: Engine,
    session: Experiment,
    plates_used: u32,
    per_handler: Vec<u32>,
    error: Option<AppError>,
}

/// Run the shared budget of `base` over `n_ot2` handlers in a fresh
/// session; the workcell is generated.
pub fn run_multi_ot2(base: &AppConfig, n_ot2: usize) -> Result<ExperimentOutcome, AppError> {
    drive_multi_ot2(Experiment::new(base.clone())?, n_ot2)
}

/// Drive `session` to completion on `n_ot2` handlers, each batch decided
/// by the session (campaign executors attach their event scope first).
pub(crate) fn drive_multi_ot2(
    session: Experiment,
    n_ot2: usize,
) -> Result<ExperimentOutcome, AppError> {
    assert!(n_ot2 >= 1);
    let base = session.config().clone();
    let hub = RngHub::new(base.seed);
    let yaml = multi_ot2_workcell_yaml(n_ot2);
    let mut cell_cfg = WorkcellConfig::from_yaml(&yaml)?;
    cell_cfg.default_camera_fidelity(base.fidelity.name());
    if let Some(drift) = base.drift {
        cell_cfg.default_camera_drift(&drift.name(), base.seed);
    }
    let cell = Workcell::instantiate(cell_cfg, base.dyes.clone(), base.mix)?;
    let engine = Engine::new(cell, hub).with_faults(base.faults.clone());
    let caps = BackendCaps {
        plate_capacity: Microplate::standard96().well_count() as u32,
        dye_channels: base.dyes.len() as u32,
        provides_images: false,
        real_telemetry: true,
    };

    let shared = Arc::new(Mutex::new(Shared {
        engine,
        session,
        plates_used: 0,
        per_handler: vec![0; n_ot2],
        error: None,
    }));

    let mut sim = Simulation::new(hub).without_trace();
    // One desim resource per contended module; the camera resource guards
    // the whole image turnaround (nest occupancy included).
    let mut res = BTreeMap::new();
    for name in ["sciclops", "pf400", "camera"] {
        res.insert(name.to_string(), sim.resource(name, 1));
    }
    for i in 1..=n_ot2 {
        res.insert(format!("ot2_{i}"), sim.resource(format!("ot2_{i}"), 1));
        res.insert(format!("barty_{i}"), sim.resource(format!("barty_{i}"), 1));
    }

    for flow in 1..=n_ot2 {
        let shared = Arc::clone(&shared);
        let res = res.clone();
        let cfg = base.clone();
        sim.process(format!("flow-{flow}"), move |ctx| {
            let ot2 = format!("ot2_{flow}");
            let barty = format!("barty_{flow}");
            let deck = format!("{ot2}.deck");
            let dyes = &cfg.dyes;
            let mut reader = PlateReader::new(&cfg);

            // Record the first error any flow hits; every flow stops at its
            // next check.
            let fail = |e: AppError| {
                shared.lock().error.get_or_insert(e);
            };

            // Dispatch one command while holding the module's resource.
            // Returns the data; records any engine error in `shared`.
            macro_rules! command {
                ($module:expr, $action:expr, $args:expr) => {{
                    let r = res[$module];
                    ctx.acquire(r);
                    let result = shared.lock().engine.dispatch(ctx.now(), $module, $action, &$args);
                    match result {
                        Ok(cmd) => {
                            ctx.hold(cmd.busy);
                            ctx.release(r);
                            Some(cmd.data)
                        }
                        Err(e) => {
                            fail(e.into());
                            ctx.release(r);
                            None
                        }
                    }
                }};
            }

            let mut have_plate = false;
            'outer: loop {
                // Reserve a batch from the shared budget.
                let batch_start = ctx.now();
                let b = {
                    let mut s = shared.lock();
                    if s.error.is_some() {
                        break 'outer;
                    }
                    match s.session.reserve(&caps) {
                        Some(b) => b,
                        None => break 'outer,
                    }
                };

                // Plate lifecycle: fetch on demand, swap when a full batch
                // no longer fits (same policy as the single-flow app).
                let mut wells: Vec<WellIndex> = Vec::new();
                for _ in 0..2 {
                    if have_plate {
                        let s = shared.lock();
                        if let Ok(Some(id)) = s.engine.workcell.world.plate_at(&deck) {
                            if let Ok(plate) = s.engine.workcell.world.plate(id) {
                                wells = plate.next_free(b);
                            }
                        }
                    }
                    if wells.len() >= b && have_plate {
                        break;
                    }
                    // Trash the exhausted plate, then fetch a fresh one.
                    if have_plate {
                        let args =
                            ActionArgs::none().with("source", deck.clone()).with("target", "trash");
                        if command!("pf400", "transfer", args).is_none() {
                            break 'outer;
                        }
                    }
                    // sciclops held across the exchange hand-off so flows
                    // cannot collide on the exchange nest.
                    let crane = res["sciclops"];
                    ctx.acquire(crane);
                    let got = {
                        let result = shared.lock().engine.dispatch(
                            ctx.now(),
                            "sciclops",
                            "get_plate",
                            &ActionArgs::none(),
                        );
                        match result {
                            Ok(cmd) => {
                                ctx.hold(cmd.busy);
                                true
                            }
                            Err(e) => {
                                fail(e.into());
                                false
                            }
                        }
                    };
                    if !got {
                        ctx.release(crane);
                        break 'outer;
                    }
                    let args = ActionArgs::none()
                        .with("source", "sciclops.exchange")
                        .with("target", deck.clone());
                    let moved = command!("pf400", "transfer", args).is_some();
                    ctx.release(crane);
                    if !moved {
                        break 'outer;
                    }
                    shared.lock().plates_used += 1;
                    have_plate = true;
                    // Prime this handler's reservoirs.
                    if command!(&barty, "fill_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                }
                if wells.len() < b {
                    let s = shared.lock();
                    if let Ok(Some(id)) = s.engine.workcell.world.plate_at(&deck) {
                        if let Ok(plate) = s.engine.workcell.world.plate(id) {
                            wells = plate.next_free(b);
                        }
                    }
                }
                if wells.len() < b {
                    fail(AppError::Setup("plate allocation failed".into()));
                    break 'outer;
                }
                let wells = &wells[..b];

                // Propose from the history as it stands once the plate is
                // staged; a batch another flow told meanwhile may have
                // ended the session.
                let Some(batch) = shared.lock().session.propose(b) else { break 'outer };
                let protocol = match build_protocol(&batch.ratios, wells, dyes) {
                    Ok(p) => p,
                    Err(e) => {
                        fail(e.into());
                        break 'outer;
                    }
                };

                // Replenish this handler's bank when low.
                let needs_refill = {
                    let s = shared.lock();
                    match s.engine.workcell.world.bank(&ot2) {
                        Ok(bank) => {
                            bank.reservoirs.iter().any(|r| r.volume_ul < cfg.refill_watermark_ul)
                                || !bank.can_supply(&protocol.demand_ul(dyes.len()))
                        }
                        Err(_) => false,
                    }
                };
                if needs_refill {
                    if command!(&barty, "drain_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                    if command!(&barty, "fill_colors", ActionArgs::none()).is_none() {
                        break 'outer;
                    }
                }

                // Mix on this flow's handler (runs concurrently with other
                // flows — the whole point of the experiment).
                let args = ActionArgs::none().with_protocol(protocol);
                if command!(&ot2, "run_protocol", args).is_none() {
                    break 'outer;
                }

                // Image turnaround: hold the camera for the full nest visit.
                let cam = res["camera"];
                ctx.acquire(cam);
                let to_nest =
                    ActionArgs::none().with("source", deck.clone()).with("target", "camera.nest");
                if command!("pf400", "transfer", to_nest).is_none() {
                    ctx.release(cam);
                    break 'outer;
                }
                // The camera resource is already held for the whole nest
                // visit; dispatch the capture directly.
                let capture = shared.lock().engine.dispatch(
                    ctx.now(),
                    "camera",
                    "take_picture",
                    &ActionArgs::none(),
                );
                let image = match capture {
                    Ok(cmd) => {
                        ctx.hold(cmd.busy);
                        match cmd.data {
                            ActionData::Image(img) => img,
                            _ => {
                                fail(AppError::Setup("camera returned no image".into()));
                                ctx.release(cam);
                                break 'outer;
                            }
                        }
                    }
                    Err(e) => {
                        fail(e.into());
                        ctx.release(cam);
                        break 'outer;
                    }
                };
                let back =
                    ActionArgs::none().with("source", "camera.nest").with("target", deck.clone());
                if command!("pf400", "transfer", back).is_none() {
                    ctx.release(cam);
                    break 'outer;
                }
                ctx.release(cam);

                // Compute: detection, then the session grades the batch.
                ctx.hold(SimDuration::from_secs_f64(cfg.compute_seconds));
                let measurements = match reader.read(&image, wells) {
                    Ok(m) => m,
                    Err(e) => {
                        fail(e);
                        break 'outer;
                    }
                };
                let result = BatchResult {
                    measurements,
                    elapsed: ctx.now(),
                    batch_wall: ctx.now() - batch_start,
                    timing: None,
                    image: None,
                };
                let mut s = shared.lock();
                s.per_handler[flow - 1] += b as u32;
                if let Err(e) = s.session.tell(&batch, result) {
                    s.error.get_or_insert(e);
                    break 'outer;
                }
            }
        });
    }

    let end = sim.run().map_err(|e| AppError::Setup(e.to_string()))?.end;
    let Shared { engine, mut session, plates_used, per_handler, error } = Arc::try_unwrap(shared)
        .map_err(|_| AppError::Setup("flow still holds shared state".into()))?
        .into_inner();
    if let Some(e) = error {
        return Err(e);
    }
    let samples = session.samples_measured();
    let close = BackendClose {
        duration: end - SimTime::ZERO,
        metrics: SdlMetrics::compute(
            &engine.history,
            &engine.counters,
            &engine.reliability,
            SimTime::ZERO,
            end,
            samples,
        ),
        counters: engine.counters,
        plates_used,
    };
    let mut outcome = session.outcome(close);
    outcome.per_handler_samples = per_handler;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(samples: u32, batch: u32) -> AppConfig {
        AppConfig { sample_budget: samples, batch, publish_images: false, ..AppConfig::default() }
    }

    #[test]
    fn yaml_generator_scales() {
        let y = multi_ot2_workcell_yaml(3);
        let cfg = WorkcellConfig::from_yaml(&y).unwrap();
        assert_eq!(cfg.modules.len(), 2 + 3 * 2 + 1);
    }

    #[test]
    fn single_handler_matches_sequential_structure() {
        let out = run_multi_ot2(&base(8, 2), 1).expect("n=1 run");
        assert_eq!(out.samples_measured, 8);
        assert_eq!(out.per_handler_samples, vec![8]);
        assert!(out.best_score.is_finite());
    }

    #[test]
    fn two_handlers_split_work_and_finish_faster() {
        let one = run_multi_ot2(&base(16, 2), 1).expect("n=1");
        let two = run_multi_ot2(&base(16, 2), 2).expect("n=2");
        assert_eq!(two.samples_measured, 16);
        // Both handlers did real work.
        assert!(two.per_handler_samples.iter().all(|&s| s > 0), "{:?}", two.per_handler_samples);
        // The paper's prediction: lower TWH for the same experimental result.
        assert!(
            two.duration.as_secs_f64() < one.duration.as_secs_f64() * 0.75,
            "2 OT2s: {} vs 1 OT2: {}",
            two.duration,
            one.duration
        );
        // Commands at least match the single-handler count (extra plate
        // logistics can only add).
        assert!(two.counters.robotic_completed >= one.counters.robotic_completed.min(16 * 3));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_multi_ot2(&base(12, 3), 2).expect("a");
        let b = run_multi_ot2(&base(12, 3), 2).expect("b");
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.per_handler_samples, b.per_handler_samples);
    }
}
