//! Root integration: the §4 future-work experiment across crate boundaries.

use sdl_lab::core::{
    run_multi_ot2, run_one, AppConfig, CampaignEvent, CampaignRunner, EventLog, EventRecord,
    ScenarioSpec, TerminationReason,
};
use sdl_lab::desim::{FaultPlan, FaultRates};
use std::sync::Arc;

#[test]
fn two_handlers_cut_twh_without_losing_science() {
    let base =
        AppConfig { sample_budget: 24, batch: 2, publish_images: false, ..AppConfig::default() };
    let single = run_one(base.clone()).expect("single-flow app");
    let dual = run_multi_ot2(&base, 2).expect("dual-handler run");

    assert_eq!(dual.samples_measured, 24);
    // The paper's trade: lower TWH...
    assert!(
        dual.duration.as_secs_f64() < single.duration.as_secs_f64() * 0.8,
        "dual {} vs single {}",
        dual.duration,
        single.duration
    );
    // ...for at least as many commands (CCWH numerator).
    assert!(dual.counters.robotic_completed >= single.counters.robotic_completed);
    // Science quality is in the same band (same solver, shared history).
    assert!(dual.best_score < 60.0);
}

/// Two multi-OT2 scenarios whose fingerprints were recorded before the
/// flows decided through `Experiment`: (a) plate swaps mid-run and a short
/// final reservation (250 = 6 x 40 + 10), (b) three handlers under fault
/// injection. Any change to when a flow reserves, proposes or tells moves
/// these bytes.
fn pinned_scenarios() -> Vec<ScenarioSpec> {
    let base = |samples, batch, seed| AppConfig {
        sample_budget: samples,
        batch,
        seed,
        publish_images: false,
        ..AppConfig::default()
    };
    let mut faulty = base(20, 3, 14);
    faulty.faults = FaultPlan::uniform(FaultRates::new(0.05, 0.025));
    vec![
        ScenarioSpec::multi_ot2("swaps/x2", base(250, 40, 13), 2),
        ScenarioSpec::multi_ot2("faulty/x3", faulty, 3),
    ]
}

const PINNED: &str = "\
0|swaps/x2|best=3ffbb67ae8584caa dur=4427911610 n=250 plates=4 cmds=35 per=[130, 120]\n\
1|faulty/x3|best=40381a9bea723afb dur=963121492 n=20 plates=3 cmds=30 per=[8, 6, 6]\n";

#[test]
fn multi_ot2_fingerprints_stay_pinned_across_thread_counts() {
    for threads in [1usize, 4] {
        let report = CampaignRunner::new().threads(threads).run(pinned_scenarios());
        assert_eq!(
            report.fingerprint(),
            PINNED,
            "multi-OT2 fingerprint drifted at {threads} threads"
        );
    }
}

fn config(samples: u32, batch: u32, seed: u64) -> AppConfig {
    AppConfig { sample_budget: samples, batch, seed, publish_images: false, ..AppConfig::default() }
}

#[test]
fn match_threshold_stops_a_multi_ot2_run_early() {
    // Without a threshold this run's best drops to 24.8 at sample 9 of 40.
    let mut base = config(40, 2, 21);
    base.match_threshold = Some(30.0);
    let out = run_multi_ot2(&base, 2).expect("threshold run");
    assert!(
        matches!(out.termination, TerminationReason::TargetMatched { .. }),
        "{:?}",
        out.termination
    );
    assert!(out.samples_measured < 40, "measured {} of 40", out.samples_measured);
    assert!(out.best_score <= 30.0, "best {}", out.best_score);
}

#[test]
fn flat_field_reaches_the_multi_ot2_detector() {
    let fingerprint = |flat_field| {
        let config = AppConfig { flat_field, ..config(40, 2, 21) };
        CampaignRunner::new()
            .threads(1)
            .run(vec![ScenarioSpec::multi_ot2("ff/x2", config, 2)])
            .fingerprint()
    };
    assert_ne!(fingerprint(false), fingerprint(true));
}

#[test]
fn multi_ot2_event_log_carries_every_batch_and_sample() {
    let path = std::env::temp_dir().join(format!("sdl-multi-events-{}.jsonl", std::process::id()));
    let log = Arc::new(EventLog::create(&path).unwrap());
    // 15 = 7 x 2 + 1 over three handlers: the last reservation is short.
    let report = CampaignRunner::new()
        .threads(1)
        .with_events(log)
        .run(vec![ScenarioSpec::multi_ot2("events/x3", config(15, 2, 5), 3)]);
    let out = report.results[0].expect_outcome();
    assert_eq!(out.samples_measured, 15);

    let (_, events, _) = EventLog::recover(&path).unwrap();
    let events: Vec<CampaignEvent> = events.into_iter().map(|r: EventRecord| r.event).collect();
    let mut asked = std::collections::BTreeMap::new();
    let (mut told, mut samples) = (0usize, Vec::new());
    for e in &events {
        match e {
            CampaignEvent::BatchAsked { run, size, .. } => {
                assert!(asked.insert(*run, *size).is_none(), "run {run} asked twice");
            }
            CampaignEvent::BatchTold { run, size, .. } => {
                assert_eq!(asked.get(run), Some(size), "run {run} told before it was asked");
                told += 1;
            }
            CampaignEvent::SamplePublished { sample, .. } => samples.push(*sample),
            _ => {}
        }
    }
    assert_eq!(asked.len(), 8, "15 samples in batches of at most 2");
    assert_eq!(told, asked.len());
    assert_eq!(asked.values().sum::<usize>(), 15);
    // One sample_published per measured sample, numbered in tell order.
    assert_eq!(samples, (1..=15).collect::<Vec<u32>>());
    let _ = std::fs::remove_file(path);
}
