//! `sdl-lab` — command-line interface to the color-matching benchmark.
//!
//! ```text
//! sdl-lab run [--samples N] [--batch B] [--solver NAME] [--seed S]
//!             [--backend sim|remote:<url>|replay:<path>]
//!             [--fidelity full|fast|lowres]
//!             [--target R,G,B] [--config FILE] [--runlog-dir DIR]
//!             [--export-portal FILE] [--flat-field]
//! sdl-lab sweep --batches 1,2,4,8 [--samples N] [--threads T]
//! sdl-lab campaign --config FILE [--threads T] [--workers url1,url2,...]
//!                  [--shard N] [--export-portal FILE] [--event-log FILE]
//!                  [--chaos SPEC] [--failure-budget N]
//! sdl-lab campaign --resume LOG [--threads T] [--export-portal FILE]
//! sdl-lab stress [--samples N] [--batch B] [--seed S] [--seeds K]
//!                [--solvers LIST] [--objectives LIST] [--kinds LIST]
//!                [--threads T] [--workers url1,url2,...] [--shard N]
//!                [--chaos SPEC] [--failure-budget N]
//!                [--event-log FILE] [--export-portal FILE] [--fingerprint]
//! sdl-lab portal --import FILE [--experiment ID] [--run N]
//! sdl-lab serve [--import FILE | --campaign FILE] [--addr HOST:PORT]
//!               [--threads N] [--campaign-threads T] [--blob-dir DIR]
//!               [--event-log FILE] [--chaos SPEC] [--max-conns N]
//!               [--quota RATE[:BURST]] [--max-inflight N]
//!               [--blob-mem-cap BYTES]
//! sdl-lab watch URL [--once] [--interval-ms N]
//! sdl-lab workcell
//! sdl-lab help
//! ```

use sdl_lab::color::{Objective, Rgb8};
use sdl_lab::core::{
    batch_sweep, AppConfig, BackendSpec, CampaignConfig, CampaignReport, CampaignRunner,
    CampaignScheduler, ChaosPolicy, ColorPickerApp, EventLog, EventRecord, Experiment, Leaderboard,
    ProgressModel, ScenarioSpec, StressKind, StressSuite,
};
use sdl_lab::datapub::AcdcPortal;
use sdl_lab::solvers::SolverKind;
use sdl_lab::vision::Fidelity;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let result = match command {
        "run" => cmd_run(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "stress" => cmd_stress(&args[1..]),
        "portal" => cmd_portal(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "workcell" => {
            println!("{}", sdl_lab::wei::RPL_WORKCELL_YAML);
            match sdl_lab::wei::WorkcellConfig::from_yaml(sdl_lab::wei::RPL_WORKCELL_YAML) {
                Ok(cfg) => println!("{}", sdl_lab::wei::workcell_diagram(&cfg)),
                Err(e) => eprintln!("diagram unavailable: {e}"),
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'sdl-lab help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "sdl-lab — self-driving-lab color-matching benchmark (simulated RPL workcell)

commands:
  run        run one closed-loop experiment and print metrics + portal summary
  sweep      run a batch-size sweep (Figure 4 style) through the campaign engine
  campaign   run a declarative scenario matrix (solvers x seeds x batches x ...)
  stress     run the built-in ColorBench-style stress suite (objectives x
             drift/multi-target/moving-target conditions x solvers x seeds)
             and print a per-solver leaderboard
  portal     inspect an exported portal JSON-lines file
  serve      serve the ACDC portal over HTTP (saved export or live campaign)
  watch      live terminal dashboard for a serving campaign (reads /events)
  workcell   print the default workcell YAML
  help       this text

run options:
  --samples N         sample budget (default 128)
  --batch B           wells per iteration (default 1)
  --solver NAME       any registered solver (built-ins:
                      genetic|bayesian|annealing|random|grid|analytic)
  --backend SPEC      lab executor: sim (default), remote:<url> (a
                      'sdl-lab serve' worker), or replay:<path> (re-drive a
                      recorded portal export offline)
  --seed S            master seed (default 42)
  --target R,G,B      target color (default 120,120,120)
  --config FILE       load a YAML application config (other flags override)
  --runlog-dir DIR    write per-workflow run logs (text files)
  --export-portal F   write all published records as JSON lines
  --export-html F     write a static HTML portal view (with plate images)
  --blob-dir DIR      spill plate-image blobs to DIR (servable later via
                      'serve --blob-dir DIR')
  --flat-field        enable the detector's flat-field correction
  --fidelity NAME     camera fidelity profile: full (frozen reference
                      renderer), fast (counter-based, default), lowres
                      (counter-based at 320x240)

sweep options:
  --batches LIST      comma-separated batch sizes (default 1,2,4,8,16,32,64)
  --samples N         sample budget per experiment (default 128)
  --threads T         worker threads (default: one per core)

campaign options:
  --config FILE       scenario-matrix YAML (solvers/seeds/batches/targets/
                      mix_models/fidelities/fault_rates/n_ot2 axes over a
                      base config)
  --threads T         worker threads (overrides the config's 'threads'; not
                      with a worker pool)
  --workers LIST      comma-separated worker addresses (host:port); fans the
                      campaign across remote 'sdl-lab serve' workers with
                      work stealing (overrides the config's 'workers:')
  --shard N           (worker pools only) scheduler shard size, scenarios per
                      deal unit (overrides the config's 'shard:'; default
                      automatic)
  --export-portal F   write every streamed scenario record as JSON lines
  --fingerprint       print the campaign's determinism fingerprint
  --event-log FILE    append every campaign event (claims, batches, samples,
                      completions) to FILE as durable, checksummed JSON lines
  --chaos SPEC        (worker pools only) inject deterministic transport
                      faults into the driver-worker wire, e.g.
                      'seed=7,connect=0.05,disconnect=0.05,replay=0.05';
                      keys: seed, connect, disconnect, timeout, http500,
                      replay (probabilities in [0,1]); retry-safe faults
                      leave the fingerprint bit-identical
  --failure-budget N  (worker pools only) quarantine a scenario as a
                      deterministic failure after N failed delivery attempts
                      instead of requeueing forever (default 10; 0 = never)
  --resume LOG        recover LOG from a crashed campaign and finish it:
                      completed scenarios replay bit-exactly from the log,
                      interrupted ones re-drive; the merged report equals an
                      uninterrupted run's (--config is not needed — the
                      scenario matrix is recovered from the log itself)

stress options (plus --samples/--batch/--seed/--config from 'run'):
  --solvers LIST      comma-separated solvers to rank (default
                      genetic,bayesian,random,annealing)
  --objectives LIST   comma-separated objectives (rgb|cie76|cie94|ciede2000|
                      cam16ucs; default rgb,ciede2000,cam16ucs)
  --kinds LIST        comma-separated stress conditions (baseline|wb-drift|
                      gain-drift|multi-target|moving-target; default all)
  --seeds K           replications: master seeds seed..seed+K-1 (default 2)
  --threads T         worker threads (default: one per core; not with --workers)
  --workers LIST      fan the suite across remote 'sdl-lab serve' workers
  --shard N           scheduler shard size (worker pools; default automatic)
  --chaos SPEC, --failure-budget N
                      as for 'campaign' (worker pools only)
  --event-log FILE    append campaign events to FILE (finish a crashed suite
                      with 'sdl-lab campaign --resume FILE')
  --export-portal F   write scenario records + the leaderboard as JSON lines
  --fingerprint       print the suite's determinism fingerprint

portal options:
  --import FILE       JSON-lines file written by --export-portal
  --experiment ID     experiment to summarize (default: first found)
  --run N             also print the detail view of run N

serve options (no flags = empty portal in lab-worker mode):
  --import FILE       serve a saved JSON-lines portal export
  --campaign FILE     run a campaign (scenario-matrix YAML) on background
                      workers; records stream into the live server as
                      scenario prefixes complete
  --addr HOST:PORT    bind address (default 127.0.0.1:8323; port 0 = ephemeral)
  --threads N         HTTP worker threads (default 8; thread-per-connection,
                      so use >= the number of concurrent clients)
  --campaign-threads T campaign worker threads (default: one per core)
  --blob-dir DIR      blob spill directory; with --import, previously
                      spilled plate images are reloaded and served
  --event-log FILE    with --campaign: also persist the event stream to FILE
                      (without this flag a campaign still streams /events
                      from an in-memory log; FILE makes it crash-resumable)
  --chaos SPEC        misbehave as a lab worker, deterministically, e.g.
                      'seed=3,stall=0.1,error=0.05,kill=0.01'; keys: seed,
                      stall, error, kill, shed, stall_ms ('/healthz' is never
                      chaos'd, so schedulers can still probe and readmit)
  --max-conns N       live-connection cap; connections over the cap are
                      answered 503 + Retry-After at accept, never queued
                      (default 256; 0 = unlimited)
  --quota RATE[:BURST] per-tenant token-bucket quota on the /v1 batch API
                      (tenant = session id); over budget answers 429 +
                      Retry-After, e.g. '50' or '100:200' (RATE tokens/s,
                      BURST bucket size, default BURST = 2*RATE)
  --max-inflight N    cap concurrently executing /v1/batch requests; over
                      the cap answers 503 + Retry-After (default unlimited)
  --blob-mem-cap B    in-memory blob ceiling in bytes ('64k'/'16m'/'1g'
                      suffixes ok); over the cap the least-recently-used
                      blobs drop to the --blob-dir spill files and reload
                      hash-verified on demand (needs --blob-dir)
  (SIGTERM drains gracefully: new sessions are refused 503, in-flight
  batches finish, the event log is flushed, then the process exits 0)

watch options (URL is a 'sdl-lab serve' address, e.g. http://127.0.0.1:8323):
  --once              render the current campaign state once and exit
  --interval-ms N     minimum redraw interval (default 500)
  (reconnects with capped exponential backoff; exits with an error after
  6 consecutive failed polls, so a dead server never spins the terminal)

serve endpoints:
  /records            JSON lines; dotted-path filters + limit/offset, e.g.
                      /records?kind=sample&run=12&limit=50&offset=0
  /events             campaign event log, JSON lines; ?from=SEQ&limit=N
                      &timeout_ms=T long-polls (X-Next-Seq header carries
                      the cursor); /events/stream is the same as SSE
  /summary            experiment summary HTML   (?experiment=ID)
  /runs/<run>         run detail HTML           (?experiment=ID)
  /blobs/<ref>        raw plate images
  /healthz            liveness JSON
  /metrics            Prometheus text (+ sdl_lab_campaign_* gauges when a
                      campaign event log is attached)
  /v1/experiments, /v1/batch, /v1/close   POST: the batch-execution API
                      (drive this server as a lab worker from another
                      process via 'run --backend remote:<addr>')

example:
  sdl-lab run --samples 64 --export-portal out.jsonl
  sdl-lab serve --import out.jsonl --addr 127.0.0.1:8323
  curl http://127.0.0.1:8323/records?kind=sample&limit=5

remote-worker example:
  sdl-lab serve --addr 127.0.0.1:8323 &          # lab worker
  sdl-lab run --samples 16 --backend remote:127.0.0.1:8323
  sdl-lab run --samples 16 --export-portal rec.jsonl
  sdl-lab run --samples 16 --backend replay:rec.jsonl   # offline re-drive

worker-pool example (distributed campaign, bit-identical to single-process):
  sdl-lab serve --addr 127.0.0.1:8331 &          # worker 1
  sdl-lab serve --addr 127.0.0.1:8332 &          # worker 2
  sdl-lab campaign --config c.yaml --workers 127.0.0.1:8331,127.0.0.1:8332

observability example (live dashboard + crash resume):
  sdl-lab serve --campaign c.yaml --event-log c.events &
  sdl-lab watch http://127.0.0.1:8323             # live terminal dashboard
  kill -9 %1                                      # simulate a crash...
  sdl-lab campaign --resume c.events --fingerprint   # ...and finish the rest"
    );
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse `name`'s value, if the flag is given.
fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name).map(|v| v.parse().map_err(|_| format!("bad {name} '{v}'"))).transpose()
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (powers of 1024),
/// e.g. `65536`, `64k`, `16m`.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1024),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().map_err(|_| "expected BYTES[k|m|g]".to_string())?;
    n.checked_mul(mult).ok_or_else(|| "byte count overflows".to_string())
}

fn build_config(args: &[String]) -> Result<AppConfig, String> {
    let mut config = match flag_value(args, "--config") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            AppConfig::from_yaml(&text).map_err(|e| e.to_string())?
        }
        None => AppConfig::default(),
    };
    if let Some(v) = flag_value(args, "--samples") {
        config.sample_budget = v.parse().map_err(|_| format!("bad --samples '{v}'"))?;
    }
    if let Some(v) = flag_value(args, "--batch") {
        config.batch = v.parse().map_err(|_| format!("bad --batch '{v}'"))?;
    }
    if let Some(v) = flag_value(args, "--solver") {
        match SolverKind::parse(v) {
            Some(kind) => config.solver = kind,
            None if sdl_lab::solvers::solver_registered(v) => {
                config.custom_solver = Some(v.to_string());
            }
            None => {
                return Err(format!(
                    "unknown solver '{v}' (registered solvers: {})",
                    sdl_lab::solvers::registered_names()
                ))
            }
        }
    }
    if let Some(v) = flag_value(args, "--seed") {
        config.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
    }
    if let Some(v) = flag_value(args, "--target") {
        let parts: Vec<u8> = v
            .split(',')
            .map(|p| p.trim().parse::<u8>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad --target '{v}' (want R,G,B)"))?;
        if parts.len() != 3 {
            return Err(format!("bad --target '{v}' (want three components)"));
        }
        config.target = Rgb8::new(parts[0], parts[1], parts[2]);
    }
    if flag_present(args, "--flat-field") {
        config.flat_field = true;
    }
    if let Some(v) = flag_value(args, "--fidelity") {
        config.fidelity = Fidelity::parse(v).ok_or_else(|| {
            format!("unknown fidelity '{v}' (valid: {})", Fidelity::valid_names())
        })?;
    }
    Ok(config)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let config = build_config(args)?;
    let backend = match flag_value(args, "--backend") {
        Some(v) => BackendSpec::parse(v).map_err(|e| e.to_string())?,
        None => BackendSpec::Sim,
    };
    let runlog_dir = flag_value(args, "--runlog-dir").map(PathBuf::from);
    if runlog_dir.is_some() && backend != BackendSpec::Sim {
        return Err("--runlog-dir needs the sim backend (run logs live lab-side)".into());
    }
    let export = flag_value(args, "--export-portal").map(PathBuf::from);
    let export_html = flag_value(args, "--export-html").map(PathBuf::from);

    eprintln!(
        "running {} samples, batch {}, solver {}, seed {}, backend {backend}...",
        config.sample_budget,
        config.batch,
        config.solver_label(),
        config.seed
    );
    // The sim path keeps the full application (engine access for run logs);
    // other executors drive a bare ask/tell session on the chosen backend.
    let (outcome, app) = match backend {
        BackendSpec::Sim => {
            let mut app = ColorPickerApp::new(config).map_err(|e| e.to_string())?;
            let outcome = app.run().map_err(|e| e.to_string())?;
            (outcome, Some(app))
        }
        spec => {
            let mut session = Experiment::new(config.clone()).map_err(|e| e.to_string())?;
            let mut lab = spec.build(&config).map_err(|e| e.to_string())?;
            let outcome = session.run_on(lab.as_mut()).map_err(|e| e.to_string())?;
            (outcome, None)
        }
    };

    println!("experiment:  {}", outcome.experiment_id);
    println!("termination: {}", outcome.termination);
    println!("duration:    {} (virtual)", outcome.duration);
    println!("best score:  {:.2} at {:?}", outcome.best_score, outcome.best_ratios);
    println!();
    println!("{}", outcome.metrics.render_table1());
    println!("{}", outcome.portal.summary_view(&outcome.experiment_id));

    if let (Some(dir), Some(app)) = (runlog_dir, &app) {
        let n = app.engine().export_runlogs(&dir).map_err(|e| e.to_string())?;
        println!("wrote {n} run logs to {}", dir.display());
    }
    if let Some(path) = export {
        let n = outcome.portal.export_jsonl(&path).map_err(|e| e.to_string())?;
        println!("exported {n} portal records to {}", path.display());
    }
    if let Some(path) = export_html {
        outcome
            .portal
            .export_html(&path, &outcome.experiment_id, Some(&outcome.store))
            .map_err(|e| e.to_string())?;
        println!("wrote HTML portal view to {}", path.display());
    }
    if let Some(dir) = flag_value(args, "--blob-dir") {
        let spill = sdl_lab::datapub::BlobStore::with_spill_dir(dir);
        outcome.store.merge_into(&spill);
        println!("spilled {} plate-image blobs to {dir}", spill.len());
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut base = build_config(args)?;
    base.publish_images = false;
    let batches: Vec<u32> = match flag_value(args, "--batches") {
        Some(v) => v
            .split(',')
            .map(|p| p.trim().parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad --batches '{v}'"))?,
        None => vec![1, 2, 4, 8, 16, 32, 64],
    };
    eprintln!("running {} experiments of {} samples...", batches.len(), base.sample_budget);
    let mut runner = CampaignRunner::new();
    if let Some(t) = flag_parse(args, "--threads")? {
        runner = runner.threads(t);
    }
    let report = runner.run(batch_sweep(&base, &batches));
    println!("{:<6} {:>12} {:>10} {:>8}", "batch", "duration", "best", "plates");
    for result in &report.results {
        let out = result.outcome.as_ref().map_err(|e| format!("{}: {e}", result.label()))?;
        println!(
            "{:<6} {:>12} {:>10.2} {:>8}",
            result.label(),
            out.duration.to_string(),
            out.best_score,
            out.plates_used
        );
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    // Resume mode: everything — the scenario matrix included — is
    // recovered from the event log, and the continuation appends to it.
    if let Some(log_path) = flag_value(args, "--resume") {
        if let Some(flag) =
            ["--config", "--workers", "--event-log"].into_iter().find(|f| flag_present(args, f))
        {
            return Err(format!(
                "--resume recovers the scenario matrix from the log and appends to it; drop {flag}"
            ));
        }
        let Executor::Runner(runner) = Executor::from_args(args, "campaign", None)? else {
            unreachable!("no worker pool without --workers")
        };
        eprintln!("resuming campaign from {log_path}...");
        let (report, stats) = runner.resume(log_path).map_err(|e| e.to_string())?;
        if let Some(torn) = &stats.recovery.torn {
            eprintln!("recovery: dropped a torn tail ({torn})");
        }
        eprintln!(
            "recovered {} events ({} bytes): {} scenario(s) replayed from the log, {} re-driven",
            stats.recovery.events, stats.recovery.valid_bytes, stats.replayed, stats.redriven
        );
        println!("# campaign (resumed from {log_path})");
        return finish_campaign(args, &report);
    }

    let path =
        flag_value(args, "--config").ok_or("campaign needs --config FILE (or --resume LOG)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let config = CampaignConfig::from_yaml(&text).map_err(|e| e.to_string())?;
    let scenarios = config.scenarios();
    if scenarios.is_empty() {
        return Err("campaign expands to zero scenarios".into());
    }
    let executor = Executor::from_args(args, &config.name, Some(&config))?;
    eprintln!("campaign '{}': {} scenarios {}...", config.name, scenarios.len(), executor.lanes());
    let report = executor.run(scenarios);
    println!("# campaign '{}'", config.name);
    finish_campaign(args, &report)
}

/// The executor `campaign` and `stress` run their scenario list on.
enum Executor {
    Runner(CampaignRunner),
    Scheduler(Box<CampaignScheduler>),
}

impl Executor {
    /// Build it from `--workers`, `--threads`, `--shard`, `--chaos`,
    /// `--failure-budget` and `--event-log`, with `config` filling in what
    /// the flags leave out. A worker pool selects the distributed
    /// scheduler, otherwise the thread-pool runner; a flag the chosen
    /// executor would ignore is refused.
    fn from_args(
        args: &[String],
        name: &str,
        config: Option<&CampaignConfig>,
    ) -> Result<Executor, String> {
        let workers: Vec<String> = match flag_value(args, "--workers") {
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|w| !w.is_empty())
                .map(str::to_string)
                .collect(),
            None => config.map(|c| c.workers.clone()).unwrap_or_default(),
        };
        let pool = !workers.is_empty();
        let ignored: &[&str] =
            if pool { &["--threads"] } else { &["--shard", "--chaos", "--failure-budget"] };
        if let Some(flag) = ignored.iter().find(|f| flag_present(args, f)) {
            return Err(if pool {
                format!("{flag} sizes the in-process thread pool; a worker pool does not use it")
            } else {
                format!(
                    "{flag} acts on the driver-worker wire; it needs a worker pool \
                     (--workers, or a campaign config's 'workers:')"
                )
            });
        }
        let threads = flag_parse(args, "--threads")?.or(config.and_then(|c| c.threads));
        let shard =
            flag_parse(args, "--shard")?.map(|s: usize| s.max(1)).or(config.and_then(|c| c.shard));
        let failure_budget = flag_parse(args, "--failure-budget")?;
        let chaos = match flag_value(args, "--chaos") {
            Some(spec) => Some(ChaosPolicy::parse(spec).map_err(|e| format!("bad --chaos: {e}"))?),
            None => None,
        };
        let log = match flag_value(args, "--event-log") {
            Some(p) => {
                let log = EventLog::create(p).map_err(|e| e.to_string())?;
                eprintln!("appending campaign events to {p}");
                Some(std::sync::Arc::new(log))
            }
            None => None,
        };
        if !pool {
            let mut runner = CampaignRunner::new().progress(true).name(name);
            if let Some(t) = threads {
                runner = runner.threads(t);
            }
            if let Some(log) = log {
                runner = runner.with_events(log);
            }
            return Ok(Executor::Runner(runner));
        }
        let mut scheduler = CampaignScheduler::new(workers).progress(true).name(name);
        if let Some(log) = log {
            scheduler = scheduler.with_events(log);
        }
        if let Some(s) = shard {
            scheduler = scheduler.shard_size(s);
        }
        if let Some(budget) = failure_budget {
            scheduler = scheduler.failure_budget(budget);
        }
        if let Some(policy) = chaos {
            scheduler = scheduler.chaos(policy);
        }
        Ok(Executor::Scheduler(Box::new(scheduler)))
    }

    /// Where the scenarios run, for the command's banner.
    fn lanes(&self) -> String {
        match self {
            Executor::Runner(r) => format!("on {} threads", r.worker_threads()),
            Executor::Scheduler(s) => format!("across {} workers", s.pool().len()),
        }
    }

    fn run(self, scenarios: Vec<ScenarioSpec>) -> CampaignReport {
        match self {
            Executor::Runner(runner) => runner.run(scenarios),
            Executor::Scheduler(scheduler) => {
                let (report, sched) = scheduler.run(scenarios);
                for line in sched.summary_lines() {
                    eprintln!("{line}");
                }
                report
            }
        }
    }
}

/// `sdl-lab stress` — expand the built-in stress suite (objectives ×
/// adversarial conditions × solvers × seeds) through the campaign engine
/// and fold the report into a per-solver leaderboard.
fn cmd_stress(args: &[String]) -> Result<(), String> {
    let base = build_config(args)?;
    let base_seed = base.seed;
    let mut suite = StressSuite::new(base);
    if let Some(list) = flag_value(args, "--solvers") {
        suite.solvers = list
            .split(',')
            .map(|s| {
                SolverKind::parse(s).ok_or_else(|| {
                    format!("unknown solver '{}' (valid: {})", s.trim(), SolverKind::valid_names())
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = flag_value(args, "--objectives") {
        suite.objectives = list
            .split(',')
            .map(|s| {
                Objective::parse(s.trim()).ok_or_else(|| {
                    format!(
                        "unknown objective '{}' (valid: {})",
                        s.trim(),
                        Objective::valid_names()
                    )
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = flag_value(args, "--kinds") {
        suite.kinds = list
            .split(',')
            .map(|s| {
                StressKind::parse(s).ok_or_else(|| {
                    format!(
                        "unknown stress kind '{}' (valid: {})",
                        s.trim(),
                        StressKind::valid_names()
                    )
                })
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = flag_value(args, "--seeds") {
        let k: u64 = v.parse().map_err(|_| format!("bad --seeds '{v}'"))?;
        if k == 0 {
            return Err("--seeds needs at least one replication".into());
        }
        suite.seeds = (0..k).map(|i| base_seed.wrapping_add(i)).collect();
    }
    if suite.is_empty() {
        return Err("stress suite expands to zero scenarios".into());
    }
    let scenarios = suite.scenarios();
    let executor = Executor::from_args(args, "stress", None)?;
    eprintln!(
        "stress suite: {} scenarios ({} objectives x {} kinds x {} solvers x {} seeds) {}...",
        scenarios.len(),
        suite.objectives.len(),
        suite.kinds.len(),
        suite.solvers.len(),
        suite.seeds.len(),
        executor.lanes()
    );
    let report = executor.run(scenarios);

    // The leaderboard goes into the portal before the export below, so
    // `--export-portal` files carry it alongside the scenario records.
    let board = Leaderboard::from_report(&report);
    board.publish(&report.portal);
    println!("# stress leaderboard");
    println!("{}", board.render_table());
    println!();
    finish_campaign(args, &report)
}

/// The shared tail of `campaign` and `campaign --resume`: summary table,
/// optional fingerprint and portal export, nonzero exit on failures.
fn finish_campaign(args: &[String], report: &CampaignReport) -> Result<(), String> {
    println!("{}", report.summary_table());
    let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
    if flag_present(args, "--fingerprint") {
        println!("fingerprint:\n{}", report.fingerprint());
    }
    if let Some(path) = flag_value(args, "--export-portal") {
        let n =
            report.portal.export_jsonl(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        println!("exported {n} portal records to {path}");
    }
    if failed > 0 {
        return Err(format!("{failed} scenario(s) failed"));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use sdl_lab::datapub::{AcdcPortal, BlobStore};
    use sdl_lab::portal_server::{spawn, LabHost, PortalServer, QuotaPolicy, ServerConfig};
    use std::sync::Arc;

    let import = flag_value(args, "--import");
    let campaign = flag_value(args, "--campaign");
    if import.is_some() && campaign.is_some() {
        return Err("serve takes at most one of --import FILE or --campaign FILE".into());
    }
    if import.is_none() && campaign.is_none() {
        eprintln!(
            "serving an empty portal (worker mode: drive it via 'sdl-lab run --backend remote:<addr>')"
        );
    }

    let portal = Arc::new(AcdcPortal::new());
    let mem_cap = match flag_value(args, "--blob-mem-cap") {
        Some(v) => Some(parse_bytes(v).map_err(|e| format!("bad --blob-mem-cap '{v}': {e}"))?),
        None => None,
    };
    let store: Arc<BlobStore> = match flag_value(args, "--blob-dir") {
        Some(dir) => {
            let mut store = BlobStore::open_spill_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
            if let Some(cap) = mem_cap {
                store = store.with_mem_cap(cap);
                eprintln!("blob memory cap: {cap} bytes (LRU eviction over the spill dir)");
            }
            Arc::new(store)
        }
        None => {
            if mem_cap.is_some() {
                eprintln!("--blob-mem-cap ignored without --blob-dir (no spill dir to evict into)");
            }
            Arc::new(BlobStore::in_memory())
        }
    };

    if let Some(path) = import {
        let n =
            portal.import_jsonl(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} records from {path}");
    }

    if flag_value(args, "--event-log").is_some() && campaign.is_none() {
        return Err("--event-log needs --campaign FILE (the log records campaign events)".into());
    }

    // In campaign mode the runner publishes into the same portal and blob
    // store the server reads, on a background thread: scenario records
    // appear at the endpoints while the campaign is still executing.
    let mut campaign_worker = None;
    let mut event_log = None;
    if let Some(path) = campaign {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let config = CampaignConfig::from_yaml(&text).map_err(|e| e.to_string())?;
        let scenarios = config.scenarios();
        if scenarios.is_empty() {
            return Err("campaign expands to zero scenarios".into());
        }
        // The live /events feed and dashboard always get a log; --event-log
        // additionally makes it durable (and the campaign crash-resumable).
        let log = match flag_value(args, "--event-log") {
            Some(p) => {
                eprintln!("appending campaign events to {p}");
                Arc::new(EventLog::create(p).map_err(|e| e.to_string())?)
            }
            None => Arc::new(EventLog::in_memory()),
        };
        event_log = Some(Arc::clone(&log));
        let mut runner = CampaignRunner::new()
            .with_portal(Arc::clone(&portal))
            .with_store(Arc::clone(&store))
            .with_events(log)
            .name(&config.name)
            .publish_records(true)
            .progress(true);
        match flag_value(args, "--campaign-threads") {
            Some(v) => {
                let t: usize = v.parse().map_err(|_| format!("bad --campaign-threads '{v}'"))?;
                runner = runner.threads(t);
            }
            None => {
                if let Some(t) = config.threads {
                    runner = runner.threads(t);
                }
            }
        }
        eprintln!(
            "campaign '{}': {} scenarios on {} threads (streaming into the live portal)...",
            config.name,
            scenarios.len(),
            runner.worker_threads()
        );
        campaign_worker = Some(std::thread::spawn(move || {
            let report = runner.run(scenarios);
            let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
            eprintln!(
                "campaign finished: {} scenarios, {failed} failed; portal holds {} records",
                report.len(),
                report.portal.len()
            );
        }));
    }

    let mut config = ServerConfig { addr: "127.0.0.1:8323".into(), ..ServerConfig::default() };
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(v) = flag_value(args, "--threads") {
        config.threads = v.parse().map_err(|_| format!("bad --threads '{v}'"))?;
    }
    if let Some(v) = flag_value(args, "--max-conns") {
        config.max_conns = v.parse().map_err(|_| format!("bad --max-conns '{v}'"))?;
    }

    // Every served portal also hosts the batch-execution API, so any
    // `sdl-lab serve` process doubles as a lab worker for remote sessions.
    let mut lab = LabHost::new();
    if let Some(spec) = flag_value(args, "--chaos") {
        let policy = ChaosPolicy::parse(spec).map_err(|e| format!("bad --chaos: {e}"))?;
        if !policy.is_noop() {
            eprintln!("worker chaos armed: {spec}");
        }
        lab = lab.with_chaos(policy);
    }
    if let Some(spec) = flag_value(args, "--quota") {
        let quota = QuotaPolicy::parse(spec).map_err(|e| format!("bad --quota: {e}"))?;
        eprintln!("per-tenant quota armed: {spec} (over budget answers 429 + Retry-After)");
        lab = lab.with_quota(quota);
    }
    if let Some(v) = flag_value(args, "--max-inflight") {
        let n: u64 = v.parse().map_err(|_| format!("bad --max-inflight '{v}'"))?;
        lab = lab.with_max_inflight(n);
    }
    let mut server = PortalServer::new(portal, store).with_lab(Arc::new(lab));
    if let Some(log) = event_log {
        server = server.with_events(log);
    }
    let handle = spawn(server, &config).map_err(|e| format!("bind: {e}"))?;
    // The bound address goes to stdout (and is flushed) so scripts and the
    // CI smoke test can pick up an ephemeral port.
    println!("serving on {}", handle.url());
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    eprintln!(
        "endpoints: /records /events /summary /runs/<run> /blobs/<ref> /healthz /metrics \
         (SIGTERM drains gracefully, Ctrl-C stops immediately)"
    );
    #[cfg(unix)]
    {
        // SIGTERM triggers a graceful drain instead of killing the process:
        // refuse new sessions, finish in-flight /v1 batches, flush the
        // event log, then exit 0 so orchestrators see a clean stop.
        term_signal::install();
        while !term_signal::received() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        eprintln!("SIGTERM: draining (refusing new sessions, finishing in-flight batches)");
        let server = Arc::clone(handle.server());
        server.begin_drain();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        if let Some(lab) = server.lab() {
            while lab.metrics().inflight() > 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        if let Some(log) = server.events() {
            log.sync();
        }
        handle.shutdown();
        // A campaign still running its scenario matrix is not waited for:
        // its progress is already durable in the (just-synced) event log
        // and can be finished with `campaign --resume`.
        drop(campaign_worker);
        eprintln!("drained: in-flight batches finished, event log flushed");
        Ok(())
    }
    #[cfg(not(unix))]
    {
        handle.join();
        if let Some(worker) = campaign_worker {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// SIGTERM → drain flag for `serve`. `std` has no signal API and the
/// build is dependency-free, so this declares `signal(2)` directly; the
/// handler only stores into an atomic (async-signal-safe).
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// `sdl-lab watch URL` — a live terminal dashboard over `GET /events`.
///
/// Long-polls the server's event log, folds every event into a
/// [`ProgressModel`], and redraws the rendered dashboard in place (ANSI
/// clear + home). Exits when the campaign closes, or with an error when
/// the server stays unreachable through a capped-exponential reconnect
/// backoff; `--once` renders the current state a single time (no ANSI)
/// and exits — that form is what scripts and the CI smoke test use.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    use sdl_lab::portal_server::client::HttpClient;
    use std::time::{Duration, Instant};

    let url = match args.first().map(String::as_str) {
        Some(u) if !u.starts_with("--") => u,
        _ => return Err("watch needs a server URL (e.g. http://127.0.0.1:8323)".into()),
    };
    let addr = url.strip_prefix("http://").unwrap_or(url).trim_end_matches('/').to_string();
    let once = flag_present(args, "--once");
    let interval: u64 = match flag_value(args, "--interval-ms") {
        Some(v) => v.parse().map_err(|_| format!("bad --interval-ms '{v}'"))?,
        None => 500,
    };
    let width = std::env::var("COLUMNS").ok().and_then(|c| c.parse().ok()).unwrap_or(100);

    let mut model = ProgressModel::new();
    let mut from: u64 = 1;
    let mut client: Option<HttpClient> = None;
    // Consecutive connect/poll failures. Reconnection backs off
    // exponentially (capped) and gives up once the server looks dead,
    // rather than spinning the terminal in a tight reconnect loop.
    let mut failures: u32 = 0;
    const MAX_FAILURES: u32 = 6;
    let backoff = |failures: u32| {
        Duration::from_millis((interval.clamp(100, 5_000) << (failures - 1).min(12)).min(5_000))
    };
    // Samples/s over a sliding window of recent observations.
    let mut window: std::collections::VecDeque<(Instant, u64)> = std::collections::VecDeque::new();

    loop {
        if client.is_none() {
            match HttpClient::connect(&addr) {
                Ok(c) => client = Some(c),
                Err(e) if once => return Err(format!("{addr}: {e}")),
                Err(e) => {
                    failures += 1;
                    if failures >= MAX_FAILURES {
                        return Err(format!(
                            "{addr}: unreachable after {failures} attempts (last: {e})"
                        ));
                    }
                    std::thread::sleep(backoff(failures));
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");
        let timeout = if once { 0 } else { interval.clamp(100, 20_000) };
        let path = format!("/events?from={from}&limit=5000&timeout_ms={timeout}");
        let resp = match conn.get(&path) {
            Ok(r) => r,
            Err(e) if once => return Err(format!("{addr}: {e}")),
            Err(e) => {
                // Server restarting or keep-alive reaped: reconnect. The
                // cursor survives, so nothing is lost or double-counted.
                client = None;
                failures += 1;
                if failures >= MAX_FAILURES {
                    return Err(format!(
                        "{addr}: lost the server after {failures} attempts (last: {e})"
                    ));
                }
                std::thread::sleep(backoff(failures));
                continue;
            }
        };
        failures = 0;
        if resp.status == 404 {
            return Err(format!(
                "{url} has no campaign event log (start the server with \
                 'sdl-lab serve --campaign FILE')"
            ));
        }
        if resp.status != 200 {
            return Err(format!("{url}{path}: HTTP {}", resp.status));
        }
        for line in resp.text().lines() {
            match EventRecord::from_line(line) {
                Ok(rec) => model.apply(rec.seq, &rec.event),
                Err(e) => return Err(format!("corrupt event line: {e}")),
            }
        }
        from = match resp.header("x-next-seq").and_then(|v| v.parse().ok()) {
            Some(next) => next,
            None => model.seq + 1,
        };
        let closed = resp.header("x-log-closed") == Some("true");
        let drained = resp
            .header("x-event-head")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|h| from > h);

        let now = Instant::now();
        window.push_back((now, model.samples));
        while window.len() > 2
            && now.duration_since(window.front().unwrap().0) > Duration::from_secs(10)
        {
            window.pop_front();
        }
        let rate = window.front().and_then(|(t0, s0)| {
            let dt = now.duration_since(*t0).as_secs_f64();
            (dt > 0.0).then(|| (model.samples.saturating_sub(*s0)) as f64 / dt)
        });

        if once {
            print!("{}", model.render(width, rate));
            return Ok(());
        }
        // Clear screen, home the cursor, redraw.
        print!("\x1b[2J\x1b[H{}", model.render(width, rate));
        {
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if closed && drained {
            println!("campaign closed — {} scenarios done, {} failed", model.done, model.failed);
            return Ok(());
        }
    }
}

fn cmd_portal(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--import").ok_or("portal needs --import FILE")?;
    let portal = AcdcPortal::new();
    let n = portal.import_jsonl(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    eprintln!("loaded {n} records");
    let experiment = match flag_value(args, "--experiment") {
        Some(id) => id.to_string(),
        None => portal
            .find("kind", "experiment")
            .first()
            .and_then(|v| {
                use sdl_lab::conf::ValueExt;
                v.opt_str("experiment_id").map(str::to_string)
            })
            .ok_or("no experiment records in file")?,
    };
    println!("{}", portal.summary_view(&experiment));
    if let Some(run) = flag_value(args, "--run") {
        let run: u32 = run.parse().map_err(|_| format!("bad --run '{run}'"))?;
        println!("{}", portal.run_detail(&experiment, run));
    }
    Ok(())
}
