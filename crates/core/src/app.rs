//! The color-picker application: the closed loop of paper Figure 2.
//!
//! One `run()` reproduces `color_picker_app.py`: fetch a plate
//! (`cp_wf_newplate`), repeatedly propose → mix → image → grade
//! (`cp_wf_mixcolor` + compute + publish + solver), swap full plates
//! (`cp_wf_trashplate`), top up reservoirs (`cp_wf_replenish`), and stop on
//! the termination criteria — all against the simulated workcell on a
//! virtual clock.
//!
//! Since the ask/tell redesign, [`ColorPickerApp`] is a thin compatibility
//! wrapper: the decision/data half lives in [`Experiment`](crate::Experiment)
//! and the robotic half in [`SimBackend`](crate::SimBackend); `run()` just
//! drives one on the other.

use crate::backend::SimBackend;
use crate::config::AppConfig;
use crate::experiment::Experiment;
use crate::metrics::SdlMetrics;
use crate::protocol::ProtocolError;
use crate::termination::TerminationReason;
use sdl_datapub::{AcdcPortal, BlobStore, FlowStats, SampleRecord};
use sdl_desim::SimDuration;
use sdl_solvers::{ColorSolver, Observation};
use sdl_vision::{DetectorScratch, VisionError};
use sdl_wei::{Counters, Engine, WeiError};
use std::fmt;
use std::sync::Arc;

/// Canonical workflow documents (Figure 2).
pub const WF_NEWPLATE: &str = include_str!("../assets/cp_wf_newplate.yaml");
/// `cp_wf_mixcolor`.
pub const WF_MIXCOLOR: &str = include_str!("../assets/cp_wf_mixcolor.yaml");
/// `cp_wf_trashplate`.
pub const WF_TRASHPLATE: &str = include_str!("../assets/cp_wf_trashplate.yaml");
/// `cp_wf_replenish`.
pub const WF_REPLENISH: &str = include_str!("../assets/cp_wf_replenish.yaml");

/// Application-level errors.
#[derive(Debug)]
pub enum AppError {
    /// Workflow/engine failure.
    Wei(WeiError),
    /// Image-processing failure.
    Vision(VisionError),
    /// Protocol construction failure.
    Protocol(ProtocolError),
    /// Configuration problem discovered at startup.
    Setup(String),
    /// Failure talking to a remote lab backend.
    Backend(String),
    /// Transport-level failure reaching a remote worker (unreachable,
    /// connection lost, timed out): the work itself never completed, so a
    /// scheduler may safely retry it on another worker.
    Transport(String),
    /// The worker shed the request with `429`/`503` + `Retry-After`: it is
    /// alive but over capacity. Distinct from [`AppError::Transport`] so a
    /// scheduler throttles and retries the *same* worker instead of
    /// evicting a merely-busy one. Carries the server's `Retry-After`
    /// hint when one was sent.
    Backpressure {
        /// What the worker said when it shed the request.
        message: String,
        /// The server-provided `Retry-After`, if any.
        retry_after: Option<std::time::Duration>,
    },
    /// An error restored verbatim from a campaign event log during resume.
    /// The original variant is gone — only its rendered message survives in
    /// the log — so this displays the stored text unchanged, keeping
    /// resumed fingerprints bit-identical to the interrupted run's.
    Restored(String),
}

impl AppError {
    /// True for transport-level remote failures — the class of error the
    /// campaign scheduler treats as *worker death* (retry elsewhere) rather
    /// than scenario failure.
    pub fn is_transport(&self) -> bool {
        matches!(self, AppError::Transport(_))
    }

    /// True for worker load-shedding (429/503): the scheduler should
    /// throttle and retry the same worker, never evict it.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, AppError::Backpressure { .. })
    }

    /// The server's `Retry-After` hint, when this is a backpressure error
    /// that carried one.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            AppError::Backpressure { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Wei(e) => write!(f, "{e}"),
            AppError::Vision(e) => write!(f, "{e}"),
            AppError::Protocol(e) => write!(f, "{e}"),
            AppError::Setup(m) => write!(f, "setup error: {m}"),
            AppError::Backend(m) => write!(f, "backend error: {m}"),
            AppError::Transport(m) => write!(f, "worker unreachable: {m}"),
            AppError::Backpressure { message, .. } => write!(f, "worker busy: {message}"),
            AppError::Restored(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<WeiError> for AppError {
    fn from(e: WeiError) -> Self {
        AppError::Wei(e)
    }
}
impl From<VisionError> for AppError {
    fn from(e: VisionError) -> Self {
        AppError::Vision(e)
    }
}
impl From<ProtocolError> for AppError {
    fn from(e: ProtocolError) -> Self {
        AppError::Protocol(e)
    }
}

/// One point of the Figure-4 trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Global sample number (1-based).
    pub sample: u32,
    /// Elapsed experiment time at measurement, minutes.
    pub elapsed_min: f64,
    /// This sample's score.
    pub score: f64,
    /// Best score so far.
    pub best: f64,
}

/// Everything a finished experiment reports.
pub struct ExperimentOutcome {
    /// Experiment identifier.
    pub experiment_id: String,
    /// Why the run stopped.
    pub termination: TerminationReason,
    /// Best score achieved.
    pub best_score: f64,
    /// Ratios of the best sample.
    pub best_ratios: Vec<f64>,
    /// Samples actually measured.
    pub samples_measured: u32,
    /// Wall duration on the virtual clock.
    pub duration: SimDuration,
    /// Best-so-far trajectory (Figure 4).
    pub trajectory: Vec<TrajectoryPoint>,
    /// Table-1 metrics.
    pub metrics: SdlMetrics,
    /// Raw command counters.
    pub counters: Counters,
    /// Plates consumed.
    pub plates_used: u32,
    /// Times the solver's surrogate fit degenerated and it silently fell
    /// back to random proposals (0 for solvers without a surrogate).
    pub solver_fallbacks: u64,
    /// Samples each liquid handler measured, in handler order (multi-OT2
    /// runs; empty for a single-loop run).
    pub per_handler_samples: Vec<u32>,
    /// The data portal holding every published record.
    pub portal: Arc<AcdcPortal>,
    /// The image blob store.
    pub store: Arc<BlobStore>,
    /// Publication pipeline statistics.
    pub flow_stats: FlowStats,
}

impl fmt::Debug for ExperimentOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentOutcome")
            .field("experiment_id", &self.experiment_id)
            .field("termination", &self.termination)
            .field("best_score", &self.best_score)
            .field("samples_measured", &self.samples_measured)
            .field("duration", &self.duration.to_string())
            .finish_non_exhaustive()
    }
}

/// The application: an [`Experiment`] session permanently bound to a
/// [`SimBackend`].
pub struct ColorPickerApp {
    /// The configuration this app was built from (a snapshot: the session
    /// and backend hold their own copies, so mutating this field after
    /// [`ColorPickerApp::new`] does not affect the run).
    pub config: AppConfig,
    session: Experiment,
    backend: SimBackend,
}

impl ColorPickerApp {
    /// Build the application: instantiate the simulated workcell and start
    /// the experiment session on it.
    pub fn new(config: AppConfig) -> Result<ColorPickerApp, AppError> {
        let backend = SimBackend::new(&config)?;
        let session = Experiment::new(config.clone())?;
        Ok(ColorPickerApp { config, session, backend })
    }

    /// The measurement history accumulated so far.
    pub fn history(&self) -> &[Observation] {
        self.session.history()
    }

    /// Resume an interrupted experiment from previously published records
    /// (see [`Experiment::restore_from_records`]).
    pub fn restore_from_records(&mut self, records: &[SampleRecord]) {
        self.session.restore_from_records(records);
    }

    /// The engine (for inspection in tests and benches).
    pub fn engine(&self) -> &Engine {
        self.backend.engine()
    }

    /// The underlying experiment session.
    pub fn session(&self) -> &Experiment {
        &self.session
    }

    /// Swap in a custom decision procedure before [`ColorPickerApp::run`]
    /// (the solver RNG stream is unchanged). Used by the equivalence tests
    /// and the `hotpath` bench to pin a solver variant.
    pub fn replace_solver(&mut self, solver: Box<dyn ColorSolver>) {
        self.session.replace_solver(solver);
    }

    /// Execute the full experiment.
    pub fn run(&mut self) -> Result<ExperimentOutcome, AppError> {
        self.session.run_on(&mut self.backend)
    }

    /// Execute the full experiment over caller-owned detector scratch
    /// buffers, so campaign workers reuse one arena across scenarios
    /// instead of reallocating the vision working set per run.
    pub fn run_with(
        &mut self,
        scratch: &mut DetectorScratch,
    ) -> Result<ExperimentOutcome, AppError> {
        use crate::backend::LabBackend as _;
        self.backend.swap_scratch(scratch);
        let result = self.session.run_on(&mut self.backend);
        self.backend.swap_scratch(scratch);
        result
    }
}
