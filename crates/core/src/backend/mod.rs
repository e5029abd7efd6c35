//! The lab-execution seam: everything that mixes, images and detects sits
//! behind [`LabBackend`], so an [`crate::Experiment`] session can run
//! against interchangeable executors — the in-process simulated workcell
//! ([`SimBackend`]), a worker process over HTTP ([`RemoteBackend`]), or a
//! recorded run re-driven offline ([`ReplayBackend`]).
//!
//! The contract is deliberately narrow: a backend stages plates, executes
//! one proposed batch at a time ([`LabBackend::submit_batch`]), and answers
//! capability/metadata queries. Everything decision- and data-side — the
//! solver, scoring, trajectory, portal publication — stays in the session.

mod remote;
mod replay;
mod retry;
mod sim;
pub mod wire;

pub use remote::{RemoteBackend, RemoteStats};
pub use replay::ReplayBackend;
pub use retry::RetryPolicy;
pub use sim::SimBackend;

use crate::app::AppError;
use crate::config::{AppConfig, ConfigError};
use crate::metrics::SdlMetrics;
use bytes::Bytes;
use sdl_color::Rgb8;
use sdl_conf::Value;
use sdl_desim::{SimDuration, SimTime};
use sdl_instruments::WellIndex;
use sdl_vision::{Detector, DetectorParams, DetectorScratch, ImageRgb8};
use sdl_wei::Counters;
use std::fmt;

/// Static capabilities a backend reports when it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Wells per plate; the session never asks for a larger batch.
    pub plate_capacity: u32,
    /// Dye channels each proposal must carry.
    pub dye_channels: u32,
    /// Whether [`BatchResult::image`] carries real plate frames.
    pub provides_images: bool,
    /// Whether [`BackendClose`] telemetry (metrics, counters) is real
    /// instrument accounting rather than zeroed placeholders.
    pub real_telemetry: bool,
}

/// One planned iteration: the session's proposals for the next plate batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// 1-based run (iteration) number within the experiment.
    pub run: u32,
    /// Proposed points, one per well, each `dye_channels` ratios in the
    /// unit box.
    pub ratios: Vec<Vec<f64>>,
}

impl Batch {
    /// Number of proposals in the batch.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// True when the batch carries no proposals.
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }
}

/// One well's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WellMeasurement {
    /// The well the proposal was mixed in.
    pub well: WellIndex,
    /// The color the camera read back.
    pub color: Rgb8,
}

/// What executing one [`Batch`] produced.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-proposal measurements, in proposal order.
    pub measurements: Vec<WellMeasurement>,
    /// Experiment time when the batch finished measuring.
    pub elapsed: SimTime,
    /// Wall-clock duration of this batch on the lab's clock — plate
    /// logistics, robot work, imaging and the compute hold attributable to
    /// the iteration. Recorded onto every published sample
    /// (`batch_wall_s`) so replayed runs can reconstruct real per-batch
    /// durations offline.
    pub batch_wall: SimDuration,
    /// The iteration's workflow timing log (§2.3: "the timing of each
    /// step"), when the backend records one.
    pub timing: Option<Value>,
    /// BMP-encoded plate frame, when the backend captures images.
    pub image: Option<Bytes>,
}

/// Final accounting a backend hands back when the session closes it.
#[derive(Debug, Clone)]
pub struct BackendClose {
    /// Wall duration on the lab's clock.
    pub duration: SimDuration,
    /// Table-1 metrics computed from the lab's command history.
    pub metrics: SdlMetrics,
    /// Raw command counters.
    pub counters: Counters,
    /// Plates consumed.
    pub plates_used: u32,
}

/// An executor of proposed batches: the robotic half of the paper's closed
/// loop (mix → image → detect), behind one narrow interface.
///
/// Lifecycle: [`open`](LabBackend::open) once (stages the first plate and
/// reports capabilities), any number of
/// [`submit_batch`](LabBackend::submit_batch) calls, then
/// [`close`](LabBackend::close) (final plate disposal + telemetry).
pub trait LabBackend: Send {
    /// Short backend identifier ("sim", "remote", "replay").
    fn kind(&self) -> &'static str;

    /// Start the lab: stage the first plate, return capabilities.
    fn open(&mut self) -> Result<BackendCaps, AppError>;

    /// Capabilities, once known ([`RemoteBackend`] learns them at open).
    fn capabilities(&self) -> Option<BackendCaps>;

    /// Execute one batch: mix the proposals, image the plate, detect and
    /// return per-well measurements.
    fn submit_batch(&mut self, batch: &Batch) -> Result<BatchResult, AppError>;

    /// Finish: dispose of any staged plate and report final telemetry.
    /// `samples_measured` is the session's count, used for per-color
    /// metrics.
    fn close(&mut self, samples_measured: u32) -> Result<BackendClose, AppError>;

    /// Metadata describing this backend (kind + capabilities), for
    /// diagnostics and portal records.
    fn metadata(&self) -> Value {
        let mut v = Value::map();
        v.set("backend", self.kind());
        if let Some(caps) = self.capabilities() {
            v.set("plate_capacity", caps.plate_capacity as i64);
            v.set("dye_channels", caps.dye_channels as i64);
            v.set("provides_images", caps.provides_images);
            v.set("real_telemetry", caps.real_telemetry);
        }
        v
    }

    /// Exchange detector scratch buffers with the caller so campaign
    /// workers can reuse one arena across scenarios. Backends without a
    /// detection pipeline ignore it.
    fn swap_scratch(&mut self, _scratch: &mut DetectorScratch) {}
}

/// The one image → measurement path of every simulated lab: the §2.4
/// detector as the scenario configures it, over a reusable scratch arena.
pub(crate) struct PlateReader {
    detector: Detector,
    pub(crate) scratch: DetectorScratch,
}

impl PlateReader {
    pub(crate) fn new(config: &AppConfig) -> PlateReader {
        let params = DetectorParams { flat_field: config.flat_field, ..DetectorParams::default() };
        PlateReader { detector: Detector::new(params), scratch: DetectorScratch::default() }
    }

    /// Detect the plate in `image` and read back `wells`, in order. A well
    /// the detector did not find is an error, never a default color.
    pub(crate) fn read(
        &mut self,
        image: &ImageRgb8,
        wells: &[WellIndex],
    ) -> Result<Vec<WellMeasurement>, AppError> {
        let reading = self.detector.detect_with(image, &mut self.scratch)?;
        wells
            .iter()
            .map(|&well| {
                let color = reading
                    .well(well.row, well.col)
                    .map(|w| w.color)
                    .ok_or_else(|| AppError::Setup(format!("no reading for well {well}")))?;
                Ok(WellMeasurement { well, color })
            })
            .collect()
    }
}

/// Which executor a scenario runs on — the campaign engine's `backend:`
/// configuration axis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// The in-process simulated workcell (the default).
    #[default]
    Sim,
    /// A worker process speaking `POST /v1/batch` at this address
    /// (`host:port` or `http://host:port`).
    Remote(String),
    /// Recorded `SampleRecord`s re-driven from this JSON-lines export.
    Replay(String),
}

impl BackendSpec {
    /// Parse the CLI/config form: `sim`, `remote:<url>` or `replay:<path>`.
    pub fn parse(s: &str) -> Result<BackendSpec, ConfigError> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("sim") {
            return Ok(BackendSpec::Sim);
        }
        if let Some(url) = s.strip_prefix("remote:") {
            if url.is_empty() {
                return Err(ConfigError("remote backend needs an address: remote:<url>".into()));
            }
            return Ok(BackendSpec::Remote(url.to_string()));
        }
        if let Some(path) = s.strip_prefix("replay:") {
            if path.is_empty() {
                return Err(ConfigError("replay backend needs a file: replay:<path>".into()));
            }
            return Ok(BackendSpec::Replay(path.to_string()));
        }
        Err(ConfigError(format!("unknown backend '{s}' (valid: sim, remote:<url>, replay:<path>)")))
    }

    /// Instantiate the backend for one scenario.
    pub fn build(&self, config: &AppConfig) -> Result<Box<dyn LabBackend>, AppError> {
        match self {
            BackendSpec::Sim => Ok(Box::new(SimBackend::new(config)?)),
            BackendSpec::Remote(url) => Ok(Box::new(RemoteBackend::new(url, config.clone()))),
            BackendSpec::Replay(path) => {
                Ok(Box::new(ReplayBackend::from_jsonl(path, Some(&config.experiment_id()))?))
            }
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Sim => write!(f, "sim"),
            BackendSpec::Remote(url) => write!(f, "remote:{url}"),
            BackendSpec::Replay(path) => write!(f, "replay:{path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_roundtrips() {
        assert_eq!(BackendSpec::parse("sim").unwrap(), BackendSpec::Sim);
        assert_eq!(BackendSpec::parse(" SIM ").unwrap(), BackendSpec::Sim);
        assert_eq!(
            BackendSpec::parse("remote:127.0.0.1:8323").unwrap(),
            BackendSpec::Remote("127.0.0.1:8323".into())
        );
        assert_eq!(
            BackendSpec::parse("replay:out/portal.jsonl").unwrap(),
            BackendSpec::Replay("out/portal.jsonl".into())
        );
        for s in ["sim", "remote:127.0.0.1:9", "replay:a.jsonl"] {
            assert_eq!(BackendSpec::parse(s).unwrap().to_string(), s);
        }
        assert!(BackendSpec::parse("quantum").is_err());
        assert!(BackendSpec::parse("remote:").is_err());
        assert!(BackendSpec::parse("replay:").is_err());
    }
}
