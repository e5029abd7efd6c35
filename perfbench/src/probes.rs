//! Probe calls into single layers, made outside the timed loop: the
//! vision pipeline on one plate frame, the wire codecs on real batch
//! results, and durable event-log appends.

use crate::metrics::Values;
use crate::stats::{median, us};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdl_color::{LinRgb, Rgb8};
use sdl_conf::{from_json, to_json};
use sdl_core::{wire, BatchResult, CampaignEvent, EventLog};
use sdl_vision::{
    render_into, CameraGeometry, Detector, DetectorScratch, Fidelity, ImageRgb8, PlateScene,
};
use std::path::Path;
use std::time::Instant;

const VISION_REPS: usize = 15;
const APPENDS: usize = 2048;

/// Median `render_into`, `Detector::detect_with` and `ImageRgb8::to_bmp`
/// latencies on one 96-well frame at `fidelity`, as
/// `vision.{render,detect,bmp}.p50_us`. Half the wells hold liquid: a
/// 128-sample campaign's frames average that fill as its plates fill up.
pub fn vision(fidelity: Fidelity, seed: u64, out: &mut Values) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scene = PlateScene::empty_plate();
    scene.camera = CameraGeometry::for_fidelity(fidelity);
    for i in 0..48 {
        let c = LinRgb::new(
            rng.gen_range(0.05..0.9),
            rng.gen_range(0.05..0.9),
            rng.gen_range(0.05..0.9),
        );
        scene.set_well(i / 12, i % 12, c);
    }
    let detector = Detector::default();
    let mut scratch = DetectorScratch::default();
    let mut frame = ImageRgb8::new(scene.camera.width_px, scene.camera.height_px, Rgb8::default());
    let (mut render, mut detect, mut bmp) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..VISION_REPS {
        let t0 = Instant::now();
        render_into(&scene, &mut rng, &mut frame);
        let t1 = Instant::now();
        let reading = detector.detect_with(&frame, &mut scratch);
        let t2 = Instant::now();
        let encoded = frame.to_bmp();
        let t3 = Instant::now();
        reading.map_err(|e| format!("vision probe: detection failed: {e}"))?;
        std::hint::black_box(encoded);
        render.push(us(t0, t1));
        detect.push(us(t1, t2));
        bmp.push(us(t2, t3));
    }
    out.set("vision.render.p50_us", median(&render));
    out.set("vision.detect.p50_us", median(&detect));
    out.set("vision.bmp.p50_us", median(&bmp));
    Ok(())
}

/// Run the `/v1/batch` response codec on each result: encode to JSON,
/// decode back, check the round trip, and report
/// `wire.{encode,decode}.p50_us` and the frame sizes.
pub fn wire_codecs(results: &[BatchResult], out: &mut Values) -> Result<(), String> {
    let (mut enc, mut dec, mut bytes, mut image_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in results {
        let t0 = Instant::now();
        let json = to_json(&wire::result_to_value(r));
        let t1 = Instant::now();
        let back = from_json(&json)
            .map_err(|e| e.to_string())
            .and_then(|v| wire::result_from_value(&v).map_err(|e| e.to_string()))
            .map_err(|e| format!("wire probe: decode failed: {e}"))?;
        let t2 = Instant::now();
        if back.measurements != r.measurements || back.image != r.image || back.elapsed != r.elapsed
        {
            return Err("wire probe: batch result did not survive the round trip".into());
        }
        enc.push(us(t0, t1));
        dec.push(us(t1, t2));
        bytes.push(json.len() as f64);
        image_bytes.push(r.image.as_ref().map_or(0.0, |i| 2.0 * i.len() as f64));
    }
    out.set("wire.encode.p50_us", median(&enc));
    out.set("wire.decode.p50_us", median(&dec));
    out.set("wire.bytes_per_batch", median(&bytes));
    out.set("wire.image_bytes_per_batch", median(&image_bytes));
    Ok(())
}

/// Mean latency of a durable `EventLog::append` of the hot-loop event,
/// fsync batches included, as `events.append.mean_us`.
pub fn event_append(dir: &Path, out: &mut Values) -> Result<(), String> {
    let path = dir.join("append-probe.jsonl");
    let log = EventLog::create(&path).map_err(|e| e.to_string())?;
    let event = CampaignEvent::SamplePublished {
        index: 0,
        attempt: 0,
        run: 7,
        sample: 28,
        well: "C4".to_string(),
        ratios: vec![0.18, 0.16, 0.16, 0.62],
        measured: [120, 121, 119],
        score: 17.25,
        best: 12.5,
        elapsed_us: 123_456,
        batch_wall_us: 15_000,
    };
    let t = Instant::now();
    for _ in 0..APPENDS {
        log.append(&event);
    }
    out.set("events.append.mean_us", t.elapsed().as_secs_f64() * 1e6 / APPENDS as f64);
    drop(log);
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}
