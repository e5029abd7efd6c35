//! End-to-end test of `sdl-lab serve`: run an experiment, export its
//! portal + blobs, serve them from the real binary, and query over HTTP.

use sdl_lab::conf::ValueExt;
use sdl_lab::portal_server::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdl-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serve_answers_http_over_a_saved_export() {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = workdir();
    let export = dir.join("portal.jsonl");
    let blobs = dir.join("blobs");

    // 1. Produce a portal export (with spilled plate images) the normal way.
    let run = Command::new(bin)
        .args([
            "run",
            "--samples",
            "4",
            "--batch",
            "2",
            "--export-portal",
            export.to_str().unwrap(),
            "--blob-dir",
            blobs.to_str().unwrap(),
        ])
        .output()
        .expect("run sdl-lab run");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(export.exists());

    // 2. Serve it on an ephemeral port; the bound address is printed first.
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--import",
            export.to_str().unwrap(),
            "--blob-dir",
            blobs.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdl-lab serve");
    let stdout = child.stdout.take().unwrap();
    let guard = ServeGuard(child);
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).unwrap();
    let addr: SocketAddr = first_line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
        .parse()
        .unwrap();

    // 3. Drive the live server.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = sdl_lab::conf::from_json(&health.text()).unwrap();
    assert_eq!(v.opt_str("status"), Some("ok"));
    assert!(v.opt_i64("records").unwrap() >= 5, "experiment + 4 samples expected");
    assert!(v.opt_i64("blobs").unwrap() >= 1, "spilled plate images must be served");

    let samples = client::get(addr, "/records?kind=sample").unwrap();
    let lines: Vec<String> = samples.text().lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4);
    // A sample's image_ref resolves through /blobs/ after the spill
    // round-trip (run wrote the dir, serve reloaded it).
    let image_ref = sdl_lab::conf::from_json(&lines[0])
        .unwrap()
        .opt_str("image_ref")
        .expect("sample has image_ref")
        .to_string();
    let img = client::get(addr, &format!("/blobs/{image_ref}")).unwrap();
    assert_eq!(img.status, 200, "blob {image_ref} not served");
    assert!(!img.body.is_empty());

    let summary = client::get(addr, "/summary").unwrap();
    assert_eq!(summary.status, 200);
    assert!(summary.text().contains("ACDC portal"));

    let metrics = client::get(addr, "/metrics").unwrap();
    assert!(metrics.text().contains("sdl_portal_requests_total"));

    drop(guard);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_flags_the_executor_would_ignore_are_refused() {
    let bin = env!("CARGO_BIN_EXE_sdl-lab");
    let dir = std::env::temp_dir().join(format!("sdl-flag-refusal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("c.yaml");
    std::fs::write(&config, "samples: 4\nbatch: 2\nsolvers: [random]\n").unwrap();
    let c = config.to_str().unwrap();
    // (arguments, the flag the error must name)
    let cases: &[(&[&str], &str)] = &[
        (&["campaign", "--config", c, "--shard", "3"], "--shard"),
        (&["campaign", "--config", c, "--chaos", "seed=7,connect=0.1"], "--chaos"),
        (&["campaign", "--config", c, "--failure-budget", "2"], "--failure-budget"),
        (&["campaign", "--config", c, "--workers", "127.0.0.1:9", "--threads", "2"], "--threads"),
        (&["campaign", "--resume", "missing.events", "--event-log", "x.events"], "--event-log"),
        (&["stress", "--samples", "2", "--shard", "2"], "--shard"),
        (&["stress", "--samples", "2", "--workers", "127.0.0.1:9", "--threads", "2"], "--threads"),
    ];
    for (args, flag) in cases {
        let out = Command::new(bin).args(*args).output().expect("run sdl-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(stderr.contains(flag), "{args:?}: stderr does not name {flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
