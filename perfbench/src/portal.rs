//! `portal_reads`: two keep-alive clients in a closed loop against a
//! portal server with no lab attached, each waiting for every reply
//! before sending the next request — the way `watch`, scheduler probes
//! and dashboards read. The server is seeded from the workload seed with
//! one experiment's sample records and a plate image per run.
//!
//! The portal's shape and the request mix are those of the repository's
//! portal load generator, `crates/bench/src/bin/portal_load.rs` (5000
//! sample records, 15 per run, 16 KiB plate images; a 100-row `/records`
//! page, a 50-row `/records` run filter, `/summary`, `/runs/<run>`,
//! `/blobs/<ref>` and `/healthz`), plus the `/metrics` scrape. One client
//! "refresh" sends those 7 requests once, the run filter, run page and
//! blob all for one run, as a dashboard opens a run.

use crate::metrics::Values;
use crate::stats::{median, median_setup_secs, mix, percentile, stamp_cost_us, us, Span};
use crate::{Report, Run};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdl_conf::{from_json, Value, ValueExt};
use sdl_datapub::{field_matches, AcdcPortal, BlobStore, ExperimentRecord, SampleRecord};
use sdl_portal_server::client::{HttpClient, HttpResponse};
use sdl_portal_server::{PortalServer, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const RECORDS: u32 = 5000;
const PER_RUN: u32 = 15;
const RUNS: u32 = RECORDS.div_ceil(PER_RUN);
const BLOB_BYTES: usize = 16 * 1024;
const PAGE: u32 = 100;
const RUN_PAGE: u32 = 50;
/// `/records` queries replayed in-process for the search-page probe.
const SEARCH_PROBES: usize = 200;

/// Endpoint rows: name, and its count / p50 / p99 metric names.
const ENDPOINTS: [(&str, [&str; 3]); 6] = [
    ("records", ["portal.records.count", "portal.records.p50_us", "portal.records.p99_us"]),
    ("summary", ["portal.summary.count", "portal.summary.p50_us", "portal.summary.p99_us"]),
    ("runs", ["portal.runs.count", "portal.runs.p50_us", "portal.runs.p99_us"]),
    ("blobs", ["portal.blobs.count", "portal.blobs.p50_us", "portal.blobs.p99_us"]),
    ("metrics", ["portal.metrics.count", "portal.metrics.p50_us", "portal.metrics.p99_us"]),
    ("healthz", ["portal.healthz.count", "portal.healthz.p50_us", "portal.healthz.p99_us"]),
];

/// The seeded portal contents.
struct Seeded {
    experiment: String,
    portal: Arc<AcdcPortal>,
    store: Arc<BlobStore>,
    /// Blob ref of each run's plate image, run 1 first.
    blobs: Vec<String>,
}

fn experiment_id(seed: u64) -> String {
    format!("bench-{:016x}", mix(seed, 0))
}

fn seed_portal(seed: u64) -> Seeded {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let portal = Arc::new(AcdcPortal::new());
    let store = Arc::new(BlobStore::in_memory());
    let experiment = experiment_id(seed);
    let blobs: Vec<String> = (0..RUNS)
        .map(|_| {
            let mut image = vec![0u8; BLOB_BYTES];
            rng.fill(&mut image[..]);
            store.put(Bytes::from(image)).0
        })
        .collect();
    let target = [rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()];
    portal.ingest(
        ExperimentRecord {
            experiment_id: experiment.clone(),
            name: "ColorPickerRPL".into(),
            date: "2023-08-16".into(),
            target,
            solver: "bayesian".into(),
            batch: PER_RUN,
            sample_budget: RECORDS,
        }
        .to_value(),
    );
    let mut best = f64::INFINITY;
    for i in 0..RECORDS {
        let ratios: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
        let score = rng.gen_range(0.5..60.0);
        best = best.min(score);
        let run = 1 + i / PER_RUN;
        portal.ingest(
            SampleRecord {
                experiment_id: experiment.clone(),
                run,
                sample: i + 1,
                well: format!("{}{}", (b'A' + (i % 96 / 12) as u8) as char, 1 + i % 12),
                volumes_ul: ratios.iter().map(|r| r * 275.0 / 4.0).collect(),
                ratios,
                measured: [rng.gen(), rng.gen(), rng.gen()],
                target,
                score,
                best_so_far: best,
                elapsed_s: i as f64 * 228.0,
                batch_wall_s: Some(228.0 * PER_RUN as f64),
                image_ref: Some(blobs[run as usize - 1].clone()),
            }
            .to_value(),
        );
    }
    Seeded { experiment, portal, store, blobs }
}

/// What the seed generates: the portal contents, summarized.
pub fn inputs(seed: u64) -> String {
    let s = seed_portal(seed);
    let first = s.portal.search_page(|r| r.opt_str("kind") == Some("sample"), 0, 3).0;
    format!(
        "{} {:?} {:?}",
        s.experiment,
        s.blobs,
        first.iter().map(sdl_conf::to_json).collect::<Vec<_>>()
    )
}

fn spawn_server(s: &Seeded) -> Result<ServerHandle, String> {
    let server = PortalServer::new(Arc::clone(&s.portal), Arc::clone(&s.store));
    sdl_portal_server::spawn(
        server,
        &ServerConfig { threads: crate::threads(), ..ServerConfig::default() },
    )
    .map_err(|e| format!("bind portal server: {e}"))
}

/// One request of the mix, with what a correct reply looks like.
struct Request {
    endpoint: usize,
    path: String,
    expect: Expect,
}

enum Expect {
    /// JSON lines: this many rows, and this `X-Total-Count`.
    Rows { rows: usize, total: usize },
    /// A body of exactly this many bytes.
    Bytes(usize),
    /// `/healthz`: this many records.
    Health(usize),
    /// Any 200 body.
    Ok,
}

/// Sample records of `run`.
fn run_rows(run: u32) -> usize {
    (RECORDS - (run - 1) * PER_RUN).min(PER_RUN) as usize
}

/// The next refresh of one client: the 7-request mix, its page and run
/// drawn from the client's RNG.
fn refresh(rng: &mut StdRng, s: &Seeded) -> Vec<Request> {
    let records = RECORDS as usize;
    let offset = PAGE * rng.gen_range(0..RECORDS / PAGE);
    let run = rng.gen_range(1..=RUNS);
    let id = &s.experiment;
    vec![
        Request {
            endpoint: 0,
            path: format!("/records?kind=sample&limit={PAGE}&offset={offset}"),
            expect: Expect::Rows { rows: PAGE as usize, total: records },
        },
        Request {
            endpoint: 0,
            path: format!("/records?kind=sample&run={run}&limit={RUN_PAGE}"),
            expect: Expect::Rows { rows: run_rows(run), total: run_rows(run) },
        },
        Request { endpoint: 1, path: format!("/summary?experiment={id}"), expect: Expect::Ok },
        Request { endpoint: 2, path: format!("/runs/{run}?experiment={id}"), expect: Expect::Ok },
        Request {
            endpoint: 3,
            path: format!("/blobs/{}", s.blobs[run as usize - 1].replace("blob:", "blob_")),
            expect: Expect::Bytes(BLOB_BYTES),
        },
        Request { endpoint: 4, path: "/metrics".into(), expect: Expect::Ok },
        Request { endpoint: 5, path: "/healthz".into(), expect: Expect::Health(records + 1) },
    ]
}

/// Check one reply; returns the sample rows it carried.
fn check(req: &Request, resp: &HttpResponse) -> Result<usize, String> {
    if resp.status != 200 {
        return Err(format!("{} answered {}", req.path, resp.status));
    }
    match req.expect {
        Expect::Rows { rows, total } => {
            let text = std::str::from_utf8(&resp.body)
                .map_err(|_| format!("{}: body is not UTF-8", req.path))?;
            let mut n = 0;
            for line in text.lines() {
                let v = from_json(line).map_err(|e| format!("{}: bad row: {e}", req.path))?;
                if v.opt_str("kind") != Some("sample") {
                    return Err(format!("{}: row is not a sample record", req.path));
                }
                n += 1;
            }
            let header = resp.header("x-total-count").and_then(|t| t.parse::<usize>().ok());
            if n != rows || header != Some(total) {
                return Err(format!(
                    "{}: {n} rows of {header:?}, expected {rows} of {total}",
                    req.path
                ));
            }
            Ok(n)
        }
        Expect::Bytes(len) if resp.body.len() != len => {
            Err(format!("{}: {} bytes, expected {len}", req.path, resp.body.len()))
        }
        Expect::Health(records) => {
            let v = from_json(&resp.text()).map_err(|e| format!("/healthz: {e}"))?;
            match v.get("records").and_then(Value::as_i64) {
                Some(n) if n as usize == records => Ok(0),
                other => Err(format!("/healthz reports {other:?} records, expected {records}")),
            }
        }
        _ => Ok(0),
    }
}

/// What one client measured.
#[derive(Default)]
struct Client {
    endpoints: [Span; 6],
    /// Complete refreshes.
    refreshes: Span,
    /// Sample rows served by `/records`.
    rows: u64,
    bytes: u64,
    attempted: u64,
    non2xx: u64,
    refused: u64,
    problems: Vec<String>,
}

impl Client {
    /// Keep the first few check failures; one is enough to fail the run.
    fn problem(&mut self, e: String) {
        if self.problems.len() < 5 {
            self.problems.push(e);
        }
    }

    /// Every admitted request, whatever its endpoint.
    fn requests(&self) -> Span {
        let mut all = Span::default();
        for e in &self.endpoints {
            all.extend(e);
        }
        all
    }

    fn merge(&mut self, c: Client) {
        for (a, b) in self.endpoints.iter_mut().zip(&c.endpoints) {
            a.extend(b);
        }
        self.refreshes.extend(&c.refreshes);
        self.rows += c.rows;
        self.bytes += c.bytes;
        self.attempted += c.attempted;
        self.non2xx += c.non2xx;
        self.refused += c.refused;
        self.problems.extend(c.problems);
    }
}

fn client_loop(
    addr: SocketAddr,
    mut conn: Option<HttpClient>,
    s: &Seeded,
    mut rng: StdRng,
    deadline: Instant,
) -> Client {
    let mut c = Client::default();
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let mut complete = true;
        for req in refresh(&mut rng, s) {
            c.attempted += 1;
            if conn.is_none() {
                conn = HttpClient::connect(addr).ok();
            }
            let Some(http) = conn.as_mut() else {
                c.refused += 1;
                complete = false;
                continue;
            };
            let t = Instant::now();
            let resp = http.get(&req.path);
            let took = us(t, Instant::now());
            match resp {
                Ok(resp) => {
                    if resp.header("connection") == Some("close") {
                        conn = None;
                    }
                    match check(&req, &resp) {
                        Ok(rows) => c.rows += rows as u64,
                        Err(e) => c.problem(e),
                    }
                    if (200..300).contains(&resp.status) {
                        c.endpoints[req.endpoint].add(took);
                        c.bytes += resp.body.len() as u64;
                    } else {
                        c.non2xx += 1;
                        complete = false;
                    }
                }
                Err(e) => {
                    c.refused += 1;
                    complete = false;
                    conn = None;
                    c.problem(format!("{}: {e}", req.path));
                }
            }
        }
        if complete {
            c.refreshes.add(us(t0, Instant::now()));
        }
    }
    c
}

/// Both clients for `seconds`; returns the merged tally and the wall time.
fn timed_phase(addr: SocketAddr, s: &Seeded, seed: u64, seconds: f64) -> (Client, f64) {
    let conns: Vec<Option<HttpClient>> =
        (0..CLIENTS).map(|_| HttpClient::connect(addr).ok()).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let rng = StdRng::seed_from_u64(mix(seed, 10 + i as u64));
                scope.spawn(move || client_loop(addr, conn, s, rng, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("portal client panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = Client::default();
    for c in clients {
        all.merge(c);
    }
    (all, wall)
}

/// `AcdcPortal::search_page` on the mix's `/records` queries, no HTTP.
fn search_page_probe(s: &Seeded, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, 99));
    let mut times = Vec::with_capacity(SEARCH_PROBES);
    for i in 0..SEARCH_PROBES {
        // A page, then a run filter, as in the mix.
        let (filters, offset, limit): (Vec<(&str, String)>, usize, usize) = if i % 2 == 0 {
            let offset = PAGE * rng.gen_range(0..RECORDS / PAGE);
            (vec![("kind", "sample".into())], offset as usize, PAGE as usize)
        } else {
            let run = rng.gen_range(1..=RUNS).to_string();
            (vec![("kind", "sample".into()), ("run", run)], 0, RUN_PAGE as usize)
        };
        let t = Instant::now();
        let page = s.portal.search_page(
            |r| filters.iter().all(|(p, v)| field_matches(r, p, v)),
            offset,
            limit,
        );
        times.push(us(t, Instant::now()));
        std::hint::black_box(page);
    }
    median(&times)
}

fn setup_seconds(seed: u64) -> Result<f64, String> {
    let mut err = None;
    let secs = median_setup_secs(|| {
        let t = Instant::now();
        let seeded = seed_portal(seed);
        let server = spawn_server(&seeded);
        let conns: Vec<_> = match &server {
            Ok(h) => (0..CLIENTS).map(|_| HttpClient::connect(h.addr())).collect(),
            Err(_) => Vec::new(),
        };
        let took = t.elapsed();
        drop(conns);
        match server {
            Ok(h) => h.shutdown(),
            Err(e) => err = Some(e),
        }
        took
    });
    err.map_or(Ok(secs), Err)
}

/// Run `portal_reads`.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let seeded = seed_portal(run.seed);
    let server = spawn_server(&seeded)?;
    let (c, wall) = timed_phase(server.addr(), &seeded, run.seed, run.seconds);
    // Read before the set-up repetitions below.
    report.values.set("peak_rss_mb", crate::host::peak_rss_mb());
    server.shutdown();

    report.problems.extend(c.problems.iter().cloned());
    report.attempted = c.attempted;
    report.failed = c.non2xx + c.refused;
    let requests = c.requests();
    let v = &mut report.values;
    v.set("samples_per_s", c.rows as f64 / wall);
    v.set("batch_p50_ms", c.refreshes.p_us(50.0) / 1e3);
    v.set("batch_p90_ms", c.refreshes.p_us(90.0) / 1e3);
    v.set("req_per_s", requests.calls() / wall);
    v.set("req_p50_us", requests.p_us(50.0));
    v.set("req_p99_us", requests.p_us(99.0));
    if run.trace {
        endpoint_rows(&c, &seeded, run.seed, v);
        // Timestamps the clients took, over the time both clients ran.
        let stamps = requests.calls() + c.refreshes.calls();
        v.set("trace.overhead_frac", stamps * stamp_cost_us() / (CLIENTS as f64 * wall * 1e6));
        v.set("failed_frac", crate::session::failed_frac(report.failed, report.attempted));
    } else {
        let setup_s = setup_seconds(run.seed)?;
        report.values.set("setup_s", setup_s);
    }
    Ok(report)
}

/// The `portal.*` rows and the search-page probe of one read phase.
fn endpoint_rows(c: &Client, seeded: &Seeded, seed: u64, v: &mut Values) {
    for (e, (_, [count, p50, p99])) in c.endpoints.iter().zip(ENDPOINTS) {
        let mut sorted = e.samples().to_vec();
        sorted.sort_by(f64::total_cmp);
        v.set(count, e.calls());
        v.set(p50, percentile(&sorted, 50.0));
        v.set(p99, percentile(&sorted, 99.0));
    }
    v.set("portal.non2xx", c.non2xx as f64);
    v.set("portal.bytes_out", c.bytes as f64);
    v.set("datapub.search_page.p50_us", search_page_probe(seeded, seed));
}

/// Longest read phase a traced `pool_matrix` run ends with.
pub const READ_PHASE_SECONDS: f64 = 5.0;

/// The `portal_reads` traffic for `seconds` against a portal seeded from
/// `seed`, checked as in `portal_reads`, for its per-layer rows only. A
/// traced `pool_matrix` run ends with it so that the benchmark still
/// measures the portal layers although `portal_reads` itself is not in
/// `BENCHMARK.json`.
pub fn read_layers(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let seeded = seed_portal(seed);
    let server = spawn_server(&seeded)?;
    let (c, _) = timed_phase(server.addr(), &seeded, seed, seconds);
    server.shutdown();
    report.problems.extend(c.problems.iter().cloned());
    endpoint_rows(&c, &seeded, seed, &mut report.values);
    Ok(())
}
