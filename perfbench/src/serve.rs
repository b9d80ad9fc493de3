//! `serve-mixed`: an in-process `sas-serve` daemon (2 workers, 100 000-cycle
//! chunks, fresh state dir) driven over loopback HTTP/JSON-RPC by a closed
//! loop of 2 clients, one connection per request (`connection: close`).
//!
//! The seeded mix is weighted toward short requests:
//!
//! | share | request |
//! |---|---|
//! | 41% | `simulate` of a tiny inline `.sasm` countdown loop |
//! | 30% | `simulate` of a short SPEC profile (16 repeating keys: cache hits after the first) |
//! | 2%  | `simulate` of a long SPEC run under SpecASan (>100k cycles: checkpoints through `sas-snap`, warm forks) |
//! | 3%  | `trace` of a tiny countdown loop with Chrome export |
//! | 24% | `lint` with `suggest` of a fuzz-synthesized gadget program |
//!
//! The long runs are one job, so the 2% tail that holds `op_p99_ms` is one
//! population. `query` is not in the timed mix: its latency grows with the
//! daemon's history (journal length, retained results) and it holds the
//! state lock, so it would make the tail depend on when it was drawn. The
//! traced run times [`POST_QUERIES`] queries after the timed phase instead.
//!
//! * Operation: one request, send → full response.
//! * Work: completed requests; `work_per_s` is requests per second.
//! * Set-up: `Server::start` on a fresh state dir (journal recovery,
//!   bind, worker spawn), for the measured daemon and for a throwaway one
//!   started and drained every 500 ms during the run.
//! * Failures: I/O errors and timeouts, any non-200 status (503, 429, …)
//!   and JSON-RPC error bodies. A failed request's latency is recorded as
//!   the client timeout, so it misses any latency limit.
//! * Exactness (after the timed phase): every `simulate`/`trace` cycle
//!   count equals an in-process run of the same job (warm-forked jobs
//!   against an in-process warm fork), every `lint` result equals an
//!   in-process `analyze` + `harden`, every traced-run `query` returns a
//!   table, and the first Chrome document per mitigation validates.

use crate::report::Outcome;
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use sas_bench::checkpoint::{run_supervised_with, CheckpointPlan, Interrupt};
use sas_ptest::Rng;
use sas_serve::http::json_escape;
use sas_telemetry::json::{self, Json};
use specasan::{build_system, Mitigation, SimConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CHUNK: u64 = 100_000;
const CLIENTS: u64 = 2;
/// Period of the throwaway daemon starts that sample set-up time.
const SETUP_EVERY: Duration = Duration::from_millis(500);
/// Client socket timeout; also the latency charged to a failed request.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Fuzz-synthesized programs in the `lint` pool.
const LINT_POOL: u32 = 64;

const SHORT_SPEC: [&str; 4] = [
    "500.perlbench_r",
    "531.deepsjeng_r",
    "541.leela_r",
    "557.xz_r",
];
const SHORT_ITERS: [u32; 4] = [1, 2, 3, 4];
/// The long job: one profile, length and mitigation.
const LONG_SPEC: (&str, u32, Mitigation) = ("508.namd_r", 500, Mitigation::SpecAsan);
/// Queries timed after the timed phase of a traced run, cycling through
/// [`QUERIES`].
const POST_QUERIES: usize = 6;
const QUERIES: [&str; 3] = [
    "group by source agg count",
    "where source=jobs group by kind agg count",
    "where source=journal group by kind agg count",
];

fn mitigations() -> [Mitigation; 5] {
    let [a, b, c, d] = Mitigation::figure6_set();
    [Mitigation::Unsafe, a, b, c, d]
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Req {
    /// `simulate` of an inline countdown loop of `n` iterations.
    Sasm { n: u64, mitigation: Mitigation },
    /// `simulate` of a SPEC profile.
    Spec {
        target: &'static str,
        iters: u32,
        mitigation: Mitigation,
    },
    /// `trace` with Chrome export of an inline countdown loop of `n`
    /// iterations.
    Trace { n: u64, mitigation: Mitigation },
    /// `lint` + `suggest` of lint-pool program `i`.
    Lint { i: usize },
    /// `query` number `i`.
    Query { i: usize },
}

fn sasm_countdown(n: u64) -> String {
    format!(".entry main\nmain:\n    MOVZ X1, #{n}\nloop:\n    SUB X1, X1, #1\n    CBNZ X1, loop\n    HALT\n")
}

/// The request kinds in mix proportions: one deck of 100. Each client
/// deals from its own seeded shuffles of the deck, so every run carries the
/// same mix and only the order and the parameters depend on the seed.
const DECK: [(u8, usize); 5] = [(0, 41), (1, 30), (2, 2), (3, 3), (4, 24)];

/// Deals requests from successive seeded shuffles of [`DECK`].
struct Dealer {
    rng: Rng,
    deck: Vec<u8>,
    next: usize,
}

impl Dealer {
    fn new(seed: u64) -> Dealer {
        let deck: Vec<u8> = DECK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        Dealer {
            rng: Rng::new(seed),
            next: deck.len(),
            deck,
        }
    }

    fn deal(&mut self) -> Req {
        if self.next == self.deck.len() {
            crate::shuffle(&mut self.deck, self.rng.next_u64());
            self.next = 0;
        }
        let kind = self.deck[self.next];
        self.next += 1;
        let rng = &mut self.rng;
        let m = mitigations()[rng.below(5) as usize];
        match kind {
            0 => Req::Sasm {
                n: rng.range(4, 400),
                mitigation: m,
            },
            1 => Req::Spec {
                target: SHORT_SPEC[rng.below(4) as usize],
                iters: SHORT_ITERS[rng.below(4) as usize],
                mitigation: m,
            },
            2 => Req::Spec {
                target: LONG_SPEC.0,
                iters: LONG_SPEC.1,
                mitigation: LONG_SPEC.2,
            },
            3 => Req::Trace {
                n: rng.range(4, 16),
                mitigation: m,
            },
            _ => Req::Lint {
                i: rng.below(u64::from(LINT_POOL)) as usize,
            },
        }
    }
}

impl Req {
    fn method(&self) -> &'static str {
        match self {
            Req::Sasm { .. } | Req::Spec { .. } => "simulate",
            Req::Trace { .. } => "trace",
            Req::Lint { .. } => "lint",
            Req::Query { .. } => "query",
        }
    }

    fn body(&self, id: u64, client: u64, lint_pool: &[String]) -> String {
        let params = match self {
            Req::Sasm { n, mitigation } => format!(
                "\"program\":\"{}\",\"mitigation\":\"{}\"",
                json_escape(&sasm_countdown(*n)),
                mitigation.token()
            ),
            Req::Spec {
                target,
                iters,
                mitigation,
            } => {
                format!(
                    "\"target\":\"{target}\",\"iters\":{iters},\"mitigation\":\"{}\"",
                    mitigation.token()
                )
            }
            Req::Trace { n, mitigation } => format!(
                "\"program\":\"{}\",\"chrome\":true,\"mitigation\":\"{}\"",
                json_escape(&sasm_countdown(*n)),
                mitigation.token()
            ),
            Req::Lint { i } => format!(
                "\"program\":\"{}\",\"suggest\":true",
                json_escape(&lint_pool[*i])
            ),
            Req::Query { i } => format!("\"q\":\"{}\"", json_escape(QUERIES[*i])),
        };
        format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{}\",\"params\":{{{params},\"client\":\"bench-{client}\"}}}}",
            self.method()
        )
    }
}

/// One HTTP exchange on its own connection: `(status, body)`.
fn http(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    let _ = s.set_read_timeout(Some(IO_TIMEOUT));
    let _ = s.set_write_timeout(Some(IO_TIMEOUT));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// One JSON-RPC exchange: the body of a 200 response, the failure
/// otherwise.
fn rpc(port: u16, body: &str) -> Result<String, String> {
    match http(port, "POST", "/rpc", body) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("HTTP {status}: {body}")),
        Err(e) => Err(e),
    }
}

/// One completed exchange.
struct Sample {
    req: Req,
    latency_ms: f64,
    /// `Ok(body)` for a 200, the failure otherwise.
    response: Result<String, String>,
}

/// Starts a daemon on a fresh state dir, returning it and the start time.
fn start(dir: &Path) -> std::io::Result<(sas_serve::Server, f64)> {
    let mut cfg = sas_serve::Config::new(dir.to_path_buf());
    cfg.workers = WORKERS;
    cfg.chunk = CHUNK;
    let t0 = Instant::now();
    let server = sas_serve::Server::start(cfg)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

fn stop(server: &sas_serve::Server) {
    server.drain();
    server.drain_wait();
    server.stop_accepting();
}

/// Measures the closed loop for the context's budget.
pub fn measure(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let sim = SimConfig::table2();
    let lint_pool: Vec<String> = (0..LINT_POOL)
        .map(|i| {
            let mut rng = Rng::new(sas_fuzz::campaign::case_seed_of(ctx.seed ^ 0x11A7, i));
            sas_fuzz::scenario::gen_scenario(&sim, &mut rng)
                .program
                .to_sasm()
        })
        .collect();

    let (server, secs) = match start(&ctx.work_dir.join("state")) {
        Ok(started) => started,
        Err(e) => {
            out.problem(format!("Server::start: {e}"));
            return out;
        }
    };
    let mut setups = vec![secs];
    let port = server.port();
    // Warm-up outside the measurement: the first long job writes the
    // daemon's warm baseline, so every timed long job is a warm fork.
    let warm = [
        Req::Sasm {
            n: 4,
            mitigation: Mitigation::Unsafe,
        },
        Req::Spec {
            target: LONG_SPEC.0,
            iters: LONG_SPEC.1,
            mitigation: LONG_SPEC.2,
        },
    ];
    for req in &warm {
        if let Err(e) = rpc(port, &req.body(0, 0, &lint_pool)) {
            out.problem(format!("warm-up request {req:?}: {e}"));
            stop(&server);
            return out;
        }
    }

    let started = Instant::now();
    let deadline = started + ctx.budget;
    let mut setup_error = None;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let lint_pool = &lint_pool;
                s.spawn(move || {
                    let mut dealer =
                        Dealer::new(ctx.seed ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut samples = Vec::new();
                    let mut id = 0u64;
                    while Instant::now() < deadline {
                        id += 1;
                        let req = dealer.deal();
                        let body = req.body(id, client, lint_pool);
                        let span = tracer.open("serve.request", None, client << 32 | id);
                        let t0 = Instant::now();
                        let response = rpc(port, &body);
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        tracer.close(span);
                        samples.push(Sample {
                            req,
                            latency_ms,
                            response,
                        });
                    }
                    samples
                })
            })
            .collect();
        // Meanwhile, start and stop a throwaway daemon on a fresh state dir
        // every SETUP_EVERY, so set-up samples spread over the whole run.
        let mut i = 0;
        while Instant::now() + SETUP_EVERY < deadline {
            std::thread::sleep(SETUP_EVERY);
            i += 1;
            match start(&ctx.work_dir.join(format!("setup-{i}"))) {
                Ok((daemon, secs)) => {
                    setups.push(secs);
                    stop(&daemon);
                }
                Err(e) => setup_error = Some(e),
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(e) = setup_error {
        out.problem(format!("Server::start: {e}"));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let metrics = tracer.enabled().then(|| http(port, "GET", "/metrics", ""));
    // `query` latency against the daemon's state at the end of the run.
    let post_queries: Vec<Sample> = if tracer.enabled() {
        (0..POST_QUERIES)
            .map(|i| {
                let req = Req::Query {
                    i: i % QUERIES.len(),
                };
                let t0 = Instant::now();
                let response = rpc(port, &req.body(i as u64, 0, &lint_pool));
                Sample {
                    req,
                    latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                    response,
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let query_after_large_trace = tracer
        .enabled()
        .then(|| query_after_large_trace(port, &lint_pool));
    stop(&server);

    // Failure accounting and exactness, outside the timed region.
    let mut latencies = Vec::new();
    let mut by_method: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let reference_dir = ctx.work_dir.join("reference");
    let mut checker = Checker::new(&reference_dir, &lint_pool);
    let mut completed = 0u64;
    let timed = samples.iter().map(|s| (true, s));
    for (timed, s) in timed.chain(post_queries.iter().map(|s| (false, s))) {
        out.attempted += 1;
        let outcome = s.response.clone().and_then(|body| {
            let doc = json::parse(&body).map_err(|e| format!("unparsable response: {e}"))?;
            match (doc.get("result"), doc.get("error")) {
                (Some(result), None) => Ok(result.clone()),
                _ => Err(format!("JSON-RPC error: {body}")),
            }
        });
        let latency = match outcome {
            Ok(result) => {
                if let Err(e) = checker.check(&s.req, &result) {
                    out.problem(format!("{:?}: {e}", s.req));
                }
                completed += u64::from(timed);
                s.latency_ms
            }
            Err(e) => {
                out.failed += 1;
                eprintln!(
                    "  failed {:?}: {}",
                    s.req,
                    e.chars().take(200).collect::<String>()
                );
                IO_TIMEOUT.as_secs_f64() * 1e3
            }
        };
        if timed {
            latencies.push(latency);
        }
        by_method.entry(s.req.method()).or_default().push(latency);
    }

    let lat = Summary::of(&latencies).expect("requests ran");
    eprintln!(
        "  {} requests in {wall_s:.2} s: p50 {:.2} ms, p99 {:.2} ms ({} beyond p99)",
        lat.count, lat.p50, lat.p99, lat.beyond_p99
    );
    out.set("setup_s", median(&setups).expect("set-ups ran"));
    out.set("work_per_s", completed as f64 / wall_s);
    out.set("op_p50_ms", lat.p50);
    out.set("op_p99_ms", lat.p99);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if tracer.enabled() {
        for (method, xs) in &by_method {
            let p50 = percentile(xs, 50.0).expect("non-empty");
            let p99 = percentile(xs, 99.0).expect("non-empty");
            eprintln!(
                "  {method:<9} n={:<5} p50 {p50:.2} ms p99 {p99:.2} ms",
                xs.len()
            );
            out.set(catalogued(&format!("serve.latency_p50_ms.{method}")), p50);
            out.set(catalogued(&format!("serve.latency_p99_ms.{method}")), p99);
        }
        match metrics.expect("scraped when traced") {
            Ok((200, text)) => {
                let scraped = Scrape::parse(&text);
                let handle_p50 = scraped.handle_p50_ms();
                out.set("serve.handle_p50_ms", handle_p50);
                out.set("serve.accept_wait_ms", lat.p50 - handle_p50);
                out.set("serve.accept_wait_share", (lat.p50 - handle_p50) / lat.p50);
                out.set("serve.rejected", scraped.sum("sas_serve_rejected_total"));
                let accepted = scraped.get("sas_serve_jobs_total{outcome=\"accepted\"}");
                out.set(
                    "serve.journal_bytes_per_job",
                    scraped.get("sas_serve_journal_bytes") / accepted.max(1.0),
                );
            }
            other => out.problem(format!("GET /metrics: {other:?}")),
        }
        match query_after_large_trace {
            Some(Ok(ms)) => out.set("serve.query_ms_after_large_trace", ms),
            Some(Err(e)) => out.problem(format!("query after a large trace: {e}")),
            None => {}
        }
    }
    out
}

/// Latency (ms) of one `query` issued right after a `trace` whose Chrome
/// document is ~300 KB joins the job table: every `query` re-parses the
/// retained results, so this isolates that cost from the mixed load.
fn query_after_large_trace(port: u16, lint_pool: &[String]) -> Result<f64, String> {
    let trace = Req::Trace {
        n: 400,
        mitigation: Mitigation::Unsafe,
    };
    match http(port, "POST", "/rpc", &trace.body(1, 0, lint_pool))? {
        (200, body) if !body.contains("\"error\"") => {}
        other => return Err(format!("trace: {other:?}")),
    }
    let t0 = Instant::now();
    let reply = http(
        port,
        "POST",
        "/rpc",
        &Req::Query { i: 0 }.body(2, 0, lint_pool),
    )?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match reply {
        (200, body) if body.contains("\"rows\"") => Ok(ms),
        other => Err(format!("query: {other:?}")),
    }
}

fn catalogued(name: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("{name} is not catalogued"))
}

/// Recomputes served results in-process, caching by job.
struct Checker<'a> {
    dir: &'a Path,
    lint_pool: &'a [String],
    sim: SimConfig,
    cycles: HashMap<(Req, bool), u64>,
    lint: HashMap<usize, (f64, String)>,
    chrome_checked: Vec<Mitigation>,
}

impl<'a> Checker<'a> {
    fn new(dir: &'a Path, lint_pool: &'a [String]) -> Checker<'a> {
        Checker {
            dir,
            lint_pool,
            sim: SimConfig::table2(),
            cycles: HashMap::new(),
            lint: HashMap::new(),
            chrome_checked: Vec::new(),
        }
    }

    fn check(&mut self, req: &Req, result: &Json) -> Result<(), String> {
        match req {
            Req::Sasm { .. } | Req::Spec { .. } | Req::Trace { .. } => {
                let got = result
                    .get("cycles")
                    .and_then(Json::as_num)
                    .ok_or("no cycles in result")? as u64;
                let restored = matches!(result.get("restored"), Some(Json::Bool(true)));
                let want = match self.cycles.get(&(req.clone(), restored)) {
                    Some(&c) => c,
                    None => {
                        let c = self.reference_cycles(req, restored)?;
                        self.cycles.insert((req.clone(), restored), c);
                        c
                    }
                };
                if got != want {
                    return Err(format!(
                        "served {got} cycles, in-process run {want} (restored {restored})"
                    ));
                }
                if let Req::Trace { mitigation, .. } = req {
                    if !self.chrome_checked.contains(mitigation) {
                        let doc = result
                            .get("chrome")
                            .and_then(Json::as_str)
                            .ok_or("no chrome document")?;
                        sas_telemetry::json::validate_chrome_trace(doc)
                            .map_err(|e| format!("chrome: {e}"))?;
                        self.chrome_checked.push(*mitigation);
                    }
                }
                Ok(())
            }
            Req::Lint { i } => {
                let (gadgets, hardened) = self
                    .lint
                    .entry(*i)
                    .or_insert_with(|| lint_reference(&self.lint_pool[*i]));
                let got = result.get("gadgets").and_then(Json::as_num);
                let got_hardened = result
                    .get("hardened")
                    .or_else(|| result.get("harden_error"))
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                if got != Some(*gadgets) || got_hardened != hardened.as_str() {
                    return Err(format!("lint result differs: {got:?} gadgets vs {gadgets}"));
                }
                Ok(())
            }
            Req::Query { .. } => match result.get("rows").and_then(Json::as_arr) {
                Some(rows) if !rows.is_empty() && result.get("columns").is_some() => Ok(()),
                _ => Err(format!("query result is not a non-empty table: {result:?}")),
            },
        }
    }

    fn reference_cycles(&self, req: &Req, restored: bool) -> Result<u64, String> {
        let run = |mut sys: sas_pipeline::System, plan: &CheckpointPlan| {
            let sr = run_supervised_with(&mut sys, sas_serve::job::SIM_BUDGET, plan, |_| {
                Interrupt::None
            });
            (sr.run.cycles, sr.restored)
        };
        match req {
            Req::Sasm { n, mitigation } => {
                let p = sas_isa::parse_program(&sasm_countdown(*n)).map_err(|e| e.to_string())?;
                Ok(run(
                    build_system(&self.sim, p, *mitigation),
                    &CheckpointPlan::none(),
                )
                .0)
            }
            Req::Trace { n, mitigation } => {
                let p = sas_isa::parse_program(&sasm_countdown(*n)).map_err(|e| e.to_string())?;
                let mut sys = build_system(&self.sim, p, *mitigation);
                sys.enable_telemetry(64, 65_536);
                Ok(sys.run(sas_serve::job::TRACE_BUDGET).cycles)
            }
            Req::Spec {
                target,
                iters,
                mitigation,
            } => {
                let profile = sas_workloads::spec_suite()
                    .into_iter()
                    .find(|p| p.name == *target)
                    .ok_or("unknown profile")?;
                let sys = || sas_bench::build_spec_system(&profile, *mitigation, *iters);
                if !restored {
                    return Ok(run(sys(), &CheckpointPlan::none()).0);
                }
                // The daemon forked this job from the benchmark's warmed
                // unsafe baseline: do the same in-process.
                let plan = CheckpointPlan {
                    warm_base: Some(self.dir.join(format!("warm-{target}-{iters}.snap"))),
                    ..CheckpointPlan::none()
                };
                std::fs::create_dir_all(self.dir).map_err(|e| e.to_string())?;
                run(
                    sas_bench::build_spec_system(&profile, Mitigation::Unsafe, *iters),
                    &plan,
                );
                match run(sys(), &plan) {
                    (cycles, true) => Ok(cycles),
                    _ => Err("the in-process warm fork did not restore".into()),
                }
            }
            Req::Lint { .. } | Req::Query { .. } => Err("not a simulation".into()),
        }
    }
}

/// `(gadget count, hardened program or harden error)` computed in-process.
fn lint_reference(program: &str) -> (f64, String) {
    let parsed = match sas_isa::parse_program(program) {
        Ok(p) => p,
        Err(e) => return (-1.0, format!("parse error: {e}")),
    };
    let acfg = sas_analyze::AnalysisConfig::default();
    let gadgets = sas_analyze::analyze(&parsed, &acfg).gadget_count() as f64;
    let hardened = match sas_analyze::harden(&parsed, &acfg) {
        Ok(h) => h.program.to_sasm(),
        Err(e) => e.to_string(),
    };
    (gadgets, hardened)
}

/// A parsed Prometheus exposition: sample line key (name plus labels) →
/// value.
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Σ over every labelled sample of family `name`.
    fn sum(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Daemon-side p50 handling time (ms) over the four mixed RPC methods:
    /// the upper bound of the log2 bucket holding the median request.
    fn handle_p50_ms(&self) -> f64 {
        // Cumulative count at or below `le` for each method.
        let mut per_method: Vec<Vec<(f64, f64)>> = Vec::new();
        for method in ["rpc:simulate", "rpc:trace", "rpc:lint", "rpc:query"] {
            let prefix = format!("sas_serve_request_latency_us_bucket{{method=\"{method}\",le=\"");
            let mut buckets: Vec<(f64, f64)> = self
                .0
                .iter()
                .filter_map(|(k, v)| {
                    let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                    Some((le.parse().unwrap_or(f64::INFINITY), *v))
                })
                .collect();
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            per_method.push(buckets);
        }
        let cum_at = |b: &[(f64, f64)], le: f64| {
            b.iter()
                .take_while(|(l, _)| *l <= le)
                .last()
                .map_or(0.0, |(_, c)| *c)
        };
        let total: f64 = per_method
            .iter()
            .map(|b| b.last().map_or(0.0, |(_, c)| *c))
            .sum();
        let mut edges: Vec<f64> = per_method.iter().flatten().map(|(le, _)| *le).collect();
        edges.sort_by(f64::total_cmp);
        let rank = (total / 2.0).ceil().max(1.0);
        edges
            .into_iter()
            .find(|&le| per_method.iter().map(|b| cum_at(b, le)).sum::<f64>() >= rank)
            .map_or(0.0, |le| le / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_countdown_program_parses_and_halts() {
        let p = sas_isa::parse_program(&sasm_countdown(5)).unwrap();
        let mut sys = build_system(&SimConfig::table2(), p, Mitigation::Unsafe);
        assert!(matches!(
            sys.run(1_000_000).exit,
            sas_pipeline::RunExit::Halted
        ));
    }

    #[test]
    fn the_mix_is_seeded_and_covers_every_method() {
        let draw = |seed| {
            let mut dealer = Dealer::new(seed);
            (0..2000).map(|_| dealer.deal()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mix = draw(5);
        for method in ["simulate", "trace", "lint"] {
            assert!(mix.iter().any(|r| r.method() == method), "{method}");
        }
        assert!(
            !mix.iter().any(|r| r.method() == "query"),
            "query is timed after the run, not in the mix"
        );
        let count = |f: fn(&Req) -> bool| mix.iter().filter(|r| f(r)).count();
        let (target, iters, mitigation) = LONG_SPEC;
        let long = |r: &Req| matches!(r, Req::Spec { iters: 500, .. });
        assert_eq!(count(long), 40, "two long jobs per deck");
        assert!(
            mix.iter().filter(|r| long(r)).all(|r| *r
                == Req::Spec {
                    target,
                    iters,
                    mitigation
                }),
            "the long jobs are one job"
        );
        let short = count(|r| matches!(r, Req::Sasm { .. } | Req::Lint { .. }));
        assert!(short > mix.len() / 2, "weighted toward short requests");
    }

    #[test]
    fn merged_bucket_median_spans_methods() {
        let text = "\
sas_serve_request_latency_us_bucket{method=\"rpc:lint\",le=\"255\"} 3
sas_serve_request_latency_us_bucket{method=\"rpc:lint\",le=\"511\"} 4
sas_serve_request_latency_us_bucket{method=\"rpc:lint\",le=\"+Inf\"} 4
sas_serve_request_latency_us_bucket{method=\"rpc:simulate\",le=\"255\"} 0
sas_serve_request_latency_us_bucket{method=\"rpc:simulate\",le=\"511\"} 0
sas_serve_request_latency_us_bucket{method=\"rpc:simulate\",le=\"1023\"} 4
sas_serve_request_latency_us_bucket{method=\"rpc:simulate\",le=\"+Inf\"} 4
sas_serve_rejected_total{reason=\"full\"} 2
sas_serve_rejected_total{reason=\"shed\"} 1
sas_serve_journal_bytes 900
";
        let s = Scrape::parse(text);
        // 8 requests, rank 4: three lint ≤255 µs, the fourth ≤511 µs.
        assert_eq!(s.handle_p50_ms(), 0.511);
        assert_eq!(s.sum("sas_serve_rejected_total"), 3.0);
        assert_eq!(s.get("sas_serve_journal_bytes"), 900.0);
    }
}
