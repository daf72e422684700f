//! `server_adhoc_sf001`: ad-hoc `ql` text over TCP against the
//! in-process `urel_server::serve`, at SF 0.01 (x = 0.1, z = 0.25).
//!
//! Two connections drive the server open loop at a fixed offered rate
//! of about half of what a 2-core box answers closed loop; latency is
//! timed from each request's due time, so a stall also charges the
//! requests queued behind it. Statements are the Q1–Q3 templates with
//! seeded literals (dates, market segment, nation pair) in the mode
//! split 80% `possible`, 10% `certain`, 10% `possible confidence 0.1`,
//! so nearly every statement misses the session plan cache.
//!
//! Chosen because here the server codec and admission, `ql`, translate
//! and optimizer, and the `certain` and confidence paths do their work,
//! while the executor does little. Some `certain` statements on the join
//! templates fail with a typed "enumeration too large" engine error;
//! they are counted in the error ratio, not filtered out.
//!
//! After the load, every statement is replayed in process through the
//! traced call chain (one chain per connection, mirroring the session's
//! plan cache) and the response bytes are compared with the TCP bytes.

use crate::chain::{Chain, ExecTotals};
use crate::trace::{self_times, Span, Tracer};
use crate::{median, nproc, percentile_ms, ratio, Args, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urel_core::translate::PreparedDb;
use urel_core::{UDatabase, UQuery};
use urel_relalg::value::date_to_days;
use urel_relalg::Value;
use urel_server::{err_response_for, render_answers, Client, Json, Request, Server, ServerConfig};
use urel_tpch::dict::{NATIONS, SEGMENTS};
use urel_tpch::GenParams;

const SCALE: f64 = 0.01;
const UNCERTAINTY: f64 = 0.1;
const CORRELATION: f64 = 0.25;
/// Offered load, requests per second over all connections.
const RATE: f64 = 300.0;
const CONNECTIONS: usize = 2;
/// Admission queue length (the server's default).
const MAX_QUEUE: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The run counts as overloaded when requests in the last tenth of the
/// schedule go out later than this (median), i.e. the backlog grew.
const OVERLOAD_LATE: Duration = Duration::from_millis(50);
/// Statements of an untraced run replayed in process and byte-checked.
const UNTRACED_REPLAY: usize = 4000;
/// World-0 containment checks per run (each costs one extra query).
const WORLD0_CHECKS: usize = 400;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Possible,
    Certain,
    Confidence,
}

struct Stmt {
    template: usize,
    mode: Mode,
    text: String,
    /// The request line sent for it; its index is the request id.
    line: String,
}

/// SplitMix64: a tiny seeded generator for the statement stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: i64) -> i64 {
        (self.next() % n as u64) as i64
    }
}

fn q1_text(segment: &str, order_after: i64, ship_before: i64) -> String {
    format!(
        "from customer | where c_mktsegment = '{segment}' \
         | join (from orders | where o_orderdate > {order_after}) on c_custkey = o_custkey \
         | join (from lineitem | where l_shipdate < {ship_before}) on o_orderkey = l_orderkey \
         | select o_orderkey, o_orderdate, o_shippriority"
    )
}

fn q2_text(ship_lo: i64, ship_hi: i64, disc_lo: i64, disc_hi: i64, qty: i64) -> String {
    format!(
        "from lineitem | where l_shipdate >= {ship_lo} and l_shipdate <= {ship_hi} \
         and l_discount >= {disc_lo} and l_discount <= {disc_hi} and l_quantity < {qty} \
         | select l_extendedprice"
    )
}

fn q3_text(supp_nation: &str, cust_nation: &str) -> String {
    format!(
        "from supplier | join lineitem on s_suppkey = l_suppkey \
         | join orders on o_orderkey = l_orderkey | join customer on c_custkey = o_custkey \
         | join (from nation as n1 | where n1.n_name = '{supp_nation}') on s_nationkey = n1.n_nationkey \
         | join (from nation as n2 | where n2.n_name = '{cust_nation}') on c_nationkey = n2.n_nationkey \
         | select n1.n_name, n2.n_name"
    )
}

/// The templates at the paper's literals (`urel_tpch::q1/q2/q3`).
fn paper_texts() -> [String; 3] {
    [
        q1_text(
            "BUILDING",
            date_to_days(1995, 3, 15),
            date_to_days(1995, 3, 17),
        ),
        q2_text(date_to_days(1994, 1, 1), date_to_days(1996, 1, 1), 5, 8, 24),
        q3_text("GERMANY", "IRAQ"),
    ]
}

/// The seeded statement stream.
fn statements(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = Rng(seed ^ 0x5157_4154_454D_454E);
    let (lo, hi) = (date_to_days(1992, 1, 1), date_to_days(1998, 8, 2));
    (0..n)
        .map(|id| {
            let (mode, clause) = match rng.below(10) {
                0 => (Mode::Certain, "certain"),
                1 => (Mode::Confidence, "possible confidence 0.1"),
                _ => (Mode::Possible, "possible"),
            };
            // `certain` only on the single-table template: on the join
            // templates it either fails (enumeration too large) or
            // enumerates for up to a second, so it would be an operation
            // that fails or a stall that overloads the schedule.
            let template = match mode {
                Mode::Certain => 1,
                _ => rng.below(3) as usize,
            };
            let base = match template {
                0 => {
                    let seg = SEGMENTS[rng.below(SEGMENTS.len() as i64) as usize];
                    let after = lo + rng.below(hi - lo);
                    q1_text(seg, after, after + 1 + rng.below(30))
                }
                1 => {
                    let from = lo + rng.below(hi - lo - 365);
                    let disc = rng.below(8);
                    q2_text(
                        from,
                        from + 365 + rng.below(366),
                        disc,
                        disc + 3,
                        10 + rng.below(31),
                    )
                }
                _ => {
                    let a = rng.below(NATIONS.len() as i64) as usize;
                    let b = (a + 1 + rng.below(NATIONS.len() as i64 - 1) as usize) % NATIONS.len();
                    q3_text(NATIONS[a].0, NATIONS[b].0)
                }
            };
            let text = format!("{base} | {clause}");
            Stmt {
                template,
                mode,
                line: request_line(id as i64, &text),
                text,
            }
        })
        .collect()
}

fn request_line(id: i64, text: &str) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::Str("query".to_string())),
        ("id".to_string(), Json::Int(id)),
        ("query".to_string(), Json::Str(text.to_string())),
    ])
    .render()
}

/// One request of the open loop. Times are offsets from the phase start.
struct Sent {
    idx: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    response: String,
}

/// Send `idxs` over one connection on the global schedule
/// `due = idx / RATE` (offset from `t0`), waiting for each response.
fn drive(
    client: &mut Client,
    stmts: &[Stmt],
    idxs: &[usize],
    first: usize,
    t0: Instant,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<Sent>> {
    let mut out = Vec::with_capacity(idxs.len());
    for &idx in idxs {
        let due = Duration::from_secs_f64((idx - first) as f64 / RATE);
        if let Some(wait) = (t0 + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = t0.elapsed();
        let response = tracer.span("client.round_trip", idx as u64, |_| {
            client.round_trip(&stmts[idx].line)
        })?;
        out.push(Sent {
            idx,
            due,
            sent,
            done: t0.elapsed(),
            response,
        });
    }
    Ok(out)
}

/// Run one open-loop phase over statements `range` on every connection.
fn open_loop(
    clients: &mut [Client],
    stmts: &[Stmt],
    range: std::ops::Range<usize>,
    traced: bool,
    origin: Instant,
) -> Result<(Vec<Sent>, Vec<Vec<Span>>), String> {
    let t0 = Instant::now();
    let results: Vec<std::io::Result<(Vec<Sent>, Vec<Span>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let idxs: Vec<usize> = range.clone().filter(|i| i % CONNECTIONS == c).collect();
                let first = range.start;
                s.spawn(move || {
                    let mut tracer = Tracer::new(traced, origin);
                    let sent = drive(client, stmts, &idxs, first, t0, &mut tracer)?;
                    Ok((sent, tracer.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (sent, sp) = r.map_err(|e| format!("client I/O: {e}"))?;
        all.extend(sent);
        spans.push(sp);
    }
    all.sort_by_key(|s| s.idx);
    Ok((all, spans))
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate: f64,
    encode: f64,
    warm: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate + self.encode + self.warm
    }
}

struct Live<'a> {
    udb: &'a Arc<UDatabase>,
    server: &'a Server,
    clients: &'a mut [Client],
    warm_responses: Vec<Vec<String>>,
}

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::from_env();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.max_concurrent = nproc().min(2);
    cfg.max_queue = MAX_QUEUE;
    cfg.deadline = None;
    cfg
}

/// Generate, serve (which encodes the catalog), connect and warm every
/// connection with the paper-literal statements, then hand the live
/// server to `f`. The server is shut down when this returns.
fn with_setup<R>(seed: u64, f: impl FnOnce(Live) -> R) -> Result<(SetupTimes, R), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut params = GenParams::paper(SCALE, UNCERTAINTY, CORRELATION);
    params.seed = seed;
    let udb = Arc::new(
        urel_tpch::generate(&params)
            .map_err(|e| format!("generation: {e}"))?
            .db,
    );
    times.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let server =
        urel_server::serve(Arc::clone(&udb), server_config()).map_err(|e| format!("serve: {e}"))?;
    times.encode = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let warm = (|| -> std::io::Result<(Vec<Client>, Vec<Vec<String>>)> {
        let mut clients = Vec::new();
        let mut responses = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut c = Client::connect(server.local_addr())?;
            let r = paper_texts()
                .iter()
                .enumerate()
                .map(|(k, text)| c.round_trip(&request_line(-(k as i64) - 1, text)))
                .collect::<std::io::Result<Vec<String>>>()?;
            clients.push(c);
            responses.push(r);
        }
        Ok((clients, responses))
    })();
    let (mut clients, warm_responses) = match warm {
        Ok(w) => w,
        Err(e) => {
            server.shutdown();
            return Err(format!("warm-up: {e}"));
        }
    };
    times.warm = t.elapsed().as_secs_f64();

    let r = f(Live {
        udb: &udb,
        server: &server,
        clients: &mut clients,
        warm_responses,
    });
    drop(clients);
    server.shutdown();
    Ok((times, r))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, &mut out) {
        out.problems.push(e);
    }
    out
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setups.push(with_setup(args.seed, |_| ())?.0);
    }
    let (last, measured) = with_setup(args.seed, |live| measure(args, live, out))?;
    setups.push(last);
    measured?;

    let med = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    out.e2e.insert("setup_s", med(SetupTimes::total));
    out.layer.insert("setup.generate_s", med(|s| s.generate));
    out.layer.insert("setup.encode_s", med(|s| s.encode));
    out.layer.insert("setup.disk_write_s", 0.0);
    out.layer.insert("setup.warm_s", med(|s| s.warm));
    out.record("setups", setups.len());
    Ok(())
}

/// Admission counters from the `stats` op.
fn admission(client: &mut Client) -> Result<[i64; 3], String> {
    let stats = client.stats().map_err(|e| format!("stats op: {e}"))?;
    let adm = stats
        .get("admission")
        .ok_or("stats response has no `admission`")?;
    let get = |k: &str| adm.get(k).and_then(Json::as_i64).unwrap_or(0);
    Ok([get("queued"), get("shed"), get("peak_in_flight")])
}

/// What a response says about its statement.
#[derive(PartialEq)]
enum Verdict {
    Ok,
    /// Typed engine error, shed or cancelled: counted in `error_ratio`.
    Refused {
        too_large: bool,
    },
}

fn verdict(response: &str) -> Result<Verdict, String> {
    let json = urel_server::json::parse(response).map_err(|e| format!("bad response JSON: {e}"))?;
    if json.get("ok").is_some_and(Json::is_true) {
        return Ok(Verdict::Ok);
    }
    let kind = json.get("kind").and_then(Json::as_str).unwrap_or("?");
    let error = json.get("error").and_then(Json::as_str).unwrap_or("?");
    match kind {
        "engine" | "shed" | "cancelled" => Ok(Verdict::Refused {
            too_large: error.contains("enumeration too large"),
        }),
        _ => Err(format!("protocol error ({kind}): {error}")),
    }
}

fn measure(args: &Args, live: Live, out: &mut Outcome) -> Result<(), String> {
    let udb: &UDatabase = live.udb;
    let catalog = udb.to_catalog();

    // The templates at the paper's literals answer exactly what the
    // library queries answer, in process and over TCP.
    let prepared = PreparedDb::with_catalog(udb, catalog.clone());
    let paper: [UQuery; 3] = [urel_tpch::q1(), urel_tpch::q2(), urel_tpch::q3()];
    for (k, text) in paper_texts().iter().enumerate() {
        let lowered = urel_ql::compile(text).map_err(|e| format!("paper Q{}: {e}", k + 1))?;
        let answers = urel_ql::execute(&prepared, &lowered).map_err(|e| e.to_string())?;
        let want = prepared.possible(&paper[k]).map_err(|e| e.to_string())?;
        let same = matches!(&answers, urel_ql::Answers::Plain { rel, .. } if *rel == want);
        out.check(same, || {
            format!(
                "ql Q{} at the paper's literals differs from urel_tpch::q{}",
                k + 1,
                k + 1
            )
        });
        let bytes = render_answers(Some(-(k as i64) - 1), &answers).render();
        for (c, responses) in live.warm_responses.iter().enumerate() {
            out.check(responses[k] == bytes, || {
                format!(
                    "connection {c}: TCP bytes of paper Q{} differ from render_answers",
                    k + 1
                )
            });
        }
    }
    drop(prepared);

    let halves = if args.trace { 2 } else { 1 };
    let per_phase = ((RATE * args.seconds / halves as f64).ceil() as usize).max(1);
    let stmts = statements(args.seed, per_phase * halves);

    let mut stats_client =
        Client::connect(live.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let before = admission(&mut stats_client)?;
    let origin = Instant::now();
    let (untraced, _) = open_loop(live.clients, &stmts, 0..per_phase, false, origin)?;
    let (traced, client_spans) = if args.trace {
        open_loop(live.clients, &stmts, per_phase..2 * per_phase, true, origin)?
    } else {
        (Vec::new(), Vec::new())
    };
    let after = admission(&mut stats_client)?;
    drop(stats_client);

    // End-to-end figures from the untraced phase.
    let summary = summarize(&untraced, &stmts, out);
    let refused = untraced.len() - summary.ok;
    out.e2e
        .insert("throughput_qps", summary.ok as f64 / summary.span_s);
    out.e2e.insert("p50_ms", summary.p50_ms);
    out.e2e.insert("p90_ms", summary.p90_ms);
    out.e2e.insert("p99_ms", summary.p99_ms);
    out.e2e.insert("q1_p50_ms", summary.template_p50_ms[0]);
    out.e2e.insert("q2_p50_ms", summary.template_p50_ms[1]);
    out.e2e.insert("q3_p50_ms", summary.template_p50_ms[2]);
    out.e2e
        .insert("ok_ratio", ratio(summary.ok, untraced.len()));
    out.e2e
        .insert("error_ratio", ratio(refused, untraced.len()));
    out.layer
        .insert("error_ratio", ratio(refused, untraced.len()));
    out.attempted = untraced.len();
    out.failed = refused;
    out.record("scale_factor", SCALE);
    out.record("uncertainty_x", UNCERTAINTY);
    out.record("correlation_z", CORRELATION);
    out.record("rows", udb.total_rows());
    out.record("user_bytes", udb.size_bytes());
    out.record("engine_threads", catalog.config().threads);
    out.record(
        "loop",
        format!(
            "open, {CONNECTIONS} connections, offered {RATE} req/s, admission {} slots + {MAX_QUEUE} queue",
            live.server.gate().max_concurrent()
        ),
    );
    out.record(
        "mix",
        "80% possible and 10% possible confidence 0.1 over Q1/Q2/Q3 uniform; 10% certain on Q2",
    );
    out.record("samples", untraced.len());
    out.record("refused (typed engine errors, shed, cancelled)", refused);
    out.record("loadgen_late_p99_ms", summary.late_p99_ms);
    out.record(
        "latencies",
        if summary.overloaded {
            "OVERLOADED: completions fell behind the offered schedule; not steady-state"
        } else {
            "steady-state (completions kept up with the offered schedule)"
        },
    );

    // Replay in process, per connection and in send order (warm-up
    // first), so each chain's plan cache sees what its session's cache
    // saw; only the traced phase is traced.
    let world0_db = {
        let mut params = GenParams::paper(SCALE, 0.0, CORRELATION);
        params.seed = args.seed;
        urel_tpch::generate(&params)
            .map_err(|e| format!("generation (x = 0): {e}"))?
            .db
    };
    let world0 = world0_db.prepare();
    let mut chains: Vec<Chain> = (0..CONNECTIONS)
        .map(|_| Chain::new(udb, &catalog))
        .collect();
    let mut cold = Tracer::new(false, origin);
    for chain in chains.iter_mut() {
        for (k, text) in paper_texts().iter().enumerate() {
            chain
                .ql(&mut cold, 0, text)
                .map_err(|e| format!("replay of paper Q{}: {e}", k + 1))?;
        }
    }
    let mut checks = 0;
    // Untraced runs byte-check a prefix of the load to bound run time;
    // traced runs replay all of it, so that the chains' caches match the
    // sessions' caches when the traced phase starts.
    let limit = if args.trace {
        untraced.len()
    } else {
        UNTRACED_REPLAY
    };
    let prefix = &untraced[..limit.min(untraced.len())];
    replay_phase(
        prefix,
        &stmts,
        &mut chains,
        &mut cold,
        &world0,
        &mut checks,
        out,
    )?;
    out.record("replayed_statements", prefix.len());
    out.record("world0_checks", checks);
    if !args.trace {
        return Ok(());
    }

    for chain in chains.iter_mut() {
        chain.reset_counters();
    }
    let mut tracer = Tracer::new(true, origin);
    let r = replay_phase(
        &traced,
        &stmts,
        &mut chains,
        &mut tracer,
        &world0,
        &mut checks,
        out,
    )?;
    let tsum = summarize(&traced, &stmts, out);
    let n = traced.len().max(1) as f64;
    let spans = tracer.into_spans();
    let self_ns = self_times(&spans);
    let total = |name: &str| self_ns.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let mut exec = ExecTotals::default();
    let (mut lookups, mut hits) = (0, 0);
    for c in &chains {
        exec.merge(&c.exec);
        lookups += c.lookups;
        hits += c.hits;
    }
    let per_exec = |x: usize| ratio(x, exec.executions);
    let mut service: Vec<Duration> = traced.iter().map(|s| s.done - s.sent).collect();
    service.sort();
    let mut replay_times = r.times;
    replay_times.sort();
    let distinct: std::collections::HashSet<&str> =
        traced.iter().map(|s| stmts[s.idx].text.as_str()).collect();
    let l = &mut out.layer;
    l.insert("exec.prepare_ms", total("exec.prepare") / 1e6 / n);
    l.insert("exec.pull_ms", total("exec.pull") / 1e6 / n);
    l.insert("decode.ms", total("decode") / 1e6 / n);
    l.insert("ql.parse_us", total("ql.parse") / 1e3 / n);
    l.insert("ql.lower_us", total("ql.lower") / 1e3 / n);
    l.insert("translate.us", total("translate") / 1e3 / n);
    l.insert("optimizer.us", total("optimizer") / 1e3 / n);
    l.insert("server.decode_us", total("server.decode") / 1e3 / n);
    l.insert("server.render_us", total("server.render") / 1e3 / n);
    l.insert(
        "certain.ms",
        total("certain") / 1e6 / r.certain.max(1) as f64,
    );
    l.insert("prob.ms", total("prob") / 1e6 / r.confidence.max(1) as f64);
    l.insert("certain.too_large_ratio", ratio(r.too_large, r.certain));
    l.insert("exec.build_rows", per_exec(exec.build_rows));
    l.insert("exec.buffers", per_exec(exec.buffers));
    l.insert("exec.batches", per_exec(exec.batches));
    l.insert("exec.batch_fill", ratio(exec.batch_rows, exec.batches));
    l.insert("exec.rows_out", per_exec(exec.rows_out));
    l.insert("pool.workers", per_exec(exec.workers));
    l.insert("pool.planned_workers", per_exec(exec.planned_workers));
    l.insert("plan_cache.hit_ratio", ratio(hits, lookups));
    l.insert(
        "server.overhead_ms",
        percentile_ms(&service, 0.5) - percentile_ms(&replay_times, 0.5),
    );
    l.insert("admission.queued", (after[0] - before[0]) as f64);
    l.insert("admission.shed", (after[1] - before[1]) as f64);
    l.insert("admission.peak_in_flight", after[2] as f64);
    l.insert("loadgen.late_p99_ms", tsum.late_p99_ms);
    l.insert(
        "loadgen.distinct_ratio",
        ratio(distinct.len(), traced.len()),
    );
    l.insert("loadgen.overloaded", f64::from(u8::from(tsum.overloaded)));
    l.insert("trace.overhead_p50_ms", tsum.p50_ms - summary.p50_ms);
    out.record("traced_samples", traced.len());
    out.record("untraced_p50_ms", summary.p50_ms);
    out.record("traced_p50_ms", tsum.p50_ms);
    out.spans.extend(client_spans);
    out.spans.push(spans);
    Ok(())
}

/// What the in-process replay of one phase saw.
#[derive(Default)]
struct Replayed {
    /// In-process time per statement.
    times: Vec<Duration>,
    certain: usize,
    too_large: usize,
    confidence: usize,
}

/// Replay `phase` in process and check every response byte for byte;
/// check answers against world 0 until `checks` reaches the cap.
fn replay_phase(
    phase: &[Sent],
    stmts: &[Stmt],
    chains: &mut [Chain],
    t: &mut Tracer,
    world0: &PreparedDb,
    checks: &mut usize,
    out: &mut Outcome,
) -> Result<Replayed, String> {
    let mut r = Replayed::default();
    for s in phase {
        let stmt = &stmts[s.idx];
        let started = Instant::now();
        let (bytes, answers) = replay(t, &mut chains[s.idx % CONNECTIONS], s.idx, &stmt.line)?;
        r.times.push(started.elapsed());
        match stmt.mode {
            Mode::Certain => {
                r.certain += 1;
                r.too_large += usize::from(matches!(
                    verdict(&bytes),
                    Ok(Verdict::Refused { too_large: true })
                ));
            }
            Mode::Confidence => r.confidence += 1,
            Mode::Possible => {}
        }
        out.check(bytes == s.response, || {
            format!(
                "statement {}: TCP response differs from in-process render_answers\n  tcp:  {:.200}\n  here: {:.200}",
                s.idx, s.response, bytes
            )
        });
        if let Some(answers) = answers {
            if *checks < WORLD0_CHECKS {
                *checks += 1;
                check_world0(world0, stmt, &answers, s.idx, out);
            }
        }
    }
    Ok(r)
}

/// Replay one request line in process: decode, run the chain, render.
/// Returns the response bytes and, for answered statements, the answers.
fn replay(
    t: &mut Tracer,
    chain: &mut Chain,
    idx: usize,
    line: &str,
) -> Result<(String, Option<urel_ql::Answers>), String> {
    let req = idx as u64;
    t.span("request", req, |t| {
        let request = t.span("server.decode", req, |_| Request::decode(line));
        let Ok(Request::Query { id, text }) = request else {
            return Err(format!(
                "statement {idx}: request line does not decode as a query"
            ));
        };
        let result = chain.ql(t, req, &text);
        Ok(t.span("server.render", req, |_| match result {
            Ok(answers) => (render_answers(id, &answers).render(), Some(answers)),
            Err(e) => (err_response_for(id, &e).render(), None),
        }))
    })
}

struct Summary {
    ok: usize,
    span_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    template_p50_ms: [f64; 3],
    late_p99_ms: f64,
    overloaded: bool,
}

/// Latency from due time over every answered request (a typed error is
/// an answer the caller waited for too); per-template figures cover the
/// `possible` statements only, so each compares one operation. Protocol
/// errors fail the run.
fn summarize(phase: &[Sent], stmts: &[Stmt], out: &mut Outcome) -> Summary {
    let mut ok = 0;
    let mut all = Vec::with_capacity(phase.len());
    let mut per_template: [Vec<Duration>; 3] = Default::default();
    for s in phase {
        match verdict(&s.response) {
            Ok(v) => ok += usize::from(v == Verdict::Ok),
            Err(e) => out.check(false, || format!("statement {}: {e}", s.idx)),
        }
        let lat = s.done - s.due;
        all.push(lat);
        let stmt = &stmts[s.idx];
        if stmt.mode == Mode::Possible {
            per_template[stmt.template].push(lat);
        }
    }
    all.sort();
    for v in per_template.iter_mut() {
        v.sort();
    }
    let mut late: Vec<Duration> = phase.iter().map(|s| s.sent.saturating_sub(s.due)).collect();
    let tail_late = median(
        late[late.len() - late.len() / 10..]
            .iter()
            .map(Duration::as_secs_f64)
            .collect(),
    );
    late.sort();
    let first_due = phase.first().map_or(Duration::ZERO, |s| s.due);
    let last_done = phase.iter().map(|s| s.done).max().unwrap_or(Duration::ZERO);
    Summary {
        ok,
        span_s: (last_done - first_due).as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&all, 0.5),
        p90_ms: percentile_ms(&all, 0.9),
        p99_ms: percentile_ms(&all, 0.99),
        template_p50_ms: [0, 1, 2].map(|k| percentile_ms(&per_template[k], 0.5)),
        late_p99_ms: percentile_ms(&late, 0.99),
        overloaded: tail_late > OVERLOAD_LATE.as_secs_f64(),
    }
}

/// `world0` is the one-world (x = 0) database of the same seed, i.e.
/// world 0 of the uncertain one: possible answers must contain its
/// answers, and certain answers must be among them.
fn check_world0(
    world0: &PreparedDb,
    stmt: &Stmt,
    answers: &urel_ql::Answers,
    idx: usize,
    out: &mut Outcome,
) {
    let mut rows: Vec<Vec<Value>> = match answers {
        urel_ql::Answers::Plain { rel, .. } => rel.rows().iter().map(|r| r.to_vec()).collect(),
        urel_ql::Answers::WithConfidence { rows } => {
            let bad = rows
                .iter()
                .filter(|(_, p)| !(0.0..=1.0).contains(p))
                .count();
            out.check(bad == 0, || {
                format!("statement {idx}: {bad} confidences outside [0, 1]")
            });
            rows.iter().map(|(t, _)| t.clone()).collect()
        }
    };
    rows.sort();
    let in_world0 = match urel_ql::compile(&stmt.text)
        .map_err(|e| e.to_string())
        .and_then(|l| world0.possible(&l.query).map_err(|e| e.to_string()))
    {
        Ok(rel) => rel,
        Err(e) => {
            out.check(false, || format!("statement {idx} on world 0: {e}"));
            return;
        }
    };
    let w0: Vec<&[Value]> = in_world0.rows().iter().map(|r| r.as_ref()).collect();
    let within =
        |small: &[&[Value]], big: &[&[Value]]| small.iter().all(|r| big.binary_search(r).is_ok());
    let mine: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
    let ok = match stmt.mode {
        Mode::Certain => within(&mine, &w0),
        Mode::Possible | Mode::Confidence => within(&w0, &mine),
    };
    out.check(ok, || {
        format!(
            "statement {idx} ({:?}): answers disagree with world 0 ({} answers, {} in world 0)",
            stmt.mode,
            rows.len(),
            w0.len()
        )
    });
}
