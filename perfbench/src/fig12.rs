//! `fig12_sf1` and `fig12_sf1_ooc`: the paper's Figure-12 queries
//! (`urel_tpch::q1/q2/q3`, round robin) at SF 1, x = 0.1, z = 0.25,
//! through `PreparedDb::possible_with_stats` with a warm plan cache,
//! closed loop, one caller.
//!
//! `fig12_sf1` keeps base tables in plain memory with two engine
//! threads. It was chosen because executor prepare (hash-join builds)
//! and pull are nearly all of each statement's time here, while
//! translation and optimization are cached away and storage, spill,
//! server and `ql` do no work: executor and thread-pool gains show here.
//!
//! `fig12_sf1_ooc` runs the same statements over the same data under
//! `StorageMode::Disk` with a 4-segment buffer pool, a 4 MiB breaker
//! budget and one thread. It was chosen as the larger-than-cache twin:
//! a query touches more segments than the pool holds, so every query
//! misses, and its breakers outgrow the budget, so every query spills.
//! The store, segment, provider and spill layers do their work here and
//! nowhere else.

use crate::chain::Chain;
use crate::trace::{self_times, Tracer};
use crate::{median, nproc, percentile_ms, ratio, Args, Outcome};
use std::time::{Duration, Instant};
use urel_core::translate::PreparedDb;
use urel_core::{UDatabase, UQuery};
use urel_relalg::{Catalog, ExecStats, Relation, StorageMode};
use urel_tpch::GenParams;

/// Decoded segments the out-of-core buffer pool holds.
pub const OOC_POOL_SEGMENTS: usize = 4;
/// Breaker memory budget out of core.
const OOC_MEM_BUDGET: usize = 4 << 20;
const SCALE: f64 = 1.0;
const UNCERTAINTY: f64 = 0.1;
const CORRELATION: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn templates() -> [UQuery; 3] {
    [urel_tpch::q1(), urel_tpch::q2(), urel_tpch::q3()]
}

fn gen_params(seed: u64, uncertainty: f64) -> GenParams {
    let mut p = GenParams::paper(SCALE, uncertainty, CORRELATION);
    p.seed = seed;
    p
}

fn configure(catalog: &mut Catalog, ooc: bool) {
    if ooc {
        catalog.set_threads(1);
        catalog.set_storage(StorageMode::Disk);
        catalog.set_buffer_pool(OOC_POOL_SEGMENTS);
        catalog.set_mem_budget(OOC_MEM_BUDGET);
    } else {
        catalog.set_threads(nproc().min(2));
        catalog.set_storage(StorageMode::Plain);
        catalog.set_mem_budget(usize::MAX);
    }
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate: f64,
    encode: f64,
    disk_write: f64,
    warm: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate + self.encode + self.disk_write + self.warm
    }
}

/// Generate, encode, write to disk (out of core) and warm the plan
/// cache, then hand the prepared database to `f`. Everything is dropped
/// when this returns.
fn with_setup<R>(
    seed: u64,
    ooc: bool,
    f: impl FnOnce(&UDatabase, &PreparedDb) -> R,
) -> Result<(SetupTimes, R), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let udb = urel_tpch::generate(&gen_params(seed, UNCERTAINTY))
        .map_err(|e| format!("generation: {e}"))?
        .db;
    times.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut catalog = udb.to_catalog();
    configure(&mut catalog, ooc);
    times.encode = t.elapsed().as_secs_f64();

    if ooc {
        let t = Instant::now();
        let seg_rows = catalog.config().segment_rows;
        for (name, rel) in catalog.iter() {
            rel.disk_image(seg_rows)
                .map_err(|e| format!("disk write of {name}: {e}"))?;
        }
        times.disk_write = t.elapsed().as_secs_f64();
    }

    let prepared = PreparedDb::with_catalog(&udb, catalog);
    let t = Instant::now();
    for q in templates() {
        prepared
            .possible_with_stats(&q)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    times.warm = t.elapsed().as_secs_f64();
    Ok((times, f(&udb, &prepared)))
}

/// Latencies of one closed-loop phase, per template, plus the largest
/// working set a statement needed.
#[derive(Default)]
struct Phase {
    per_template: [Vec<Duration>; 3],
    attempted: usize,
    failed: usize,
    elapsed: f64,
    max_segments: usize,
    max_breaker_bytes: usize,
    spill_events: usize,
}

impl Phase {
    fn all_sorted(&self) -> Vec<Duration> {
        let mut all: Vec<Duration> = self.per_template.concat();
        all.sort();
        all
    }

    fn p50_ms(&self) -> f64 {
        percentile_ms(&self.all_sorted(), 0.5)
    }
}

/// Round-robin closed loop for `secs`: `run(i, template)` executes one
/// statement and returns its answer and execution statistics.
fn closed_loop(
    secs: f64,
    out: &mut Outcome,
    reference: &[Relation],
    mut run: impl FnMut(u64, usize) -> Result<(Relation, ExecStats), String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        let k = (i % 3) as usize;
        let t = Instant::now();
        let answer = run(i, k);
        let lat = t.elapsed();
        phase.attempted += 1;
        match answer {
            Ok((rel, stats)) => {
                phase.per_template[k].push(lat);
                phase.max_segments = phase.max_segments.max(stats.segments_scanned);
                phase.max_breaker_bytes = phase.max_breaker_bytes.max(stats.peak_tracked_bytes);
                phase.spill_events += stats.spill_events;
                out.check(rel == reference[k], || {
                    format!(
                        "statement {i} (Q{}) answered {} rows, reference has {}",
                        k + 1,
                        rel.len(),
                        reference[k].len()
                    )
                });
            }
            Err(e) => {
                phase.failed += 1;
                out.check(false, || format!("statement {i} (Q{}) failed: {e}", k + 1));
            }
        }
        i += 1;
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase
}

pub fn run(args: &Args, ooc: bool) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(args, ooc, &mut out) {
        Ok(()) => {}
        Err(e) => out.problems.push(e),
    }
    out
}

fn run_inner(args: &Args, ooc: bool, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setups.push(with_setup(args.seed, ooc, |_, _| ())?.0);
    }
    let (last, reference) = with_setup(args.seed, ooc, |udb, prepared| {
        measure(args, ooc, udb, prepared, out)
    })?;
    setups.push(last);
    let reference = reference?;

    // Semantic check, independent of the engine configuration under
    // test: world 0 of the generated database is the one-world dbgen
    // database (x = 0), so its answers must be among the possible ones.
    let certain_db = urel_tpch::generate(&gen_params(args.seed, 0.0))
        .map_err(|e| format!("generation (x = 0): {e}"))?
        .db;
    let world0 = certain_db.prepare();
    for (k, q) in templates().iter().enumerate() {
        let rows = world0
            .possible(q)
            .map_err(|e| format!("Q{} on world 0: {e}", k + 1))?;
        let missing = rows
            .rows()
            .iter()
            .filter(|r| reference[k].rows().binary_search(r).is_err())
            .count();
        out.check(missing == 0, || {
            format!(
                "Q{}: {missing} of {} world-0 answers are not possible answers",
                k + 1,
                rows.len()
            )
        });
    }

    let med = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    out.e2e.insert("setup_s", med(SetupTimes::total));
    out.layer.insert("setup.generate_s", med(|s| s.generate));
    out.layer.insert("setup.encode_s", med(|s| s.encode));
    out.layer
        .insert("setup.disk_write_s", med(|s| s.disk_write));
    out.layer.insert("setup.warm_s", med(|s| s.warm));
    out.record("setups", setups.len());
    Ok(())
}

/// The measured phases, run against the last set-up. Returns the
/// reference answers for the world-0 check.
fn measure(
    args: &Args,
    ooc: bool,
    udb: &UDatabase,
    prepared: &PreparedDb,
    out: &mut Outcome,
) -> Result<Vec<Relation>, String> {
    let templates = templates();
    let catalog = prepared.catalog();
    let cfg = *catalog.config();

    // Reference answers: the layer-by-layer call chain (not
    // `PreparedDb`) over plain storage, one thread, no budget. Every
    // measured answer must be byte-identical to these.
    let mut plain = catalog.clone();
    plain.set_storage(StorageMode::Plain);
    plain.set_threads(1);
    plain.set_mem_budget(usize::MAX);
    let mut reference_chain = Chain::new(udb, &plain);
    let mut cold = Tracer::new(false, Instant::now());
    let reference: Vec<Relation> = templates
        .iter()
        .map(|q| {
            reference_chain
                .possible(&mut cold, 0, q)
                .map(|(rel, _)| rel)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference run: {e}"))?;
    drop(reference_chain);

    let user_bytes = udb.size_bytes();
    out.record("scale_factor", SCALE);
    out.record("uncertainty_x", UNCERTAINTY);
    out.record("correlation_z", CORRELATION);
    out.record("rows", udb.total_rows());
    out.record("user_bytes", user_bytes);
    out.record("engine_threads", cfg.threads);
    out.record("storage", format!("{:?}", cfg.storage));
    out.record(
        "answer_rows_q1_q2_q3",
        format!(
            "{}/{}/{}",
            reference[0].len(),
            reference[1].len(),
            reference[2].len()
        ),
    );
    if ooc {
        let disk_bytes = crate::scratch_bytes("urel-disk-");
        out.record("disk_bytes", disk_bytes);
        out.layer.insert(
            "store.disk_bytes_per_user_byte",
            ratio(disk_bytes as usize, user_bytes),
        );
    }
    out.record("loop", "closed, one caller, Q1/Q2/Q3 round robin");

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = closed_loop(untraced_secs, out, &reference, |_, k| {
        prepared
            .possible_with_stats(&templates[k])
            .map_err(|e| e.to_string())
    });

    let all = untraced.all_sorted();
    let p = |k: usize| {
        let mut v = untraced.per_template[k].clone();
        v.sort();
        percentile_ms(&v, 0.5)
    };
    let ok = untraced.attempted - untraced.failed;
    out.e2e
        .insert("throughput_qps", ok as f64 / untraced.elapsed);
    out.e2e.insert("p50_ms", percentile_ms(&all, 0.5));
    out.e2e.insert("p90_ms", percentile_ms(&all, 0.9));
    out.e2e.insert("p99_ms", percentile_ms(&all, 0.99));
    out.e2e.insert("q1_p50_ms", p(0));
    out.e2e.insert("q2_p50_ms", p(1));
    out.e2e.insert("q3_p50_ms", p(2));
    out.e2e.insert("ok_ratio", ratio(ok, untraced.attempted));
    let error_ratio = ratio(untraced.failed, untraced.attempted);
    out.e2e.insert("error_ratio", error_ratio);
    out.layer.insert("error_ratio", error_ratio);
    out.record("samples", untraced.attempted);
    out.record(
        "working_set",
        if ooc {
            format!(
                "up to {} segments of {} rows per statement vs a pool of {}; breaker peak {} bytes vs a budget of {} ({:.1} spills per statement)",
                untraced.max_segments,
                cfg.segment_rows,
                cfg.buffer_pool,
                untraced.max_breaker_bytes,
                cfg.mem_budget,
                ratio(untraced.spill_events, untraced.attempted)
            )
        } else {
            "all base tables in memory; breakers unbounded".to_string()
        },
    );
    out.attempted = untraced.attempted;
    out.failed = untraced.failed;

    if args.trace {
        let origin = Instant::now();
        let mut tracer = Tracer::new(true, origin);
        let mut chain = Chain::new(udb, catalog);
        // Warm the chain's own plan cache untraced, as set-up warmed
        // `PreparedDb`'s, then count only the measured statements.
        for (k, q) in templates.iter().enumerate() {
            let (rel, _) = chain
                .possible(&mut cold, 0, q)
                .map_err(|e| format!("chain warm-up: {e}"))?;
            out.check(rel == reference[k], || {
                format!(
                    "chain answer for Q{} under the measured configuration differs from the reference",
                    k + 1
                )
            });
        }
        chain.reset_counters();
        let traced = closed_loop(args.seconds / 2.0, out, &reference, |i, k| {
            tracer.span("statement", i, |t| {
                chain
                    .possible(t, i, &templates[k])
                    .map_err(|e| e.to_string())
            })
        });
        let spans = tracer.into_spans();
        let n = traced.attempted.max(1) as f64;
        let self_ns = self_times(&spans);
        let mean = |name: &str, unit_ns: f64| {
            self_ns
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / unit_ns / n)
        };
        let e = &chain.exec;
        let per_exec = |x: usize| ratio(x, e.executions);
        let l = &mut out.layer;
        l.insert("exec.prepare_ms", mean("exec.prepare", 1e6));
        l.insert("exec.pull_ms", mean("exec.pull", 1e6));
        l.insert("decode.ms", mean("decode", 1e6));
        l.insert("translate.us", mean("translate", 1e3));
        l.insert("optimizer.us", mean("optimizer", 1e3));
        l.insert("exec.build_rows", per_exec(e.build_rows));
        l.insert("exec.buffers", per_exec(e.buffers));
        l.insert("exec.batches", per_exec(e.batches));
        l.insert("exec.batch_fill", ratio(e.batch_rows, e.batches));
        l.insert("exec.rows_out", per_exec(e.rows_out));
        l.insert("pool.workers", per_exec(e.workers));
        l.insert("pool.planned_workers", per_exec(e.planned_workers));
        l.insert("store.pages_read", per_exec(e.pages_read));
        l.insert(
            "store.pool_hit_ratio",
            ratio(e.pool_hits, e.pool_hits + e.pool_misses),
        );
        l.insert("store.decoded_bytes", per_exec(e.decoded_bytes));
        l.insert("segment.scanned", per_exec(e.segments_scanned));
        l.insert("segment.skipped", per_exec(e.segments_skipped));
        l.insert("spill.events", per_exec(e.spill_events));
        l.insert("spill.bytes", per_exec(e.spilled_bytes));
        l.insert("spill.peak_tracked_bytes", e.peak_tracked_bytes as f64);
        l.insert("plan_cache.hit_ratio", ratio(chain.hits, chain.lookups));
        l.insert("trace.overhead_p50_ms", traced.p50_ms() - untraced.p50_ms());
        out.record("traced_samples", traced.attempted);
        out.record("untraced_p50_ms", untraced.p50_ms());
        out.record("traced_p50_ms", traced.p50_ms());
        out.spans.push(spans);
    }
    Ok(reference)
}
