//! The traced call chain: the steps `PreparedDb` and `urel_ql::execute`
//! take, called one layer at a time from here so that each layer gets a
//! span of its own. The answers must equal what `PreparedDb` returns;
//! the workloads check that.

use crate::trace::Tracer;
use std::sync::Arc;
use urel_core::certain::{certain_lemma43, CERTAIN_EXPANSION_CAP};
use urel_core::normalize::normalize_urelations;
use urel_core::prob::{tuple_confidences_with, ConfidenceMethod};
use urel_core::translate::{translate_with, TranslateOptions};
use urel_core::worldops::expand_answers;
use urel_core::{Error, UDatabase, UQuery, URelation};
use urel_ql::{Answers, QueryMode};
use urel_relalg::{exec, optimizer, Catalog, ExecStats, Plan, Relation, Value};

/// `PreparedDb`'s plan-cache capacity; the chain's cache mirrors its
/// policy (linear lookup, cleared when full) so hit ratios match.
const PLAN_CACHE_CAP: usize = 64;

struct Planned {
    plan: Plan,
    desc_arity: usize,
    tid_count: usize,
}

/// Executor counters summed over every execution of the chain.
#[derive(Default, Clone, Debug)]
pub struct ExecTotals {
    pub executions: usize,
    /// Rows copied into breaker buffers while preparing (hash-join builds).
    pub build_rows: usize,
    pub buffers: usize,
    pub batches: usize,
    pub batch_rows: usize,
    pub rows_out: usize,
    pub workers: usize,
    pub planned_workers: usize,
    pub spill_events: usize,
    pub spilled_bytes: usize,
    pub peak_tracked_bytes: usize,
    pub pages_read: usize,
    pub pool_hits: usize,
    pub pool_misses: usize,
    pub decoded_bytes: usize,
    pub segments_scanned: usize,
    pub segments_skipped: usize,
}

impl ExecTotals {
    fn add(&mut self, built: &ExecStats, s: &ExecStats, planned_workers: usize, rows_out: usize) {
        self.executions += 1;
        self.build_rows += built.buffered_rows;
        self.buffers += s.buffers;
        self.batches += s.batches;
        self.batch_rows += s.batch_rows;
        self.rows_out += rows_out;
        self.workers += s.workers;
        self.planned_workers += planned_workers;
        self.spill_events += s.spill_events;
        self.spilled_bytes += s.spilled_bytes;
        self.peak_tracked_bytes = self.peak_tracked_bytes.max(s.peak_tracked_bytes);
        self.pages_read += s.pages_read;
        self.pool_hits += s.pool_hits;
        self.pool_misses += s.pool_misses;
        self.decoded_bytes += s.decoded_bytes;
        self.segments_scanned += s.segments_scanned;
        self.segments_skipped += s.segments_skipped;
    }

    /// Fold another chain's totals into these.
    pub fn merge(&mut self, o: &ExecTotals) {
        self.executions += o.executions;
        self.build_rows += o.build_rows;
        self.buffers += o.buffers;
        self.batches += o.batches;
        self.batch_rows += o.batch_rows;
        self.rows_out += o.rows_out;
        self.workers += o.workers;
        self.planned_workers += o.planned_workers;
        self.spill_events += o.spill_events;
        self.spilled_bytes += o.spilled_bytes;
        self.peak_tracked_bytes = self.peak_tracked_bytes.max(o.peak_tracked_bytes);
        self.pages_read += o.pages_read;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.decoded_bytes += o.decoded_bytes;
        self.segments_scanned += o.segments_scanned;
        self.segments_skipped += o.segments_skipped;
    }
}

/// One session's worth of chain state: the catalog it runs against and
/// its plan cache.
pub struct Chain<'a> {
    udb: &'a UDatabase,
    catalog: &'a Catalog,
    plans: Vec<(UQuery, Arc<Planned>)>,
    pub lookups: usize,
    pub hits: usize,
    pub exec: ExecTotals,
}

impl<'a> Chain<'a> {
    pub fn new(udb: &'a UDatabase, catalog: &'a Catalog) -> Chain<'a> {
        Chain {
            udb,
            catalog,
            plans: Vec::new(),
            lookups: 0,
            hits: 0,
            exec: ExecTotals::default(),
        }
    }

    /// Zero the counters (the plan cache stays warm).
    pub fn reset_counters(&mut self) {
        self.lookups = 0;
        self.hits = 0;
        self.exec = ExecTotals::default();
    }

    fn plan_for(&mut self, t: &mut Tracer, req: u64, q: &UQuery) -> Result<Arc<Planned>, Error> {
        self.lookups += 1;
        if let Some((_, p)) = self.plans.iter().find(|(k, _)| k == q) {
            self.hits += 1;
            return Ok(Arc::clone(p));
        }
        let udb = self.udb;
        let catalog = self.catalog;
        let tp = t.span("translate", req, |_| {
            translate_with(udb, q, TranslateOptions::default())
        })?;
        let plan = t.span("optimizer", req, |_| optimizer::optimize(&tp.plan, catalog))?;
        let planned = Arc::new(Planned {
            plan,
            desc_arity: tp.desc_arity(),
            tid_count: tp.tid_cols.len(),
        });
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.clear();
        }
        self.plans.push((q.clone(), Arc::clone(&planned)));
        Ok(planned)
    }

    /// Translate (cached), prepare, pull and decode: `PreparedDb::evaluate`.
    fn evaluate(
        &mut self,
        t: &mut Tracer,
        req: u64,
        q: &UQuery,
    ) -> Result<(URelation, ExecStats), Error> {
        let p = self.plan_for(t, req, q)?;
        let catalog = self.catalog;
        let streamed = t.span("exec.prepare", req, |_| exec::stream(&p.plan, catalog))?;
        let built = streamed.stats();
        let planned_workers = streamed.planned_workers();
        let (rel, stats) = t.span("exec.pull", req, |_| streamed.into_relation())?;
        self.exec.add(&built, &stats, planned_workers, rel.len());
        let u = t.span("decode", req, |_| {
            URelation::decode("result", &rel, p.desc_arity, p.tid_count)
        })?;
        Ok((u, stats))
    }

    /// `PreparedDb::possible_with_stats`.
    pub fn possible(
        &mut self,
        t: &mut Tracer,
        req: u64,
        q: &UQuery,
    ) -> Result<(Relation, ExecStats), Error> {
        let wrapped = match q {
            UQuery::Poss { .. } => q.clone(),
            _ => q.clone().poss(),
        };
        let (u, stats) = self.evaluate(t, req, &wrapped)?;
        let rel = t.span("decode", req, |_| u.possible_tuples());
        Ok((rel, stats))
    }

    /// `PreparedDb::certain`: normalize the result (Algorithm 1), then
    /// Lemma 4.3 — or exact world expansion on partial or-set fields.
    pub fn certain(&mut self, t: &mut Tracer, req: u64, q: &UQuery) -> Result<Relation, Error> {
        let udb = self.udb;
        if t.span("certain", req, |_| udb.has_partial_fields())? {
            let expanded = t.span("certain", req, |_| {
                expand_answers(udb, q, CERTAIN_EXPANSION_CAP)
            });
            return expanded.map(|(_, certain)| certain).map_err(|e| match e {
                Error::TooLarge(msg) => Error::TooLarge(format!(
                    "`certain` on a database with partial or-set fields needs exact world \
                     expansion: {msg}"
                )),
                other => other,
            });
        }
        let (u, _) = self.evaluate(t, req, q)?;
        let normalized = t.span("certain", req, |_| normalize_urelations(&[&u], &udb.world))?;
        t.span("certain", req, |_| {
            certain_lemma43(&normalized.relations[0], &normalized.world)
        })
    }

    /// `PreparedDb::possible_with_confidence` with the Monte-Carlo method
    /// `urel_ql::execute` derives from `confidence ε`.
    pub fn confidence(
        &mut self,
        t: &mut Tracer,
        req: u64,
        q: &UQuery,
        eps: f64,
    ) -> Result<Vec<(Vec<Value>, f64)>, Error> {
        let inner = match q {
            UQuery::Poss { input } => input.as_ref(),
            _ => q,
        };
        let (u, _) = self.evaluate(t, req, inner)?;
        let world = &self.udb.world;
        t.span("prob", req, |_| {
            tuple_confidences_with(&u, world, monte_carlo(eps))
        })
    }

    /// Parse, lower and run one `ql` statement: `urel_ql::compile` +
    /// `urel_ql::execute`.
    pub fn ql(&mut self, t: &mut Tracer, req: u64, text: &str) -> Result<Answers, urel_ql::Error> {
        let stmt = t.span("ql.parse", req, |_| urel_ql::parse(text))?;
        let lowered = t.span("ql.lower", req, |_| urel_ql::lower(&stmt))?;
        let q = &lowered.query;
        Ok(match lowered.mode {
            QueryMode::Possible { confidence: None } => {
                let (rel, stats) = self.possible(t, req, q)?;
                Answers::Plain { rel, stats }
            }
            QueryMode::Certain { confidence: None } => Answers::Plain {
                rel: self.certain(t, req, q)?,
                stats: ExecStats::default(),
            },
            QueryMode::Possible {
                confidence: Some(eps),
            } => Answers::WithConfidence {
                rows: self.confidence(t, req, q, eps)?,
            },
            QueryMode::Certain {
                confidence: Some(_),
            } => {
                unreachable!("the statement mix has no `certain confidence`")
            }
        })
    }
}

/// The Monte-Carlo estimator `urel_ql::execute` uses for `confidence ε`:
/// Hoeffding sample count for half-width ε at δ = 10⁻⁶, fixed seed.
fn monte_carlo(eps: f64) -> ConfidenceMethod {
    const DELTA: f64 = 1e-6;
    const SEED: u64 = 0xC0FF_1DE5;
    let samples = ((2.0f64 / DELTA).ln() / (2.0 * eps * eps)).ceil() as usize;
    ConfidenceMethod::MonteCarlo {
        samples,
        seed: SEED,
    }
}
