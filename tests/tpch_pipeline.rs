//! End-to-end tests of the Section 6 pipeline at tiny scales: generator
//! invariants, the three queries across all three representations
//! (attribute-level, tuple-level, ULDB), the Figure 9 trends, and the
//! optimizer's plan shape on the translated queries.

use u_relations::core::{evaluate, possible, table, table_as, translate};
use u_relations::relalg::{col, exec, explain, lit_str, optimizer};
use u_relations::tpch::tuple_level::{expand_tuple_level, to_uldb};
use u_relations::tpch::{generate, q1, q2, q3, GenParams};

fn tiny(x: f64, z: f64, seed: u64) -> GenParams {
    let mut p = GenParams::paper(0.002, x, z);
    p.seed = seed;
    p
}

#[test]
fn attribute_and_tuple_level_agree_on_all_queries() {
    let out = generate(&tiny(0.06, 0.25, 21)).unwrap();
    let tl = expand_tuple_level(&out.db, 1 << 16, 1 << 22).unwrap();
    for (name, q) in [("q1", q1()), ("q2", q2()), ("q3", q3())] {
        let a = possible(&out.db, &q).unwrap();
        let b = possible(&tl, &q).unwrap();
        assert!(a.set_eq(&b), "{name}: attribute vs tuple level disagree");
    }
}

#[test]
fn uldb_agrees_on_a_single_relation_query() {
    // Tuple-level → ULDB mapping preserves query answers (modulo
    // erroneous tuples, which a selection cannot introduce).
    let out = generate(&tiny(0.05, 0.1, 5)).unwrap();
    let tl = expand_tuple_level(&out.db, 1 << 16, 1 << 22).unwrap();
    let mut uldb = to_uldb(&tl).unwrap();

    let pred = col("c_mktsegment").eq(lit_str("BUILDING"));
    let a = possible(
        &tl,
        &table("customer")
            .select(pred.clone())
            .project(["c_custkey", "c_mktsegment"]),
    )
    .unwrap();

    uldb.select("customer", "building", &pred).unwrap();
    let mut got: Vec<i64> = uldb
        .relation("building")
        .unwrap()
        .xtuples
        .iter()
        .flat_map(|t| &t.alts)
        .map(|alt| alt.values[0].as_int().unwrap())
        .collect();
    got.sort_unstable();
    got.dedup();
    let mut want: Vec<i64> = a.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    want.sort_unstable();
    want.dedup();
    assert_eq!(got, want);
}

#[test]
fn q3_self_join_on_nation_is_well_formed() {
    // nation appears twice; the translation must not confuse the copies.
    let out = generate(&tiny(0.05, 0.25, 8)).unwrap();
    let q = table_as("nation", "n1")
        .join(
            table_as("nation", "n2"),
            col("n1.n_regionkey").eq(col("n2.n_regionkey")),
        )
        .project(["n1.n_name", "n2.n_name"]);
    let ans = possible(&out.db, &q).unwrap();
    // Every nation pairs at least with itself within its region.
    assert!(ans.len() >= 25, "{}", ans.len());
}

#[test]
fn q3_plan_shape_survives_correlation_aware_estimates() {
    // The correlation-aware ψ estimates (joint Var/Rng pair NDV, PR 4)
    // must leave the optimized Q3 plan shape unchanged or better:
    // every ψ-merge join stays a hash join (no nested-loop demotions),
    // optimization still reduces the rows flowing through the executor,
    // and the answers are untouched.
    let out = generate(&tiny(0.05, 0.25, 8)).unwrap();
    let prepared = out.db.prepare();
    let t = translate(&out.db, &q3()).unwrap();
    let optimized = optimizer::optimize(&t.plan, prepared.catalog()).unwrap();
    // Every equi-keyed join must remain a hash join; ψ-only joins (no
    // equi conjunct exists between their groups) may nested-loop, but
    // only between tiny inputs — the reorderer must not schedule a
    // ψ-only cross over large sides.
    fn check_joins(p: &u_relations::relalg::Plan, c: &u_relations::relalg::Catalog) {
        use u_relations::relalg::Plan;
        match p {
            Plan::Join { left, right, pred } => {
                let (ls, rs) = (left.schema(c).unwrap(), right.schema(c).unwrap());
                let cond = exec::JoinCondition::analyze(pred, &ls, &rs);
                if cond.equi.is_empty() {
                    let pairs = optimizer::est_rows(left, c) * optimizer::est_rows(right, c);
                    assert!(
                        pairs < 100_000.0,
                        "ψ-only nested loop over large inputs ({pairs} est pairs)"
                    );
                }
                check_joins(left, c);
                check_joins(right, c);
            }
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct(input)
            | Plan::Rename { input, .. } => check_joins(input, c),
            Plan::SemiJoin { left, right, .. }
            | Plan::AntiJoin { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Difference { left, right } => {
                check_joins(left, c);
                check_joins(right, c);
            }
            _ => {}
        }
    }
    check_joins(&optimized, prepared.catalog());
    let text = explain::explain(&optimized, prepared.catalog());
    assert!(text.contains("Hash Join"), "{text}");
    // One physical join per logical merge survives optimization.
    assert_eq!(optimized.join_count(), t.plan.join_count());
    // Optimization must not inflate executed work: compare the rows
    // carried by batches through both plans.
    let (raw_out, raw) = exec::execute_with_stats(&t.plan, prepared.catalog()).unwrap();
    let (opt_out, opt) = exec::execute_with_stats(&optimized, prepared.catalog()).unwrap();
    assert!(raw_out.set_eq(&opt_out), "optimization changed Q3 answers");
    assert!(
        opt.batch_rows <= raw.batch_rows,
        "optimized Q3 moves more rows than the raw translation: {opt:?} vs {raw:?}"
    );
}

#[test]
fn optimizer_folds_stacked_column_projections() {
    // Projection pruning stacks narrowing projections; the optimizer's
    // fold pass must leave no column-only `Project` directly on another
    // `Project` in the optimized Q1-Q3, and answers stay the same.
    use u_relations::relalg::{Expr, Plan};
    fn stacked_projections(p: &Plan) -> usize {
        match p {
            Plan::Scan(_) | Plan::Values(_) => 0,
            Plan::Project { input, cols } => {
                let folds = cols.iter().all(|(e, _)| matches!(e, Expr::Col(_)))
                    && matches!(input.as_ref(), Plan::Project { .. });
                usize::from(folds) + stacked_projections(input)
            }
            Plan::Select { input, .. } | Plan::Distinct(input) | Plan::Rename { input, .. } => {
                stacked_projections(input)
            }
            Plan::Join { left, right, .. }
            | Plan::SemiJoin { left, right, .. }
            | Plan::AntiJoin { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Difference { left, right } => {
                stacked_projections(left) + stacked_projections(right)
            }
        }
    }
    let out = generate(&tiny(0.05, 0.25, 8)).unwrap();
    let prepared = out.db.prepare();
    let catalog = prepared.catalog();
    for (name, q) in [("q1", q1()), ("q2", q2()), ("q3", q3())] {
        let t = translate(&out.db, &q).unwrap();
        let optimized = optimizer::optimize(&t.plan, catalog).unwrap();
        assert_eq!(
            stacked_projections(&optimized),
            0,
            "{name}: stacked column-only projections survive optimization:\n{}",
            explain::explain(&optimized, catalog)
        );
        let raw = exec::execute(&t.plan, catalog).unwrap();
        let opt = exec::execute(&optimized, catalog).unwrap();
        assert!(raw.set_eq(&opt), "{name}: folding changed the answers");
    }
}

#[test]
fn figure9_trends_hold_at_tiny_scale() {
    // Worlds exponential in x; size linear; lworlds grows with z.
    let w_small = generate(&tiny(0.01, 0.25, 3)).unwrap();
    let w_large = generate(&tiny(0.1, 0.25, 3)).unwrap();
    assert!(w_large.stats.worlds_log10 > 5.0 * w_small.stats.worlds_log10.max(0.1));
    assert!(
        (w_large.stats.size_bytes as f64) < 3.0 * w_small.stats.size_bytes as f64,
        "size must grow mildly: {} vs {}",
        w_large.stats.size_bytes,
        w_small.stats.size_bytes
    );

    let z_low = generate(&tiny(0.1, 0.1, 3)).unwrap();
    let z_high = generate(&tiny(0.1, 0.5, 3)).unwrap();
    let hi_dfc = |s: &u_relations::tpch::GenStats| {
        s.dfc_histogram
            .iter()
            .filter(|(d, _)| *d > 1)
            .map(|(_, c)| c)
            .sum::<usize>()
    };
    assert!(hi_dfc(&z_high.stats) > hi_dfc(&z_low.stats));
}

#[test]
fn query_results_decode_per_world_on_tpch() {
    // Exhaustive world check on an ultra-tiny instance: restrict the
    // uncertainty so the world count stays enumerable.
    let mut p = GenParams::paper(0.002, 0.004, 0.25);
    p.seed = 77;
    let out = generate(&p).unwrap();
    if out.db.world.world_count_exact().unwrap_or(u128::MAX) > 512 {
        // Seed-dependent; skip silently if the pool came out too big.
        return;
    }
    let q = q2();
    let u = evaluate(&out.db, &q).unwrap();
    for f in out.db.world.worlds(512).unwrap() {
        let got = u.tuples_in_world(&out.db.world, &f);
        let want = u_relations::core::oracle_eval(&q, &out.db, &f, 512).unwrap();
        assert!(got.set_eq(&want.sorted_set()));
    }
}

#[test]
fn generation_scales_preserve_query_answerability() {
    for s in [0.002, 0.01] {
        let mut p = GenParams::paper(s, 0.02, 0.25);
        p.seed = 13;
        let out = generate(&p).unwrap();
        out.db.validate().unwrap();
        for q in [q1(), q2(), q3()] {
            possible(&out.db, &q).unwrap();
        }
    }
}
