//! Logical query plans.
//!
//! Plans are trees of the classical operators. Schema inference
//! ([`Plan::schema`]) walks the tree against a [`Catalog`]; execution and
//! optimization live in [`crate::exec`] and [`crate::optimizer`].

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::relation::Relation;
use crate::schema::{ColRef, Schema};
use std::sync::Arc;

/// A logical plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan a catalog relation by name.
    Scan(String),
    /// Inline relation (used for `W` in certain-answer queries and tests).
    Values(Arc<Relation>),
    /// σ — filter by a predicate.
    Select { input: Box<Plan>, pred: Expr },
    /// π — generalized projection: each output column is an expression
    /// with an output name. Plain column lists are the common case;
    /// literal expressions implement the union translation's padding.
    Project {
        input: Box<Plan>,
        cols: Vec<(Expr, ColRef)>,
    },
    /// ⋈ — inner theta-join (cross product when `pred` is `true`).
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        pred: Expr,
    },
    /// ⋉ — left semijoin (rows of `left` with a `pred`-partner in `right`).
    SemiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        pred: Expr,
    },
    /// ▷ — left antijoin (rows of `left` with no partner).
    AntiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        pred: Expr,
    },
    /// ∪ — positional union (bag); output keeps the left schema.
    Union { left: Box<Plan>, right: Box<Plan> },
    /// − — positional set difference (dedups, SQL `EXCEPT` semantics).
    Difference { left: Box<Plan>, right: Box<Plan> },
    /// δ — duplicate elimination.
    Distinct(Box<Plan>),
    /// ρ — re-qualify every column with an alias (self-join support).
    Rename { input: Box<Plan>, alias: String },
}

impl Plan {
    /// Scan node.
    pub fn scan(name: impl Into<String>) -> Plan {
        Plan::Scan(name.into())
    }

    /// Inline relation node.
    pub fn values(rel: Relation) -> Plan {
        Plan::Values(Arc::new(rel))
    }

    /// σ builder.
    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// π builder over plain column names (output keeps each name's
    /// unqualified form).
    pub fn project_names<S: AsRef<str>>(self, names: impl IntoIterator<Item = S>) -> Plan {
        let cols = names
            .into_iter()
            .map(|n| {
                let r = ColRef::parse(n.as_ref());
                (Expr::Col(r.clone()), r.unqualified())
            })
            .collect();
        Plan::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// π builder with explicit (expression, output-name) pairs.
    pub fn project(self, cols: Vec<(Expr, ColRef)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// ⋈ builder.
    pub fn join(self, right: Plan, pred: Expr) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// ⋉ builder.
    pub fn semijoin(self, right: Plan, pred: Expr) -> Plan {
        Plan::SemiJoin {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// ▷ builder.
    pub fn antijoin(self, right: Plan, pred: Expr) -> Plan {
        Plan::AntiJoin {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// ∪ builder.
    pub fn union(self, right: Plan) -> Plan {
        Plan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// − builder.
    pub fn difference(self, right: Plan) -> Plan {
        Plan::Difference {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// δ builder.
    pub fn distinct(self) -> Plan {
        Plan::Distinct(Box::new(self))
    }

    /// ρ builder.
    pub fn rename(self, alias: impl Into<String>) -> Plan {
        Plan::Rename {
            input: Box::new(self),
            alias: alias.into(),
        }
    }

    /// `true` iff this plan is already materialized — a scan, inline
    /// values, or a rename chain over either. The streaming executor
    /// consumes such inputs zero-copy: using one as a hash-join build
    /// side or set-operation table costs no row copies, and executing
    /// one returns the shared storage itself.
    pub fn materialized_source(&self) -> bool {
        match self {
            Plan::Scan(_) | Plan::Values(_) => true,
            Plan::Rename { input, .. } => input.materialized_source(),
            _ => false,
        }
    }

    /// Infer the output schema against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            Plan::Scan(name) => Ok(catalog.get(name)?.schema().clone()),
            Plan::Values(rel) => Ok(rel.schema().clone()),
            Plan::Select { input, pred } => {
                let s = input.schema(catalog)?;
                // Validate the predicate compiles (fail at plan time).
                pred.compile(&s)?;
                Ok(s)
            }
            Plan::Project { input, cols } => {
                let s = input.schema(catalog)?;
                for (e, _) in cols {
                    e.compile(&s)?;
                }
                Ok(Schema::new(cols.iter().map(|(_, n)| n.clone()).collect()))
            }
            Plan::Join { left, right, pred } => {
                let s = left.schema(catalog)?.concat(&right.schema(catalog)?);
                pred.compile(&s)?;
                Ok(s)
            }
            Plan::SemiJoin { left, right, pred } | Plan::AntiJoin { left, right, pred } => {
                let joint = left.schema(catalog)?.concat(&right.schema(catalog)?);
                pred.compile(&joint)?;
                left.schema(catalog)
            }
            Plan::Union { left, right } => {
                let l = left.schema(catalog)?;
                let r = right.schema(catalog)?;
                if !l.compatible(&r) {
                    return Err(Error::SchemaMismatch {
                        left: l.to_string(),
                        right: r.to_string(),
                    });
                }
                Ok(l)
            }
            Plan::Difference { left, right } => {
                let l = left.schema(catalog)?;
                let r = right.schema(catalog)?;
                if !l.compatible(&r) {
                    return Err(Error::SchemaMismatch {
                        left: l.to_string(),
                        right: r.to_string(),
                    });
                }
                Ok(l)
            }
            Plan::Distinct(input) => input.schema(catalog),
            Plan::Rename { input, alias } => Ok(input.schema(catalog)?.qualify(alias)),
        }
    }

    /// Output schema *shape* without predicate validation.
    ///
    /// [`Plan::schema`] re-compiles every predicate on every call, which
    /// is the right contract for validation but far too expensive for
    /// the optimizer's inner loops (cardinality estimation and pushdown
    /// consult schemas thousands of times per optimization, on plans
    /// already validated once at entry). Batch-aware costing leans on
    /// this: `est_rows` and the join reorderer stay cheap enough to run
    /// per prepare, where the executor re-uses them to pick build sides.
    pub(crate) fn schema_shape(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            Plan::Scan(name) => Ok(catalog.get(name)?.schema().clone()),
            Plan::Values(rel) => Ok(rel.schema().clone()),
            Plan::Select { input, .. } | Plan::Distinct(input) => input.schema_shape(catalog),
            Plan::Project { cols, .. } => {
                Ok(Schema::new(cols.iter().map(|(_, n)| n.clone()).collect()))
            }
            Plan::Join { left, right, .. } => Ok(left
                .schema_shape(catalog)?
                .concat(&right.schema_shape(catalog)?)),
            Plan::SemiJoin { left, .. }
            | Plan::AntiJoin { left, .. }
            | Plan::Union { left, .. }
            | Plan::Difference { left, .. } => left.schema_shape(catalog),
            Plan::Rename { input, alias } => Ok(input.schema_shape(catalog)?.qualify(alias)),
        }
    }

    /// Rebuild this node with `f` applied to each direct input, left
    /// before right (leaves come back unchanged): the traversal
    /// skeleton of the optimizer's rewrite passes.
    pub(crate) fn map_inputs(self, mut f: impl FnMut(Plan) -> Plan) -> Plan {
        let mut g = |p: Box<Plan>| Box::new(f(*p));
        match self {
            Plan::Scan(_) | Plan::Values(_) => self,
            Plan::Select { input, pred } => Plan::Select {
                input: g(input),
                pred,
            },
            Plan::Project { input, cols } => Plan::Project {
                input: g(input),
                cols,
            },
            Plan::Rename { input, alias } => Plan::Rename {
                input: g(input),
                alias,
            },
            Plan::Distinct(input) => Plan::Distinct(g(input)),
            Plan::Join { left, right, pred } => Plan::Join {
                left: g(left),
                right: g(right),
                pred,
            },
            Plan::SemiJoin { left, right, pred } => Plan::SemiJoin {
                left: g(left),
                right: g(right),
                pred,
            },
            Plan::AntiJoin { left, right, pred } => Plan::AntiJoin {
                left: g(left),
                right: g(right),
                pred,
            },
            Plan::Union { left, right } => Plan::Union {
                left: g(left),
                right: g(right),
            },
            Plan::Difference { left, right } => Plan::Difference {
                left: g(left),
                right: g(right),
            },
        }
    }

    /// Number of operator nodes — the paper's "parsimonious translation"
    /// is checked by counting these.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan(_) | Plan::Values(_) => 0,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct(input)
            | Plan::Rename { input, .. } => input.node_count(),
            Plan::Join { left, right, .. }
            | Plan::SemiJoin { left, right, .. }
            | Plan::AntiJoin { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Difference { left, right } => left.node_count() + right.node_count(),
        }
    }

    /// Number of join-family nodes (⋈, ⋉, ▷). The translation scheme maps
    /// one logical join to one physical join; this counter verifies it.
    pub fn join_count(&self) -> usize {
        match self {
            Plan::Scan(_) | Plan::Values(_) => 0,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct(input)
            | Plan::Rename { input, .. } => input.join_count(),
            Plan::Join { left, right, .. }
            | Plan::SemiJoin { left, right, .. }
            | Plan::AntiJoin { left, right, .. } => 1 + left.join_count() + right.join_count(),
            Plan::Union { left, right } | Plan::Difference { left, right } => {
                left.join_count() + right.join_count()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_i64};
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "r",
            Relation::from_rows(["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]).unwrap(),
        );
        c.insert(
            "s",
            Relation::from_rows(["c"], vec![vec![Value::Int(1)]]).unwrap(),
        );
        c
    }

    #[test]
    fn schema_inference() {
        let c = catalog();
        let p = Plan::scan("r").join(Plan::scan("s"), col("a").eq(col("c")));
        assert_eq!(p.schema(&c).unwrap().to_string(), "a, b, c");
        let p = p.project_names(["b"]);
        assert_eq!(p.schema(&c).unwrap().to_string(), "b");
    }

    #[test]
    fn rename_qualifies() {
        let c = catalog();
        let p = Plan::scan("r").rename("x");
        assert_eq!(p.schema(&c).unwrap().to_string(), "x.a, x.b");
        // Self-join via two renames resolves unambiguously.
        let sj = Plan::scan("r")
            .rename("x")
            .join(Plan::scan("r").rename("y"), col("x.a").eq(col("y.a")));
        assert_eq!(sj.schema(&c).unwrap().arity(), 4);
    }

    #[test]
    fn select_validates_predicate() {
        let c = catalog();
        let bad = Plan::scan("r").select(col("zzz").eq(lit_i64(1)));
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn union_checks_arity() {
        let c = catalog();
        let bad = Plan::scan("r").union(Plan::scan("s"));
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn materialized_source_detection() {
        assert!(Plan::scan("r").materialized_source());
        assert!(Plan::scan("r")
            .rename("x")
            .rename("y")
            .materialized_source());
        assert!(!Plan::scan("r")
            .select(col("a").eq(lit_i64(1)))
            .materialized_source());
        assert!(!Plan::scan("r").distinct().materialized_source());
    }

    #[test]
    fn counters() {
        let c = catalog();
        let p = Plan::scan("r")
            .join(Plan::scan("s"), col("a").eq(col("c")))
            .select(col("b").gt(lit_i64(0)))
            .project_names(["b"]);
        assert_eq!(p.join_count(), 1);
        assert_eq!(p.node_count(), 5);
        let _ = c;
    }
}
