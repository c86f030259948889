//! The end-to-end cost-based planner: [`JoinQuery`] → join tree →
//! strategy + processor allocation → executable [`ParallelPlan`] +
//! [`QueryBinding`].
//!
//! This is the piece the paper leaves to "the optimizer" and the repo
//! previously left to the *user*: `mj run` took `--shape` and
//! `--strategy` flags, and the phase-1 optimizers produced trees nobody
//! lowered. The planner wires the whole pipeline:
//!
//! 1. **Tree** (phase 1): exhaustive bushy DP up to
//!    [`MAX_DP_RELATIONS`] relations,
//!    greedy above — minimal *total* cost, parallelism-blind (§1.2).
//! 2. **Strategy + allocation** (phase 2): generate an SP/SE/RD/FP plan
//!    for the tree *and* its free right-oriented mirror (§5), each with
//!    proportional processor allocation, and cost every candidate with the
//!    analytic schedule model ([`mj_core::schedule`]). Cheapest wins.
//! 3. **Lowering**: the winner's tree is lowered to per-join [`EquiJoin`]
//!    specs and derived schemas ([`mj_plan::query::lower`]) and bound into
//!    a [`QueryBinding`] the engine executes directly.
//!
//! Estimated per-op cardinalities travel through the plan into
//! [`Metrics`](crate::metrics::Metrics), so every run reports
//! estimated-vs-actual plan quality.
//!
//! [`EquiJoin`]: mj_relalg::EquiJoin

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mj_core::schedule::{estimate_schedule, stage_tail_cost, ScheduleEstimate, ScheduleModel};
use mj_core::{generate, GeneratorInput, ParallelPlan, PlanStats, Strategy};
use mj_plan::cost::{tree_costs, CostModel};
use mj_plan::optimize::{greedy_tree, optimize_bushy, MAX_DP_RELATIONS};
use mj_plan::query::{
    inject_scan_filters, lower, JoinQuery, LoweredQuery, SelectItemSpec, SelectSpec,
};
use mj_plan::transform::right_orient;
use mj_plan::tree::JoinTree;
use mj_relalg::ops::AggSpec;
use mj_relalg::{
    Attribute, DataType, JoinAlgorithm, Predicate, Projection, RelalgError, RelationProvider,
    Result, Schema, XraNode,
};
use mj_storage::Catalog;

use crate::binding::{PipelineStage, QueryBinding, StageKind};

/// Planner knobs. [`PlannerOptions::new`] gives the defaults: all four
/// strategies considered, right-orientation tried, oversubscription
/// allowed when the machine is smaller than the plan.
#[derive(Clone, Copy, Debug)]
pub struct PlannerOptions {
    /// Logical processors the plan may use.
    pub processors: usize,
    /// Phase-1 / work cost model (§4.3 coefficients).
    pub cost_model: CostModel,
    /// Schedule model for phase-2 candidate costing.
    pub schedule_model: ScheduleModel,
    /// Forces a single strategy instead of costing all four — the manual
    /// `--strategy` override with planner-chosen tree and allocation.
    pub strategy: Option<Strategy>,
    /// Also cost each strategy on the right-oriented mirror of the
    /// phase-1 tree ("possible without cost penalty", §5).
    pub try_right_orient: bool,
    /// Permit concurrent operations to share processors when `processors`
    /// is smaller than a strategy needs (otherwise such candidates are
    /// simply skipped as infeasible).
    pub allow_oversubscribe: bool,
    /// Push single-relation WHERE predicates below the joins: filters run
    /// inside the base scans, over the stored columns, and their
    /// selectivities fold into every cardinality estimate and schedule
    /// cost. Off, filters run as a residual pipeline stage above the root
    /// join — the benchmark baseline pushdown is measured against.
    pub pushdown: bool,
}

impl PlannerOptions {
    /// Default options for a machine of `processors` logical processors.
    pub fn new(processors: usize) -> Self {
        PlannerOptions {
            processors,
            cost_model: CostModel::default(),
            schedule_model: ScheduleModel::default(),
            strategy: None,
            try_right_orient: true,
            allow_oversubscribe: true,
            pushdown: true,
        }
    }
}

/// One costed (strategy, tree-variant) candidate.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The strategy of this candidate.
    pub strategy: Strategy,
    /// True if the candidate runs on the right-oriented mirror.
    pub right_oriented: bool,
    /// Estimated schedule (the planner's objective is `.makespan`).
    pub estimate: ScheduleEstimate,
    /// Startup/coordination drivers of the candidate plan.
    pub stats: PlanStats,
    /// True if concurrent ops share processors in this candidate.
    pub oversubscribed: bool,
}

/// The planner's output: an executable plan plus everything needed to run,
/// verify, and explain it.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// The chosen join tree (possibly the right-oriented mirror).
    pub tree: JoinTree,
    /// The winning parallel plan, fully allocated.
    pub plan: ParallelPlan,
    /// Join specs and schemas, ready for the engine.
    pub binding: QueryBinding,
    /// The generalized lowering (per-node schemas, specs, estimates) —
    /// `lowered.to_xra(&tree, ..)` is the sequential oracle.
    pub lowered: LoweredQuery,
    /// The winner's schedule estimate.
    pub estimate: ScheduleEstimate,
    /// Every costed candidate, cheapest first (winner is `choices[0]`).
    pub choices: Vec<PlanChoice>,
    /// Candidates that could not be planned, with the reason.
    pub infeasible: Vec<(Strategy, bool, String)>,
}

impl PlannedQuery {
    /// The winning strategy.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// Rebuilds the planned query with every `?N` placeholder in its
    /// predicates bound to the corresponding literal from `args`
    /// (1-based: `?1` reads `args[0]`) — the execute-time half of a
    /// prepared statement. Only the binding's predicates are rewritten
    /// ([`QueryBinding::bind_params`]); the join tree, parallel plan,
    /// allocation, and cost estimates are reused untouched, which is the
    /// whole point: literal *values* never influenced them (selectivity
    /// estimation is value-independent for literal comparisons), so
    /// substituting params cannot invalidate the plan.
    pub fn bind_params(&self, args: &[i64]) -> Result<PlannedQuery> {
        Ok(PlannedQuery {
            binding: self.binding.bind_params(args)?,
            ..self.clone()
        })
    }

    /// Human-readable comparison of every costed alternative — what
    /// `mj plan` prints.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>10} {:>10}\n",
            "candidate", "est cost", "startup", "streams", "processes"
        ));
        for (i, c) in self.choices.iter().enumerate() {
            out.push_str(&format!(
                "{:<10} {:>14.0} {:>12.0} {:>10} {:>10}  {}\n",
                format!(
                    "{}{}",
                    c.strategy,
                    if c.right_oriented { "+mirror" } else { "" }
                ),
                c.estimate.makespan,
                c.estimate.startup,
                c.stats.tuple_streams,
                c.stats.operation_processes,
                if i == 0 { "<- chosen" } else { "" },
            ));
        }
        for (s, mirrored, why) in &self.infeasible {
            out.push_str(&format!(
                "{:<10} infeasible: {why}\n",
                format!("{s}{}", if *mirrored { "+mirror" } else { "" })
            ));
        }
        let filters = self.binding.scan_filters();
        if !filters.is_empty() {
            let mut names: Vec<&String> = filters.keys().collect();
            names.sort();
            out.push_str("pushed scan filters:\n");
            for name in names {
                out.push_str(&format!("  σ {name}: {}\n", filters[name]));
            }
        }
        if !self.binding.stages().is_empty() {
            out.push_str("post-join pipeline:\n");
            for stage in self.binding.stages() {
                out.push_str(&format!(
                    "  -> {} [x{}] est {} rows (~{} B columnar)\n",
                    stage.label,
                    stage.degree,
                    stage.est_out,
                    stage.est_bytes()
                ));
            }
        }
        out
    }

    /// The sequential oracle for this plan: the lowered join tree with the
    /// pushed scan filters injected beneath the scans and the pipeline
    /// stages (residual filter, aggregation, final projection) replayed on
    /// top. A LIMIT stage is *not* represented — the oracle returns the
    /// full result, and limit tests check the subset/count properties
    /// instead (which k rows survive is nondeterministic).
    pub fn oracle_xra(&self, algorithm: JoinAlgorithm) -> Result<XraNode> {
        let mut node = self.lowered.to_xra(&self.tree, algorithm)?;
        node = inject_scan_filters(node, self.binding.scan_filters());
        for stage in self.binding.stages() {
            node = match &stage.kind {
                StageKind::Filter {
                    predicate,
                    projection,
                } => {
                    let selected = XraNode::Select {
                        input: Box::new(node),
                        predicate: predicate.clone(),
                    };
                    match projection {
                        Some(p) => XraNode::Project {
                            input: Box::new(selected),
                            projection: p.clone(),
                        },
                        None => selected,
                    }
                }
                StageKind::Aggregate {
                    group,
                    aggs,
                    projection,
                } => {
                    let agg = XraNode::Aggregate {
                        input: Box::new(node),
                        group: group.clone(),
                        aggs: aggs.clone(),
                    };
                    match projection {
                        Some(p) => XraNode::Project {
                            input: Box::new(agg),
                            projection: p.clone(),
                        },
                        None => agg,
                    }
                }
                StageKind::Limit { .. } => node,
            };
        }
        Ok(node)
    }

    /// True if this plan contains a LIMIT stage (whose row cap the oracle
    /// from [`oracle_xra`](Self::oracle_xra) does not apply).
    pub fn has_limit(&self) -> bool {
        self.binding
            .stages()
            .iter()
            .any(|s| matches!(s.kind, StageKind::Limit { .. }))
    }
}

impl fmt::Display for PlannedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// The cost-based planner. Stateless apart from its options; cheap to
/// build per query.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    options: PlannerOptions,
}

impl Planner {
    /// Creates a planner.
    pub fn new(options: PlannerOptions) -> Self {
        Planner { options }
    }

    /// The planner's options.
    pub fn options(&self) -> &PlannerOptions {
        &self.options
    }

    /// Plans `query` end to end: phase-1 tree, phase-2 strategy and
    /// processor allocation by cheapest estimated schedule, generalized
    /// lowering, binding. Keeps every column of every relation in
    /// tree-independent `(relation, column)` order.
    pub fn plan(&self, query: &JoinQuery) -> Result<PlannedQuery> {
        self.plan_with_output(query, None)
    }

    /// [`plan`](Self::plan) with an explicit output column list: the final
    /// result contains exactly the `(relation, column)` pairs of `output`,
    /// in order (a plain-column `SELECT` list). `None` keeps every column.
    pub fn plan_with_output(
        &self,
        query: &JoinQuery,
        output: Option<&[(usize, usize)]>,
    ) -> Result<PlannedQuery> {
        let spec = SelectSpec::columns(match output {
            Some(cols) => cols.to_vec(),
            None => query.all_columns(),
        });
        self.plan_select(query, &spec)
    }

    /// The full planning entry point: joins from `query` (with any
    /// attached WHERE filters), projection/grouping/aggregation/limit from
    /// `spec`. With [`PlannerOptions::pushdown`] on (the default), filters
    /// become scan predicates and their selectivities fold into every
    /// phase-1 estimate and schedule cost; off, they run as a residual
    /// pipeline stage above the root join. Aggregation runs partitioned
    /// across the root's processors (hash on the first integer grouping
    /// column), and a LIMIT becomes the degree-1 early-terminating stage.
    pub fn plan_select(&self, query: &JoinQuery, spec: &SelectSpec) -> Result<PlannedQuery> {
        if self.options.processors == 0 {
            return Err(RelalgError::InvalidPlan(
                "planner needs at least 1 processor".into(),
            ));
        }
        if query.len() < 2 {
            return Err(RelalgError::InvalidPlan(
                "planner needs at least 2 relations".into(),
            ));
        }
        spec.validate(query)?;
        let pushdown = self.options.pushdown && !query.filters().is_empty();
        let residual = !pushdown && !query.filters().is_empty();
        // With pushdown, every estimate downstream — phase-1 tree choice,
        // System-R intermediates, schedule costs — sees the post-selection
        // cardinalities.
        let effective;
        let planning_query: &JoinQuery = if pushdown {
            effective = query.with_filtered_cards();
            &effective
        } else {
            query
        };

        // The columns the root join must output: the SELECT columns
        // directly when nothing runs above the root, otherwise the ordered
        // dedup of everything the pipeline stages consume (group columns,
        // aggregate inputs, residual-filter carriers).
        let select_cols: Vec<(usize, usize)> = spec
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItemSpec::Column(r, c) => Some((*r, *c)),
                SelectItemSpec::Aggregate { .. } => None,
            })
            .collect();
        let filter_cols: Vec<(usize, usize)> = if residual {
            query
                .filters()
                .iter()
                .flat_map(|f| {
                    predicate_cols(&f.predicate)
                        .into_iter()
                        .map(move |c| (f.rel, c))
                })
                .collect()
        } else {
            Vec::new()
        };
        let root_cols: Vec<(usize, usize)> = if spec.needs_aggregate() {
            let mut cols = Vec::new();
            for &rc in spec
                .group_by
                .iter()
                .chain(spec.items.iter().filter_map(|i| match i {
                    SelectItemSpec::Aggregate { input, .. } => input.as_ref(),
                    SelectItemSpec::Column(..) => None,
                }))
                .chain(filter_cols.iter())
            {
                if !cols.contains(&rc) {
                    cols.push(rc);
                }
            }
            if cols.is_empty() {
                // A global COUNT(*) with nothing else referenced still
                // needs one carrier column through the join pipeline.
                cols.push((0, 0));
            }
            cols
        } else if residual {
            let mut cols = select_cols.clone();
            for &rc in &filter_cols {
                if !cols.contains(&rc) {
                    cols.push(rc);
                }
            }
            cols
        } else {
            select_cols.clone()
        };

        // Residual selectivity and estimated group count, for stage
        // costing (identical inputs for every candidate; the degree the
        // candidate's root runs at is not).
        let resid_sel: f64 = if residual {
            query.filters().iter().map(|f| f.selectivity).product()
        } else {
            1.0
        };
        // Whether the residual-filter / aggregate stages can actually run
        // partitioned: they need an integer routing column, or they fall
        // back to degree 1 — and must be *costed* at the degree
        // `build_stages` will really emit (root_cols, and hence the root
        // schema's column types, are identical across tree variants).
        let col_is_int = |&(r, c): &(usize, usize)| {
            matches!(
                query.schema(r).and_then(|s| s.attr(c)),
                Ok(a) if a.ty == DataType::Int
            )
        };
        let filter_partitionable = root_cols.iter().any(col_is_int);
        let agg_partitionable = spec.group_by.iter().any(col_is_int);
        let stage_extra = |root_degree: usize, root_est: f64| -> f64 {
            let model = &self.options.schedule_model;
            let mut extra = 0.0;
            let mut card = root_est;
            let mut prev = root_degree;
            if residual {
                let degree = if filter_partitionable { root_degree } else { 1 };
                extra += stage_tail_cost(card, degree, prev, model);
                card *= resid_sel;
                prev = degree;
            }
            if spec.needs_aggregate() {
                let degree = if agg_partitionable { root_degree } else { 1 };
                extra += stage_tail_cost(card, degree, prev, model);
                card = estimate_groups(spec, card);
                prev = degree;
            }
            if let Some(k) = spec.limit {
                extra += stage_tail_cost(card.min(k as f64), 1, prev, model);
            }
            extra
        };

        // Phase 1: minimal-total-cost tree.
        let phase1 = if planning_query.len() <= MAX_DP_RELATIONS {
            optimize_bushy(planning_query.graph(), &self.options.cost_model)?
        } else {
            greedy_tree(planning_query.graph(), &self.options.cost_model)?
        };

        // Tree variants: the phase-1 tree and (optionally) its free
        // right-oriented mirror.
        let mut variants: Vec<(JoinTree, bool)> = vec![(phase1.tree.clone(), false)];
        if self.options.try_right_orient {
            let oriented = right_orient(&phase1.tree);
            if oriented != phase1.tree {
                variants.push((oriented, true));
            }
        }
        let strategies: Vec<Strategy> = match self.options.strategy {
            Some(s) => vec![s],
            None => Strategy::ALL.to_vec(),
        };

        // (variant index, plan) per feasible candidate, parallel to
        // `all_choices`; the winner is materialized once after the sweep.
        let mut candidates: Vec<(usize, ParallelPlan)> = Vec::new();
        let mut all_choices: Vec<PlanChoice> = Vec::new();
        let mut infeasible: Vec<(Strategy, bool, String)> = Vec::new();
        let mut lowered_variants = Vec::with_capacity(variants.len());

        for (v, (tree, mirrored)) in variants.iter().enumerate() {
            let lowered = lower(tree, planning_query, Some(&root_cols))?;
            let cards = lowered.est_cards().to_vec();
            let root_est = cards[tree.root()] as f64;
            let costs = tree_costs(tree, &cards, &self.options.cost_model);
            for &strategy in &strategies {
                let mut input = GeneratorInput::new(tree, &cards, &costs, self.options.processors);
                // Pass the option through unconditionally: the generators
                // only actually share processors when an allocation pool
                // runs short (which RD/SE segment-local splits can hit
                // even with processors >= join_count).
                input.allow_oversubscribe = self.options.allow_oversubscribe;
                let plan = match generate(strategy, &input) {
                    Ok(p) => p,
                    Err(e) => {
                        infeasible.push((strategy, *mirrored, e.to_string()));
                        continue;
                    }
                };
                let mut estimate = estimate_schedule(&plan, &costs, &self.options.schedule_model);
                // Fold the post-join pipeline into the objective: its work
                // scales with this candidate's root degree (`sink()` — the
                // generator always emits the root op).
                estimate.makespan += stage_extra(plan.sink().degree(), root_est);
                all_choices.push(PlanChoice {
                    strategy,
                    right_oriented: *mirrored,
                    estimate,
                    stats: plan.stats(),
                    oversubscribed: plan.oversubscribed,
                });
                candidates.push((v, plan));
            }
            lowered_variants.push(lowered);
        }

        // First minimal candidate wins ties, matching the stable sort
        // below (so the winner is always `choices[0]`).
        let mut winner: Option<usize> = None;
        for i in 0..all_choices.len() {
            let better = winner
                .map(|w| all_choices[i].estimate.makespan < all_choices[w].estimate.makespan)
                .unwrap_or(true);
            if better {
                winner = Some(i);
            }
        }
        let winner = winner.ok_or_else(|| {
            RelalgError::InvalidPlan(format!(
                "no strategy is feasible on {} processors ({})",
                self.options.processors,
                infeasible
                    .iter()
                    .map(|(s, _, e)| format!("{s}: {e}"))
                    .collect::<Vec<_>>()
                    .join("; ")
            ))
        })?;
        let (variant, plan) = candidates.swap_remove(winner);
        let estimate = all_choices[winner].estimate.clone();
        let tree = variants[variant].0.clone();
        let lowered = lowered_variants.swap_remove(variant);

        // Assemble the binding: join specs from the lowering, plus scan
        // filters (pushdown) and the post-join pipeline stages.
        let root_degree = plan.sink().degree();
        let root_est = lowered.est_cards()[tree.root()];
        let scan_filters: HashMap<String, Predicate> = if pushdown {
            (0..query.len())
                .filter_map(|rel| {
                    query
                        .combined_filter(rel)
                        .map(|p| (query.graph().names()[rel].clone(), p))
                })
                .collect()
        } else {
            HashMap::new()
        };
        let stages = build_stages(
            query,
            spec,
            &root_cols,
            &select_cols,
            lowered.schemas()[tree.root()].clone(),
            root_est,
            resid_sel,
            residual,
            root_degree,
        )?;
        let binding = QueryBinding::from_lowered(&tree, &lowered)?
            .with_scan_filters(scan_filters)
            .with_stages(stages)?;
        all_choices.sort_by(|a, b| {
            // NaN-tolerant: a cost model returning NaN sorts last instead
            // of panicking the planning thread.
            a.estimate
                .makespan
                .partial_cmp(&b.estimate.makespan)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(PlannedQuery {
            tree,
            plan,
            binding,
            lowered,
            estimate,
            choices: all_choices,
            infeasible,
        })
    }
}

/// Attribute indices referenced by a predicate, in first-use order.
fn predicate_cols(predicate: &Predicate) -> Vec<usize> {
    let mut out = Vec::new();
    predicate.for_each_attr(&mut |i| {
        if !out.contains(&i) {
            out.push(i);
        }
    });
    out
}

/// Estimated distinct-group count for the aggregate stage.
fn estimate_groups(spec: &SelectSpec, input_est: f64) -> f64 {
    if spec.group_by.is_empty() {
        return 1.0;
    }
    let cap = input_est.max(1.0);
    match spec.group_distinct_hint {
        Some(d) => (d as f64).clamp(1.0, cap),
        // Square-root heuristic when no statistics are available.
        None => cap.sqrt().ceil().clamp(1.0, cap),
    }
}

/// First integer column of `schema` — the routing key candidate for a
/// partitioned stage.
fn first_int_col(schema: &Schema) -> Option<usize> {
    (0..schema.arity()).find(|&c| matches!(schema.attr(c), Ok(a) if a.ty == DataType::Int))
}

/// Builds the post-join pipeline stages for the winning plan.
#[allow(clippy::too_many_arguments)]
fn build_stages(
    query: &JoinQuery,
    spec: &SelectSpec,
    root_cols: &[(usize, usize)],
    select_cols: &[(usize, usize)],
    root_schema: Arc<Schema>,
    root_est: u64,
    resid_sel: f64,
    residual: bool,
    root_degree: usize,
) -> Result<Vec<PipelineStage>> {
    let pos = |rel: usize, col: usize| -> Result<usize> {
        root_cols
            .iter()
            .position(|&rc| rc == (rel, col))
            .ok_or_else(|| {
                RelalgError::InvalidPlan(format!(
                    "column {rel}.{col} was pruned below the root but a stage needs it"
                ))
            })
    };

    let mut stages: Vec<PipelineStage> = Vec::new();
    let mut in_schema = root_schema;
    let mut in_est = root_est as f64;

    if residual {
        let mut combined: Option<Predicate> = None;
        for f in query.filters() {
            let rel = f.rel;
            let p = f.predicate.map_attrs(&|c| pos(rel, c))?;
            combined = Some(match combined {
                None => p,
                Some(acc) => Predicate::And(Box::new(acc), Box::new(p)),
            });
        }
        let predicate = combined.expect("residual implies filters");
        // Without a downstream aggregate, the filter also projects the
        // carrier columns away, restoring the SELECT list's shape.
        let projection = if spec.needs_aggregate() {
            None
        } else {
            let cols: Vec<usize> = select_cols
                .iter()
                .map(|&(r, c)| pos(r, c))
                .collect::<Result<_>>()?;
            let identity =
                cols.len() == in_schema.arity() && cols.iter().copied().eq(0..cols.len());
            if identity {
                None
            } else {
                Some(Projection::new(cols))
            }
        };
        let schema = match &projection {
            Some(p) => Arc::new(p.output_schema(&in_schema)?),
            None => in_schema.clone(),
        };
        let (degree, partition_col) = match first_int_col(&in_schema) {
            Some(c) if root_degree > 1 => (root_degree, c),
            _ => (1, 0),
        };
        in_est *= resid_sel;
        let label = format!("filter σ({predicate})");
        stages.push(PipelineStage {
            kind: StageKind::Filter {
                predicate,
                projection,
            },
            degree,
            partition_col,
            schema: schema.clone(),
            est_out: in_est.round().max(1.0) as u64,
            label,
        });
        in_schema = schema;
    }

    if spec.needs_aggregate() {
        let group: Vec<usize> = spec
            .group_by
            .iter()
            .map(|&(r, c)| pos(r, c))
            .collect::<Result<_>>()?;
        let mut aggs: Vec<AggSpec> = Vec::new();
        for item in &spec.items {
            if let SelectItemSpec::Aggregate { func, input, name } = item {
                let col = match input {
                    Some((r, c)) => pos(*r, *c)?,
                    None => 0,
                };
                aggs.push(AggSpec::new(*func, col, name.clone()));
            }
        }
        // Output layout is [group..., aggs...]; the projection restores
        // the SELECT list's order.
        let mut layout_attrs: Vec<Attribute> = Vec::with_capacity(group.len() + aggs.len());
        for &g in &group {
            layout_attrs.push(in_schema.attr(g)?.clone());
        }
        for a in &aggs {
            layout_attrs.push(Attribute::int(a.name.clone()));
        }
        let layout = Schema::new(layout_attrs);
        let mut proj_cols = Vec::with_capacity(spec.items.len());
        let mut agg_seen = 0usize;
        for item in &spec.items {
            match item {
                SelectItemSpec::Column(r, c) => {
                    let p = pos(*r, *c)?;
                    let gi = group.iter().position(|&g| g == p).expect("validated");
                    proj_cols.push(gi);
                }
                SelectItemSpec::Aggregate { .. } => {
                    proj_cols.push(group.len() + agg_seen);
                    agg_seen += 1;
                }
            }
        }
        let identity =
            proj_cols.len() == layout.arity() && proj_cols.iter().copied().eq(0..proj_cols.len());
        let projection = if identity {
            None
        } else {
            Some(Projection::new(proj_cols))
        };
        let schema = Arc::new(match &projection {
            Some(p) => p.output_schema(&layout)?,
            None => layout,
        });
        // Partition by the first integer grouping column; a global
        // aggregate (or all-string keys) runs at degree 1.
        let partition = group
            .iter()
            .copied()
            .find(|&g| matches!(in_schema.attr(g), Ok(a) if a.ty == DataType::Int));
        let (degree, partition_col) = match partition {
            Some(c) if root_degree > 1 => (root_degree, c),
            _ => (1, 0),
        };
        in_est = estimate_groups(spec, in_est);
        let label = format!(
            "aggregate group={group:?} aggs=[{}]",
            aggs.iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        stages.push(PipelineStage {
            kind: StageKind::Aggregate {
                group,
                aggs,
                projection,
            },
            degree,
            partition_col,
            schema: schema.clone(),
            est_out: in_est.round().max(1.0) as u64,
            label,
        });
        in_schema = schema;
    }

    if let Some(k) = spec.limit {
        stages.push(PipelineStage {
            kind: StageKind::Limit { k },
            degree: 1,
            partition_col: 0,
            schema: in_schema.clone(),
            est_out: (in_est.round().max(0.0) as u64).min(k),
            label: format!("limit {k}"),
        });
    }

    Ok(stages)
}

/// Builds a [`JoinQuery`] from catalog statistics: cardinalities and
/// schemas come from the catalog, edge selectivities from the System-R
/// formula `1 / max(distinct(a.col), distinct(b.col))` over the recorded
/// (or [`Catalog::analyze`]d) per-column distinct counts.
pub fn query_from_catalog(
    catalog: &Catalog,
    relations: &[&str],
    joins: &[(usize, usize, usize, usize)],
) -> Result<JoinQuery> {
    let mut query = JoinQuery::new();
    for name in relations {
        let stats = catalog.stats(name)?;
        let schema = catalog.relation(name)?.schema().clone();
        query.add_relation(*name, stats.cardinality, schema)?;
    }
    for &(a, b, col_a, col_b) in joins {
        if a >= relations.len() || b >= relations.len() {
            return Err(RelalgError::InvalidPlan(format!(
                "join edge ({a}, {b}) references a relation outside 0..{}",
                relations.len()
            )));
        }
        let (na, nb) = (relations[a], relations[b]);
        let da = catalog.column_distinct(na, col_a)?.max(1);
        let db = catalog.column_distinct(nb, col_b)?.max(1);
        let selectivity = 1.0 / da.max(db) as f64;
        query.add_join(a, b, col_a, col_b, selectivity)?;
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::engine::run_plan;
    use mj_relalg::JoinAlgorithm;
    use mj_storage::WisconsinGenerator;
    use std::sync::Arc;

    fn wisconsin_chain(k: usize, n: usize) -> (Arc<Catalog>, JoinQuery) {
        let catalog = Arc::new(Catalog::new());
        for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", k) {
            catalog.register(name, rel);
        }
        let names: Vec<String> = (0..k).map(|i| format!("R{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        // Regular chain on unique1 (column 0, a permutation of 0..n).
        let joins: Vec<(usize, usize, usize, usize)> =
            (0..k - 1).map(|i| (i, i + 1, 0, 0)).collect();
        let query = query_from_catalog(&catalog, &refs, &joins).unwrap();
        (catalog, query)
    }

    #[test]
    fn planner_produces_an_executable_winning_plan() {
        let (catalog, query) = wisconsin_chain(5, 200);
        let planned = Planner::new(PlannerOptions::new(8)).plan(&query).unwrap();
        assert!(!planned.choices.is_empty());
        assert_eq!(planned.choices[0].strategy, planned.strategy());
        // Choices are sorted and the winner is cheapest.
        for pair in planned.choices.windows(2) {
            assert!(pair[0].estimate.makespan <= pair[1].estimate.makespan);
        }
        // The plan runs on the real engine and matches the lowered oracle.
        let outcome = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.as_ref(),
            &ExecConfig::default(),
        )
        .unwrap();
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, JoinAlgorithm::Simple)
            .unwrap()
            .eval(catalog.as_ref())
            .unwrap();
        assert_eq!(outcome.relation.len(), 200);
        assert!(outcome.relation.multiset_eq(&oracle));
        // Estimated cardinalities flowed into the metrics.
        assert!(outcome.metrics.ops.iter().all(|o| o.est_out > 0));
        // Perfect key joins: every estimate within 2x of actual.
        assert!(outcome.metrics.max_q_error() < 2.0);
    }

    #[test]
    fn strategy_override_is_respected() {
        let (_, query) = wisconsin_chain(4, 100);
        let mut options = PlannerOptions::new(6);
        options.strategy = Some(Strategy::SE);
        let planned = Planner::new(options).plan(&query).unwrap();
        assert_eq!(planned.strategy(), Strategy::SE);
        assert!(planned.choices.iter().all(|c| c.strategy == Strategy::SE));
    }

    #[test]
    fn infeasible_strategies_are_reported_not_fatal() {
        let (_, query) = wisconsin_chain(6, 100);
        // 2 processors, 5 joins, no oversubscription: SE/RD/FP variants
        // with more concurrent ops than processors drop out, SP remains.
        let mut options = PlannerOptions::new(2);
        options.allow_oversubscribe = false;
        let planned = Planner::new(options).plan(&query).unwrap();
        assert!(planned.choices.iter().any(|c| c.strategy == Strategy::SP));
        assert!(!planned.infeasible.is_empty());
        let text = planned.explain();
        assert!(text.contains("chosen"));
        assert!(text.contains("infeasible"));
    }

    #[test]
    fn too_few_relations_is_an_error() {
        let catalog = Catalog::new();
        let q = query_from_catalog(&catalog, &[], &[]).unwrap();
        assert!(Planner::new(PlannerOptions::new(4)).plan(&q).is_err());
    }

    #[test]
    fn zero_processors_is_an_error_not_a_panic() {
        let (_, query) = wisconsin_chain(3, 50);
        let err = Planner::new(PlannerOptions::new(0))
            .plan(&query)
            .unwrap_err();
        assert!(err.to_string().contains("at least 1 processor"), "{err}");
    }

    #[test]
    fn output_columns_shape_the_plan_result() {
        let (catalog, query) = wisconsin_chain(3, 100);
        // Keep only unique2 of the first and last relation.
        let output = vec![(0usize, 1usize), (2usize, 1usize)];
        let planned = Planner::new(PlannerOptions::new(4))
            .plan_with_output(&query, Some(&output))
            .unwrap();
        let outcome = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.as_ref(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.relation.len(), 100);
        assert_eq!(outcome.relation.schema().arity(), 2);
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, JoinAlgorithm::Simple)
            .unwrap()
            .eval(catalog.as_ref())
            .unwrap();
        assert!(outcome.relation.multiset_eq(&oracle));
    }

    #[test]
    fn catalog_selectivity_uses_column_distincts() {
        let catalog = Arc::new(Catalog::new());
        for (name, rel) in WisconsinGenerator::new(100, 1).generate_named("R", 2) {
            catalog.register(name, rel);
        }
        catalog.set_column_distinct("R0", 1, 20);
        catalog.set_column_distinct("R1", 0, 10);
        let q = query_from_catalog(&catalog, &["R0", "R1"], &[(0, 1, 1, 0)]).unwrap();
        // sel = 1 / max(20, 10).
        assert!((q.graph().edges()[0].2 - 0.05).abs() < 1e-12);
    }
}
