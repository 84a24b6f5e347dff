package core

// The engine's planning and shared-scan glue: every plain statement is built
// into a logical plan, optimized, and lowered to exec operators, and a
// statement whose lowered plan is shareable is handed to the
// sharedscan.Registry as a cohort member instead of dispatching its private
// ScanOp. The member carries everything the registry needs to assemble the
// statement's pipeline — the predicate, the scheduling parameters, the
// lowered output-phase factory, and the lifecycle hooks — so the registry can
// merge concurrent same-column scans into one physical pass while every
// statement keeps its own latency, logical traffic, and completion callbacks.

import (
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
)

// planQuery runs one statement through the planner: build the logical tree,
// optimize, and lower to exec operators. The per-statement hot path plans
// without a statistics catalog (stat-less passes keep the written plan, and
// the shareable/pushdown analysis needs no stats), so Submit never pays a
// catalog walk; batch and star paths collect stats explicitly.
func (e *Engine) planQuery(q *Query) *plan.Lowered {
	l := plan.BuildQuery(plan.Statement{
		Table:                 q.Table,
		Column:                q.Column,
		Selectivity:           q.Selectivity,
		ExtraPredicateColumns: q.ExtraPredicateColumns,
		ProjectColumns:        q.ProjectColumns,
		UseIndex:              q.UseIndex,
		Parallel:              q.Parallel,
		Aggregate:             q.Aggregate,
		AggBytesPerRow:        q.AggBytesPerRow,
		AggCyclesPerRow:       q.AggCyclesPerRow,
	})
	return plan.Optimize(l, nil, &e.Costs).Lower(e.planDeps())
}

// planDeps exposes the engine-side dependencies plan lowering needs.
func (e *Engine) planDeps() plan.Deps {
	return plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce}
}

// cohortMember wraps a planned shareable statement as a cohort-registry
// member and counts it as an active statement. The member's shed deadline
// extends the admission class deadline into the join window; a shed frees the
// admission slot and fires q.OnShed.
func (e *Engine) cohortMember(q *Query, low *plan.Lowered, st *trace.Statement, gran int, issuedAt float64, onDone func(latency float64), release func()) *sharedscan.Member {
	deadline := 0.0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			deadline = issuedAt + d
		}
	}
	e.activeStatements++
	return &sharedscan.Member{
		Key:         low.ShareKey,
		Table:       q.Table,
		Column:      q.Column,
		Selectivity: q.Selectivity,
		Strategy:    q.Strategy,
		HomeSocket:  q.HomeSocket,
		MaxFanout:   gran,
		IssuedAt:    issuedAt,
		Deadline:    deadline,
		Trace:       st,
		SecondOp:    low.SecondOp,
		OnDone: func(lat float64) {
			e.activeStatements--
			if onDone != nil {
				onDone(lat)
			}
		},
		OnShed: func() {
			e.activeStatements--
			if release != nil {
				release()
			}
			if q.OnShed != nil {
				q.OnShed()
			}
		},
	}
}

// submitShared dispatches a shareable planned query through the cohort
// registry: the fixed per-query overhead runs first (as on the private path),
// then the statement joins the registry's lifecycle for its column.
func (e *Engine) submitShared(q *Query, low *plan.Lowered, st *trace.Statement, gran int, issuedAt float64, onDone func(latency float64), release func()) {
	m := e.cohortMember(q, low, st, gran, issuedAt, onDone, release)
	e.afterOverhead(func() { e.Shared.Submit(m) })
}
