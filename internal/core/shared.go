package core

// The engine's planning and shared-scan glue: every plain statement is built
// into a logical plan, optimized, and lowered to exec operators, and a
// statement whose lowered plan is shareable is handed to the
// sharedscan.Registry as a cohort member instead of dispatching its private
// ScanOp. The member carries the statement's pipeline (ops unset), its
// lowered find operator, its output-phase factory, and its shed hook, so the
// registry can merge concurrent same-column scans into one physical pass
// while every statement keeps its own latency, logical traffic, and
// completion callbacks.

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
	deps := plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce}
	return plan.Optimize(l, nil, &e.Costs).Lower(deps)
}

// cohortMember wraps a planned shareable statement as a cohort-registry
// member: its pipeline (counted as an active statement, ops unset) and its
// lowered find operator, which the registry turns into a shared pass when
// the member leads a cohort. The member's shed deadline extends the
// admission class deadline into the join window; a shed frees the admission
// slot and fires q.OnShed.
func (e *Engine) cohortMember(q *Query, low *plan.Lowered, st *trace.Statement, gran int, issuedAt float64, release func()) *sharedscan.Member {
	deadline := 0.0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			deadline = issuedAt + d
		}
	}
	return &sharedscan.Member{
		Key:      low.ShareKey,
		Pipeline: e.statement(q.Strategy, q.HomeSocket, gran, issuedAt, st, release, q.OnDone),
		Scan:     low.Scan,
		Deadline: deadline,
		SecondOp: low.SecondOp,
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
