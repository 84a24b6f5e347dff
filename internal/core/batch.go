package core

// Plan-driven cohort formation: SubmitBatch plans a multi-statement batch as
// a unit and detects common subplans across statements before any of them
// executes, so scans that share a find phase land in one cohort regardless of
// arrival timing. This is the planner's half of the sharing loop; the
// timing half (join windows, mid-flight attach) stays in sharedscan.

import "numacs/internal/sharedscan"

// SubmitBatch submits a batch of statements that arrived together (one
// multi-statement request, or one scheduler dispatch round). Every statement
// is planned, and statements whose physical plans share a cohort key — the
// planner's common-subplan detection — are handed to the shared-scan registry
// as one plan-driven group (sharedscan.Registry.SubmitGroup), guaranteeing
// they share a physical pass even when a join window would have missed them.
// Statements with unique or unshareable plans take the normal Submit path.
//
// Plan-driven grouping needs the registry and bypasses per-statement
// admission, so with an admission controller installed (or sharing disabled)
// the batch degrades to per-statement Submit calls — admission's queueing
// decisions would otherwise be invisible to the group.
func (e *Engine) SubmitBatch(qs []*Query) {
	if e.Admit != nil || e.Shared == nil {
		for _, q := range qs {
			e.Submit(q)
		}
		return
	}
	issuedAt := e.Sim.Now()
	groups := make(map[string][]*sharedscan.Member)
	var order []string
	for _, q := range qs {
		st := e.Trace.StartStatement(q.Tenant, q.Class.String(), e.spanItem(q), issuedAt)
		low := e.planQuery(q)
		if !low.Shareable {
			e.afterOverhead(e.statement(q.Strategy, q.HomeSocket, 0, issuedAt, st, nil, q.OnDone, low.Ops...).Start)
			continue
		}
		if _, ok := groups[low.ShareKey]; !ok {
			order = append(order, low.ShareKey)
		}
		groups[low.ShareKey] = append(groups[low.ShareKey], e.cohortMember(q, low, st, 0, issuedAt, nil))
	}
	for _, key := range order {
		ms := groups[key]
		// Phase 0: one fixed per-query overhead delay covers the group — each
		// member's overhead flow would run concurrently on its own connection
		// thread and complete at the same instant anyway, so one flow is
		// timing-equivalent and the whole group joins the registry together.
		e.afterOverhead(func() { e.Shared.SubmitGroup(ms) })
	}
}
