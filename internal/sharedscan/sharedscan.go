// Package sharedscan is the scan-cohort layer between statement admission
// and operator execution. The paper's setting is many concurrent scans
// contending for memory bandwidth, yet each admitted statement traverses its
// column privately — 16 concurrent scans of a read-hot column pay 16 full
// memory passes, so the engine is memory-controller-bound long before the
// cores are. This package merges concurrent range-predicate scans of the
// same column into cohorts that share ONE physical pass (shared /
// cooperative scans in the style of Crescando and SAP HANA scan sharing):
//
//   - A per-column registry tracks one in-flight pass and one forming cohort
//     per column. The first arrival on an idle column launches immediately —
//     the uncontended path is a bypass, bit-identical to the unshared engine
//     (pinned by a harness golden test).
//   - An arrival while a pass is in its early fraction attaches mid-flight,
//     ClockScan-style: it rides the remainder of the running pass and a
//     wrap-around partial pass re-streams only the prefix it missed, shared
//     by all attachers of that generation.
//   - An arrival too late to attach waits in a forming cohort for up to
//     Config.JoinWindow (or until the running pass completes), merging with
//     every other arrival of the window into the next pass.
//
// Accounting is honest on both axes: physical MC/link/LLC traffic is charged
// once per cohort pass, while every member statement attributes its full
// logical per-item traffic so the adaptive placer's read-heat signal is
// undiminished (the mirror image of the delta-merge rule, which charges
// physical traffic but withholds the logical write signal). Each member's
// reported latency runs from its own submission — join-window wait included
// — so admission p99s stay truthful, and a member whose admission deadline
// expires while it waits in a join window is shed through its OnShed hook.
package sharedscan

import (
	"fmt"
	"math"

	"numacs/internal/exec"
	"numacs/internal/trace"
)

// Config tunes the cohort registry. The zero value is usable: New fills
// every zero field with the documented default.
type Config struct {
	// JoinWindow is the longest a statement waits in a forming cohort, in
	// virtual seconds (default 1 ms). The cohort also launches early when
	// the pass it queued behind completes. Zero takes the default; negative
	// disables waiting (every non-attachable arrival launches its own pass).
	JoinWindow float64
	// AttachFraction bounds mid-flight attachment: an arrival attaches to a
	// running pass only while the pass has streamed at most this fraction of
	// its bytes (default 0.75). Beyond it, the wrap-around pass would
	// re-stream most of the column and sharing stops paying. Zero takes the
	// default; negative disables attachment (arrivals during a pass always
	// queue in the forming cohort).
	AttachFraction float64
}

// maxCohort caps the members of one pass, attachers included; a forming
// cohort that reaches the cap launches immediately.
const maxCohort = 64

// Member is one shareable scan statement handed to the registry: the
// statement itself, its planned find phase, and the hooks the registry
// drives its lifecycle through.
type Member struct {
	// Key identifies the shared data item (table.column); scans with equal
	// keys may share a pass.
	Key string
	// Pipeline is the statement with its Ops unset: its scheduling context
	// (IssuedAt, the task priority and latency base, so join-window wait
	// counts toward both; MaxFanout, the admission cap the cohort's budget
	// sums), its completion hook, and its span, on which the registry
	// stamps the cohort lifecycle (join-window wait, attach, launch, shed).
	// The registry sets Ops and starts it when the member's role is known.
	Pipeline *exec.Pipeline
	// Scan is the member's planned find operator (plan.Lowered.Scan): a
	// parallel, index-free, single-predicate scan of a single-part table.
	// The registry turns a cohort leader's (and an attacher generation's
	// first member's) into the shared pass; the other members contribute
	// only their Selectivity.
	Scan *exec.ScanOp
	// Deadline is the absolute virtual time after which the statement is
	// shed instead of launched (0 = none) — the admission class deadline
	// extended into the join window.
	Deadline float64
	// SecondOp builds the member's private output phase (materialization or
	// aggregation) over its find-phase regions.
	SecondOp func(src exec.RegionSource) exec.Operator
	// OnShed fires instead of the pipeline's OnDone when the member is shed
	// from a join window. It may reenter Submit synchronously (closed-loop
	// clients reissue), so the registry compacts its queues before firing it.
	OnShed func()
}

// Stats counts registry outcomes for reports and tests.
type Stats struct {
	// Statements counts members submitted; Passes counts physical cohort
	// passes launched (wrap passes excluded).
	Statements, Passes uint64
	// Solo counts passes launched with a single member — the bypass path.
	Solo uint64
	// Merged counts members that shared another member's pass at launch;
	// Attached counts members that attached to a pass mid-flight.
	Merged, Attached uint64
	// Wraps counts wrap-around passes run for attacher generations.
	Wraps uint64
	// Shed counts members shed while waiting in a join window.
	Shed uint64
	// PlanGrouped counts members that entered through a plan-driven group
	// (SubmitGroup): the planner's common-subplan detection, not arrival
	// timing, placed them in one cohort submission.
	PlanGrouped uint64
}

// cohort is one pass's membership: launch members (leader first), mid-flight
// attachers, and the forming-window deadline before launch.
type cohort struct {
	members   []*Member
	attachers []*Member
	pass      *exec.ScanOp
	launchAt  float64
	maxMissed float64 // largest pass fraction any attacher missed
}

// keyState is the registry's per-column state: at most one running pass
// (attachable) and one forming cohort (waiting) per key.
type keyState struct {
	running *cohort
	forming *cohort
}

// Registry is the cohort layer: route shareable scans through Submit and
// register it as a simulation actor (core.Engine.EnableSharedScans does
// both wirings).
type Registry struct {
	cfg   Config
	env   *exec.Env
	byKey map[string]*keyState
	keys  []*keyState // deterministic Tick order
	stats Stats
}

// New builds a registry on the engine's simulator. Zero config fields take
// the documented defaults. With tracing on (env.Trace), the registry records
// cohort launches, mid-flight attaches, wrap passes, and join-window sheds,
// with their membership numbers, in the decision log.
func New(cfg Config, env *exec.Env) *Registry {
	if cfg.JoinWindow == 0 {
		cfg.JoinWindow = 1e-3
	}
	if cfg.JoinWindow < 0 {
		cfg.JoinWindow = 0
	}
	if cfg.AttachFraction == 0 {
		cfg.AttachFraction = 0.75
	}
	return &Registry{cfg: cfg, env: env, byKey: make(map[string]*keyState)}
}

// Stats returns the registry outcome counters.
func (r *Registry) Stats() Stats { return r.stats }

// MeanCohort returns the mean members per physical pass (attachers counted
// toward their ridden pass; 0 before the first pass).
func (r *Registry) MeanCohort() float64 {
	if r.stats.Passes == 0 {
		return 0
	}
	return float64(r.stats.Statements-r.stats.Shed) / float64(r.stats.Passes)
}

// state returns (creating if needed) the per-key state.
func (r *Registry) state(key string) *keyState {
	ks, ok := r.byKey[key]
	if !ok {
		ks = &keyState{}
		r.byKey[key] = ks
		r.keys = append(r.keys, ks)
	}
	return ks
}

// Submit routes one shareable scan statement into the cohort lifecycle: an
// idle column launches it immediately (the bypass), an early-fraction
// running pass absorbs it mid-flight, anything else queues it in the
// forming cohort for at most JoinWindow.
func (r *Registry) Submit(m *Member) {
	r.SubmitGroup([]*Member{m})
}

// SubmitGroup routes a group of members sharing one cohort key into the
// lifecycle as a unit: core.SubmitBatch hands it the members whose physical
// plans share a cohort key (a plan-driven group), and Submit a group of
// one. The group rides the forming cohort, attaches to the running pass
// when the whole group fits under the attach bound, or else launches or
// queues together, so plan-time grouping never splits a detected common
// subplan and no member waits out a join window for the others.
func (r *Registry) SubmitGroup(g []*Member) {
	key, now := g[0].Key, r.env.Sim.Now()
	if len(g) > 1 {
		r.stats.PlanGrouped += uint64(len(g))
		if r.env.Trace != nil {
			r.env.Trace.Decisions.Record(trace.Decision{
				Time: now, Source: "cohort", Kind: "plan-group", Item: key, From: -1, To: -1,
				Cause: fmt.Sprintf("planner grouped %d statements on a common subplan", len(g)),
			})
		}
	}
	r.stats.Statements += uint64(len(g))
	for _, m := range g {
		m.Pipeline.Trace.MarkCohortQueued(now)
	}
	ks := r.state(key)
	if c := ks.forming; c != nil {
		c.members = append(c.members, g...)
		if len(c.members) >= maxCohort {
			ks.forming = nil
			r.launch(ks, c)
		}
		return
	}
	if c := ks.running; c != nil {
		if len(c.members)+len(c.attachers)+len(g) <= maxCohort {
			// Fraction is never negative, so a negative bound never attaches.
			if f := c.pass.Fraction(); f <= r.cfg.AttachFraction {
				if f > c.maxMissed {
					c.maxMissed = f
				}
				c.attachers = append(c.attachers, g...)
				r.stats.Attached += uint64(len(g))
				for _, m := range g {
					m.Pipeline.Trace.MarkAttached()
					m.Pipeline.Trace.MarkCohortLaunched(now)
				}
				if r.env.Trace != nil {
					cause := fmt.Sprintf("running pass at %.0f%% of its bytes (attach bound %.0f%%), %d riders",
						f*100, r.cfg.AttachFraction*100, len(c.attachers))
					if len(g) > 1 {
						cause = fmt.Sprintf("plan group of %d attached at %.0f%% of the running pass (attach bound %.0f%%)",
							len(g), f*100, r.cfg.AttachFraction*100)
					}
					r.env.Trace.Decisions.Record(trace.Decision{
						Time: now, Source: "cohort", Kind: "attach", Item: key, From: -1, To: -1, Cause: cause,
					})
				}
				return
			}
		}
		ks.forming = &cohort{members: append([]*Member(nil), g...), launchAt: now + r.cfg.JoinWindow}
		return
	}
	r.launch(ks, &cohort{members: append([]*Member(nil), g...)})
}

// Tick implements sim.Actor: shed join-window waiters whose deadline passed
// and launch forming cohorts whose window closed.
func (r *Registry) Tick(now float64) {
	for _, ks := range r.keys {
		c := ks.forming
		if c == nil {
			continue
		}
		expired := r.compactExpired(c, now)
		if len(c.members) == 0 {
			ks.forming = nil
		} else if now >= c.launchAt {
			ks.forming = nil
			r.launch(ks, c)
		}
		r.fireSheds(expired)
	}
}

// compactExpired removes members past their deadline from the cohort and
// returns them; the caller fires their OnShed hooks only after the registry
// state is consistent (OnShed may reenter Submit).
func (r *Registry) compactExpired(c *cohort, now float64) []*Member {
	var expired []*Member
	kept := c.members[:0]
	for _, m := range c.members {
		if m.Deadline > 0 && now > m.Deadline {
			expired = append(expired, m)
		} else {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(c.members); i++ {
		c.members[i] = nil
	}
	c.members = kept
	return expired
}

// fireSheds counts and fires the shed hooks.
func (r *Registry) fireSheds(expired []*Member) {
	now := r.env.Sim.Now()
	for _, m := range expired {
		r.stats.Shed++
		m.Pipeline.Trace.MarkShed(now, "join-window")
		if r.env.Trace != nil {
			issued := m.Pipeline.IssuedAt
			r.env.Trace.Decisions.Record(trace.Decision{
				Time: now, Source: "cohort", Kind: "shed", Item: m.Key, From: -1, To: -1,
				Cause: fmt.Sprintf("statement waited %.2fms > %.2fms deadline in the join window",
					(now-issued)*1e3, (m.Deadline-issued)*1e3),
			})
		}
		if m.OnShed != nil {
			m.OnShed()
		}
	}
}

// launch starts a cohort's physical pass: the leader's (first member's)
// pipeline, whose planned find phase becomes the pass carrying every
// member's predicate, with the leader's own output phase downstream.
// ks.running is set before any hook can run, so reentrant submissions see a
// consistent registry.
func (r *Registry) launch(ks *keyState, c *cohort) {
	expired := r.compactExpired(c, r.env.Sim.Now())
	if len(c.members) == 0 {
		r.fireSheds(expired)
		return
	}
	leader := c.members[0]
	c.pass = pass(c.members)
	c.pass.OnClosed = func() { r.mainDone(ks, c) }
	r.stats.Passes++
	if len(c.members) == 1 {
		r.stats.Solo++
	} else {
		r.stats.Merged += uint64(len(c.members) - 1)
	}
	now := r.env.Sim.Now()
	for _, m := range c.members {
		m.Pipeline.Trace.MarkCohortLaunched(now)
	}
	if r.env.Trace != nil {
		r.env.Trace.Decisions.Record(trace.Decision{
			Time: now, Source: "cohort", Kind: "launch", Item: leader.Key, From: -1, To: -1,
			Cause: fmt.Sprintf("%d members share one pass (fan-out cap %d)",
				len(c.members), c.pass.FanoutCap),
		})
	}
	ks.running = c
	start(leader, c.pass, leader.SecondOp(c.pass))
	r.fireSheds(expired)
}

// mainDone runs at the cohort pass's find barrier: followers' statements
// start (their find phase is already materialized in their regions), the
// attacher generation's wrap pass launches, and the column's forming cohort
// — which was waiting behind this pass — launches immediately.
func (r *Registry) mainDone(ks *keyState, c *cohort) {
	for i, m := range c.members[1:] {
		startFollower(m, c.pass.MemberRegions(i+1))
	}
	if len(c.attachers) > 0 {
		r.stats.Wraps++
		al := c.attachers[0]
		wrap := pass(c.attachers)
		// A generation that attached before the pass streamed a byte missed
		// nothing; the smallest positive share still marks the op a wrap
		// pass and rounds to an empty prefix.
		wrap.Wrap = math.Max(c.maxMissed, math.SmallestNonzeroFloat64)
		wrap.OnClosed = func() {
			for i, m := range c.attachers[1:] {
				startFollower(m, wrap.MemberRegions(i+1))
			}
		}
		if r.env.Trace != nil {
			r.env.Trace.Decisions.Record(trace.Decision{
				Time: r.env.Sim.Now(), Source: "cohort", Kind: "wrap", Item: al.Key, From: -1, To: -1,
				Cause: fmt.Sprintf("%d attachers re-stream the missed %.0f%% prefix",
					len(c.attachers), c.maxMissed*100),
			})
		}
		start(al, wrap, al.SecondOp(wrap))
	}
	// A newer cohort may already have replaced this one as the column's
	// running pass (Tick launches a forming cohort when its window closes
	// even while an older pass is still streaming); only the current
	// incumbent clears the slot and early-launches the cohort queued behind
	// it.
	if ks.running == c {
		ks.running = nil
		if f := ks.forming; f != nil {
			// The pass this cohort queued behind is done — no reason to
			// keep waiting out the window.
			ks.forming = nil
			r.launch(ks, f)
		}
	}
}

// startFollower starts one follower statement: its find phase is the
// precomputed region set (instant), its output phase the member's own.
func startFollower(m *Member, regions []exec.Region) {
	src := &exec.StaticRegions{Rs: regions}
	start(m, src, m.SecondOp(src))
}

// start runs the member's statement pipeline over ops.
func start(m *Member, ops ...exec.Operator) {
	m.Pipeline.Ops = ops
	m.Pipeline.Start()
}

// pass turns the first member's planned scan into the pass of a cohort or
// attacher generation: it evaluates every member's predicate (the first
// member's own Selectivity, then the rest as Followers) under the members'
// combined admission fan-out budget, the sum of their per-statement caps,
// or 0 (uncapped) when any member was admitted without one.
func pass(ms []*Member) *exec.ScanOp {
	s := ms[0].Scan
	capped := true
	for i, m := range ms {
		if i > 0 {
			s.Followers = append(s.Followers, m.Scan.Selectivity)
		}
		capped = capped && m.Pipeline.MaxFanout > 0
		s.FanoutCap += m.Pipeline.MaxFanout
	}
	if !capped {
		s.FanoutCap = 0
	}
	return s
}
