// Package core is the execution engine tying the paper's contributions
// together: it schedules concurrent column scans over placed data (Section
// 5.2), applying one of the three task scheduling strategies (OS, Target,
// Bound) and consulting the Page Socket Mappings of the selected column to
// derive task affinities. Statements execute as operator pipelines on the
// internal/exec layer: a query is a scan operator composed with a
// materialization or aggregation operator, driven by task completions on the
// simulated machine; arbitrary compositions (scan -> join -> aggregate) run
// through the same SubmitPipeline entry point.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"numacs/internal/admit"
	"numacs/internal/chaos"
	"numacs/internal/exec"
	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/sched"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"

	"numacs/internal/colstore"
)

// Strategy is a task scheduling strategy (Section 6's OS/Target/Bound).
type Strategy = exec.Strategy

const (
	// OSched leaves scheduling to the operating system: no task affinities,
	// no binding; the OS balances (and migrates) threads.
	OSched = exec.OSched
	// Target assigns task affinities; tasks may still be stolen by other
	// sockets.
	Target = exec.Target
	// Bound assigns task affinities and sets the hard-affinity flag:
	// inter-socket stealing is prevented.
	Bound = exec.Bound
)

// StatementClass is the admission class of a statement (admit.Class): it
// selects the load-shedding deadline when the engine runs with an admission
// controller.
type StatementClass = admit.Class

const (
	// OLAPClass marks heavy analytic scans (generous deadline).
	OLAPClass = admit.OLAP
	// InteractiveClass marks short latency-critical statements such as delta
	// write batches (tight deadline).
	InteractiveClass = admit.Interactive
)

// Costs holds the calibrated cost-model constants.
type Costs = exec.Costs

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs { return exec.DefaultCosts() }

// ItemTraffic accumulates per-data-item memory traffic, used by the adaptive
// data placer to find hot items (Section 7) and — via the per-socket
// breakdown — to tell which copies of a replicated column earn their keep.
type ItemTraffic struct {
	Bytes     float64 // total DRAM bytes attributed to the item
	IVBytes   float64 // bytes from scanning the indexvector
	DictBytes float64 // bytes from dictionary/index random accesses
	// DeltaBytes counts bytes from scanning the item's uncompressed delta
	// fragments — the placer's scan-slowdown merge heuristic keys on their
	// share of the item's scan traffic.
	DeltaBytes float64
	// WriteBytes counts write-side traffic (delta appends and merge
	// rebuilds). Nonzero recent write traffic arms the placer's write-guard:
	// the item is never newly replicated and its write-hot replicas are
	// reclaimed (Section 7's update-rate concern).
	WriteBytes float64
	// PerSocket attributes the item's bytes to the serving socket, when the
	// access had a single identifiable source (replica streams and probes
	// do; interleaved-structure accesses are spread and not attributed).
	PerSocket []float64
}

// Engine executes queries on a simulated machine.
type Engine struct {
	Machine  *topology.Machine
	Sim      *sim.Engine
	HW       *hw.Hardware
	Sched    *sched.Scheduler
	Placer   *placement.Placer
	Counters *metrics.Counters
	Costs    Costs

	// ConcurrencyHintEnabled enables the task-granularity hint of [28]
	// (default true; the ablation benchmark switches it off).
	ConcurrencyHintEnabled bool

	// DisableCoalesce turns off the materialization-preprocessing
	// optimization of Section 5.2 that merges contiguous same-socket output
	// regions before issuing tasks (ablation only).
	DisableCoalesce bool

	// MergesCompleted counts background delta merges that finished, and
	// MergePagesCopied the pages their rebuilds wrote (observability for the
	// write path; see write.go).
	MergesCompleted  int
	MergePagesCopied int64

	// Admit is the optional statement-admission controller (EnableAdmission
	// wires one). When set, Submit and SubmitWrite route through it: queries
	// wait in per-tenant queues under weighted-fair admission, the elastic
	// concurrency loop bounds how many run at once, and overload sheds. Nil
	// means direct dispatch — the pre-admission engine, unchanged.
	Admit *admit.Controller

	// Shared is the optional scan-cohort registry (EnableSharedScans wires
	// one). When set, shareable scans — parallel, index-free,
	// single-predicate statements over single-part tables — route through
	// it: concurrent scans of the same column merge into cohorts that pay
	// one physical memory pass for all member predicates. Nil means every
	// statement traverses its column privately — the pre-sharing engine,
	// unchanged.
	Shared *sharedscan.Registry

	// Chaos is the optional fault injector (EnableChaos wires one). When set,
	// a scheduled fault script runs against the engine mid-simulation: sockets
	// go offline and return, memory controllers and links throttle. Nil — or
	// an empty schedule — leaves every execution path bit-identical to the
	// pre-chaos engine (the hooks are capacity writes and a nil check).
	Chaos *chaos.Injector

	// Trace is the optional flight recorder (EnableTracing wires one). When
	// set, every statement gets a span record threaded through the admission,
	// cohort, and pipeline layers, control-plane decisions land in its
	// decision ring, and (when configured) a sampler actor records windowed
	// counter time-series. Nil leaves every path bit-identical to the
	// untraced engine: tracing is passive, a nil tracer opens nil spans,
	// and span methods are no-ops on nil.
	Trace *trace.Tracer

	env              *exec.Env
	rng              *rand.Rand
	activeStatements int
	itemTraffic      map[string]*ItemTraffic
}

// DefaultStep is the simulator step length. 20 µs keeps task-dispatch
// quantization well below typical task durations; large-machine experiments
// pass a coarser step explicitly for speed.
const DefaultStep = 20e-6

// New creates an engine for the machine with all substrates wired up.
func New(m *topology.Machine, seed int64) *Engine {
	return NewWithStep(m, seed, DefaultStep)
}

// NewWithStep creates an engine with an explicit simulator step length.
func NewWithStep(m *topology.Machine, seed int64, step float64) *Engine {
	simEngine := sim.New(step)
	h := hw.New(simEngine, m)
	counters := metrics.New(m.Sockets)
	scheduler := sched.New(h, counters)
	simEngine.AddActor(scheduler)
	e := &Engine{
		Machine:                m,
		Sim:                    simEngine,
		HW:                     h,
		Sched:                  scheduler,
		Placer:                 placement.New(m),
		Counters:               counters,
		Costs:                  DefaultCosts(),
		ConcurrencyHintEnabled: true,
		rng:                    rand.New(rand.NewSource(seed)),
		itemTraffic:            make(map[string]*ItemTraffic),
	}
	e.env = &exec.Env{
		Machine:         m,
		Sim:             simEngine,
		HW:              h,
		Sched:           scheduler,
		Counters:        counters,
		Costs:           &e.Costs,
		Rand:            e.rng,
		ConcurrencyHint: e.ConcurrencyHint,
		AddItemTraffic:  e.addItemTraffic,
	}
	return e
}

// ExecEnv returns the engine's operator-pipeline environment, for composing
// raw exec pipelines outside the statement entry points.
func (e *Engine) ExecEnv() *exec.Env { return e.env }

// EnableAdmission puts an admission controller in front of the engine's
// Submit and SubmitWrite paths and registers it as a simulation actor. It
// returns the controller for stats and tracing. Call it once, before
// submitting statements.
func (e *Engine) EnableAdmission(cfg admit.Config) *admit.Controller {
	if e.Admit != nil {
		panic("core: admission already enabled")
	}
	c := admit.New(cfg, e.env)
	e.Sim.AddActor(c)
	e.Admit = c
	return c
}

// EnableSharedScans puts a scan-cohort registry on the engine's Submit path
// and registers it as a simulation actor: concurrent shareable scans of the
// same column merge into cohorts that share one physical pass. It returns
// the registry for stats. Call it once, before submitting statements.
func (e *Engine) EnableSharedScans(cfg sharedscan.Config) *sharedscan.Registry {
	if e.Shared != nil {
		panic("core: shared scans already enabled")
	}
	r := sharedscan.New(cfg, e.env)
	e.Sim.AddActor(r)
	e.Shared = r
	return r
}

// EnableChaos registers a fault injector driven by the declarative schedule
// and returns it for assertions on the applied-fault log. tables lists the
// tables whose columns socket faults invalidate replicas of. Call it once,
// before running the simulation; an empty schedule is a valid (and inert)
// configuration, pinned bit-identical to the pre-chaos engine by the harness
// golden test.
func (e *Engine) EnableChaos(cfg chaos.Config, tables ...*colstore.Table) *chaos.Injector {
	if e.Chaos != nil {
		panic("core: chaos already enabled")
	}
	var cols []*colstore.Column
	for _, t := range tables {
		for _, p := range t.Parts {
			cols = append(cols, p.Columns...)
		}
	}
	in := chaos.New(cfg, e.env, e.Placer, cols)
	e.Sim.AddActor(in)
	e.Chaos = in
	return in
}

// EnableTracing wires the flight recorder: statement spans on every Submit /
// SubmitWrite / SubmitPipeline path, control-plane decisions (placer moves,
// AIMD steps, cohort lifecycle, chaos faults, delta merges) in a bounded ring,
// and — when cfg.SampleInterval > 0 — a sampler actor recording windowed
// counter deltas. It returns the tracer for export and assertions. Call it
// once; it composes with the other Enable* calls in either order, because
// every decision source reads the tracer through the engine's exec.Env when
// it records. Tracing is passive — it never starts flows or mutates engine
// state — so a traced run is bit-identical to an untraced one (pinned by the
// harness golden test).
func (e *Engine) EnableTracing(cfg trace.Config) *trace.Tracer {
	if e.Trace != nil {
		panic("core: tracing already enabled")
	}
	t := trace.New(cfg, e.Machine.Sockets)
	if cfg.SampleInterval > 0 {
		s := trace.NewSampler(cfg.SampleInterval, e.Counters)
		s.QueueDepths = e.Sched.SocketQueueDepths
		e.Sim.AddActor(s)
		t.Sampler = s
	}
	e.Trace = t
	e.env.Trace = t
	return t
}

// ActiveStatements returns the number of in-flight queries.
func (e *Engine) ActiveStatements() int { return e.activeStatements }

// ItemTraffic returns the accumulated per-item traffic map.
func (e *Engine) ItemTraffic() map[string]*ItemTraffic { return e.itemTraffic }

// ResetItemTraffic clears per-item accounting (used by the adaptive placer
// between balancing rounds).
func (e *Engine) ResetItemTraffic() { e.itemTraffic = make(map[string]*ItemTraffic) }

// Fingerprint returns the canonical text of what the simulated machine did:
// every metrics.Counters field with exact float formatting, the full latency
// sequence included, then one line per item-traffic entry sorted by name.
// Equal fingerprints mean bit-identical runs. Layer bookkeeping (cohort
// stats) and traces are deliberately left out, so an engine with an optional
// layer switched on can be compared with one that lacks it.
func (e *Engine) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counters %+v\n", *e.Counters)
	names := make([]string, 0, len(e.itemTraffic))
	for name := range e.itemTraffic {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "item %s %+v\n", name, *e.itemTraffic[name])
	}
	return b.String()
}

// ConcurrencyHint returns the task-granularity budget for one partitionable
// operation: the machine's hardware contexts divided by the number of
// concurrently active statements [28]. Without the hint, operations always
// fan out to the maximum.
func (e *Engine) ConcurrencyHint() int {
	total := e.Machine.TotalThreads()
	if !e.ConcurrencyHintEnabled {
		return total
	}
	n := e.activeStatements
	if n < 1 {
		n = 1
	}
	h := total / n
	if h < 1 {
		h = 1
	}
	return h
}

// Query describes one SELECT ... WHERE col BETWEEN ? AND ? execution.
type Query struct {
	Table       *colstore.Table
	Column      string
	Selectivity float64

	// ExtraPredicateColumns adds conjunctive range predicates on further
	// columns: the find phase of Section 5.2 is repeated, in parallel, for
	// each predicate column, and the qualifying set is their intersection
	// (the paper discusses this generalization in Section 6). Each extra
	// predicate uses the same Selectivity.
	ExtraPredicateColumns []string
	// ProjectColumns projects additional columns: the materialization phase
	// is repeated, in parallel, for each projected column (ibid.). The
	// predicate column itself is always materialized.
	ProjectColumns []string
	// UseIndex permits index lookups when the column has an index and the
	// optimizer's selectivity threshold admits them.
	UseIndex bool
	// Parallel enables intra-query parallelism (on in most experiments).
	Parallel bool
	Strategy Strategy
	// HomeSocket is where the client's connection thread runs.
	HomeSocket int
	// OnDone fires at completion with the query latency in seconds. Under
	// admission control the latency includes the admission-queue wait.
	OnDone func(latency float64)

	// Tenant names the issuing tenant for admission control; ignored (and
	// irrelevant) when the engine has no controller.
	Tenant string
	// Class is the statement's admission class (OLAP unless set); it selects
	// the load-shedding deadline.
	Class admit.Class
	// OnShed fires instead of OnDone when the admission controller sheds the
	// statement under overload.
	OnShed func()

	// Aggregate turns the second phase into an aggregation over the
	// qualifying rows instead of an output materialization (Section 6.3:
	// aggregations are parallelized like scans and task affinities are
	// defined the same way). AggBytesPerRow is the payload streamed from the
	// aggregated columns per qualifying row (local to the part under PP);
	// AggCyclesPerRow is the per-row compute — high for TPC-H Q1's
	// multiplications, low for BW-EML's simple expressions.
	Aggregate       bool
	AggBytesPerRow  float64
	AggCyclesPerRow float64
}

// Submit starts executing a query as a two-operator pipeline (find phase,
// then materialization or aggregation); completion is reported via q.OnDone.
// With admission enabled the statement routes through the controller: it may
// wait in its tenant's queue (the wait counts toward the reported latency
// and ages its task priority), run with a coarsened fan-out, or be shed.
func (e *Engine) Submit(q *Query) {
	admitOrRun(e, q.Tenant, q.Class, e.spanItem(q), q.OnShed, q, (*Engine).submitQuery)
}

// admitOrRun is the front half of the admitted entry points (Submit,
// SubmitWrite): it opens the statement's span, then runs the statement now
// (uncapped, timestamped with the current instant) or, with an admission
// controller installed, queues it under its tenant. run receives arg, the
// span, the fan-out cap, the statement timestamp, and release, which frees
// the admission slot (nil when the statement bypassed admission). Passing
// arg through instead of capturing it keeps the bypass free of a closure.
func admitOrRun[T any](e *Engine, tenant string, class admit.Class, item string, onShed func(), arg T,
	run func(e *Engine, arg T, st *trace.Statement, gran int, issuedAt float64, release func())) {
	st := e.Trace.StartStatement(tenant, class.String(), item, e.Sim.Now())
	if e.Admit == nil {
		run(e, arg, st, 0, e.Sim.Now(), nil)
		return
	}
	e.Admit.Submit(&admit.Statement{
		Tenant: tenant,
		Class:  class,
		Trace:  st,
		OnShed: onShed,
		Run: func(gran int, issuedAt float64, done func()) {
			run(e, arg, st, gran, issuedAt, done)
		},
	})
}

// spanItem names q's span after the scanned data item (table.column). The
// name is built only when tracing, since the concatenation allocates.
func (e *Engine) spanItem(q *Query) string {
	if e.Trace == nil {
		return ""
	}
	return q.Table.Name + "." + q.Column
}

// submitQuery plans the query and dispatches it with the given fan-out cap
// and statement timestamp: a shareable plan joins the cohort registry, any
// other runs its private pipeline. release, when non-nil, frees the
// statement's admission-concurrency slot; it runs before the query's own
// completion (or shed) callback.
func (e *Engine) submitQuery(q *Query, st *trace.Statement, gran int, issuedAt float64, release func()) {
	low := e.planQuery(q)
	if e.Shared != nil && low.Shareable {
		m := e.cohortMember(q, low, st, gran, issuedAt, release)
		e.afterOverhead(func() { e.Shared.Submit(m) })
		return
	}
	e.afterOverhead(e.statement(q.Strategy, q.HomeSocket, gran, issuedAt, st, release, q.OnDone, low.Ops...).Start)
}

// SubmitPipeline executes composed operators as one SQL statement: the fixed
// per-query overhead runs first on the client's connection thread, the
// statement counts toward the concurrency hint while in flight, and every
// operator task carries the statement timestamp as its priority. The
// completion latency (including the overhead) is recorded and reported via
// onDone.
func (e *Engine) SubmitPipeline(strategy Strategy, homeSocket int, onDone func(latency float64), ops ...exec.Operator) {
	now := e.Sim.Now()
	st := e.Trace.StartStatement("", "", "pipeline", now)
	e.afterOverhead(e.statement(strategy, homeSocket, 0, now, st, nil, onDone, ops...).Start)
}

// statement is the one place a statement is built: it counts the statement
// as active until it completes and returns its pipeline over ops, carrying
// the scheduling context (strategy, home socket, timestamp, fan-out cap
// where 0 is uncapped) and the span. A cohort member's pipeline has no ops
// yet; the registry sets them at launch. release, when non-nil, frees the
// admission slot just before onDone fires.
func (e *Engine) statement(strategy Strategy, homeSocket, maxFanout int, issuedAt float64, st *trace.Statement,
	release func(), onDone func(latency float64), ops ...exec.Operator) *exec.Pipeline {
	e.activeStatements++
	return &exec.Pipeline{
		Env:        e.env,
		Strategy:   strategy,
		HomeSocket: homeSocket,
		IssuedAt:   issuedAt,
		MaxFanout:  maxFanout,
		Ops:        ops,
		Trace:      st,
		OnDone: func(lat float64) {
			e.activeStatements--
			if release != nil {
				release()
			}
			if onDone != nil {
				onDone(lat)
			}
		},
	}
}

// afterOverhead runs phase 0 of every statement — the fixed per-query
// overhead (parse/plan/session) — and then calls next. The overhead runs on
// the client's connection thread, a receiver thread outside the worker pool,
// so it adds latency without occupying a worker (units are seconds; the rate
// cap of 1 makes the flow a pure delay).
func (e *Engine) afterOverhead(next func()) {
	e.Sim.StartFlow(&sim.Flow{
		Remaining: e.Costs.QueryOverheadSeconds,
		RateCap:   1,
		OnDone:    next,
	})
}

// addItemTraffic attributes traffic to a data item for the adaptive placer.
// socket is the serving socket, or -1 when the access spread over several
// sockets (interleaved structures).
func (e *Engine) addItemTraffic(item string, socket int, t exec.Traffic) {
	it := e.itemTraffic[item]
	if it == nil {
		it = &ItemTraffic{PerSocket: make([]float64, e.Machine.Sockets)}
		e.itemTraffic[item] = it
	}
	it.Bytes += t.Bytes
	it.IVBytes += t.IVBytes
	it.DictBytes += t.DictBytes
	it.DeltaBytes += t.DeltaBytes
	it.WriteBytes += t.WriteBytes
	if socket >= 0 && socket < len(it.PerSocket) {
		it.PerSocket[socket] += t.Bytes
	}
}
