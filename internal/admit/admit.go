// Package admit is the statement-admission and elastic-concurrency front end
// sitting between clients and the execution engine. The Section 5.1
// scheduler orders and steals tasks well, but nothing in the paper's engine
// governs how much work *enters* it: every statement fans out its full task
// set immediately, so under heavy concurrent traffic the priority queues
// grow without bound and tail latency is unbounded — the overload regime the
// paper's concurrency discussion (Section 5) warns about. This package
// closes that gap with three cooperating mechanisms:
//
//   - Weighted-fair admission: statements wait in per-tenant queues and are
//     admitted by start-time fair queuing over the tenant weights, with
//     priority aging of queue heads, so a greedy tenant cannot starve the
//     others and every tenant's goodput tracks its weight share.
//   - Elastic concurrency: a control loop watches scheduler saturation (free
//     and parked worker counts, per-thread-group queue depths) and adapts
//     both the number of concurrently admitted statements (AIMD) and the
//     per-statement task granularity — fan-out splits coarser when queues
//     are deep and finer when sockets idle (the exec.Pipeline MaxFanout
//     lever).
//   - Load shedding: per-class queue-wait deadlines (heavy OLAP scans vs
//     short Interactive delta writes) drop statements that can no longer
//     meet their latency target, keeping the p99 of completed statements
//     bounded when offered load exceeds capacity.
//
// An idle controller is a bypass: a statement submitted when a concurrency
// slot is free and no one queues is dispatched synchronously with no fan-out
// cap, so the uncontended path is bit-identical to calling the engine
// directly (pinned by the harness golden test).
package admit

import (
	"fmt"
	"math"

	"numacs/internal/metrics"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/trace"
)

// Class buckets statements by their latency contract; each class has its own
// shedding deadline.
type Class int

const (
	// OLAP is the heavy-scan class: analytic statements that fan out across
	// the machine and tolerate a generous deadline.
	OLAP Class = iota
	// Interactive is the short-statement class (delta write batches, point
	// work): cheap to run, latency-critical, tight deadline.
	Interactive
)

// String names the class.
func (c Class) String() string {
	switch c {
	case OLAP:
		return "OLAP"
	case Interactive:
		return "interactive"
	default:
		return "class(?)"
	}
}

// Statement is one unit of admission: a deferred dispatch into the engine.
type Statement struct {
	// Tenant names the issuing tenant; unknown tenants are auto-registered
	// with weight 1.
	Tenant string
	// Class selects the shedding deadline.
	Class Class
	// Run dispatches the statement into the engine when admitted: gran is
	// the task-fan-out cap (0 = uncapped), issuedAt the admission-queue
	// arrival time — the statement's tasks carry it as their scheduler
	// priority, so a statement that waited long enters the task queues aged
	// ahead of fresh ones — and done must be called when the statement
	// completes.
	Run func(gran int, issuedAt float64, done func())
	// OnShed fires instead of Run when load shedding drops the statement
	// (queue wait exceeded the class deadline). Nil is allowed.
	OnShed func()
	// Trace is the statement's flight-recorder span (nil when untraced): the
	// controller stamps the admission instant onto it at dispatch and the
	// shed instant when load shedding drops it.
	Trace *trace.Statement

	enqueued float64
}

// TenantSpec configures one tenant's weight for fair admission.
type TenantSpec struct {
	// Name identifies the tenant in Statement.Tenant.
	Name string
	// Weight is the tenant's fair share (1 when zero).
	Weight float64
}

// Config tunes the controller. The zero value is usable: New fills every
// zero field with the documented default.
type Config struct {
	// Tenants pre-registers tenants with weights; statements from unlisted
	// tenants auto-register with weight 1.
	Tenants []TenantSpec

	// MinConcurrent and MaxConcurrent bound the elastic concurrency limit
	// (defaults: 2 and the machine's worker count).
	MinConcurrent, MaxConcurrent int
	// InitialConcurrent is the starting limit (default: MaxConcurrent — the
	// controller throttles down from open, so an uncontended engine never
	// sees admission queuing).
	InitialConcurrent int

	// Period is the control-loop interval in virtual seconds (default 1 ms,
	// the watchdog's cadence).
	Period float64
	// HighQueuePerWorker is the saturation watermark: when the machine-wide
	// task-queue depth per worker exceeds it, the limit multiplicatively
	// decreases and the statement granularity coarsens (default 2).
	HighQueuePerWorker float64
	// LowQueuePerWorker is the idle watermark: below it, with at least
	// IdleWorkerFraction of the workers free, the limit additively increases
	// and granularity refines (defaults 0.5 and 0.1).
	LowQueuePerWorker  float64
	IdleWorkerFraction float64

	// OLAPDeadline and InteractiveDeadline are the per-class queue-wait
	// deadlines in virtual seconds; a statement still queued past its
	// deadline is shed. Zero disables shedding for the class.
	OLAPDeadline        float64
	InteractiveDeadline float64

	// AgingRate converts a queue head's wait into a virtual-time credit
	// (units of virtual service per second waited): the admission pick key
	// is the tenant's virtual finish time minus AgingRate x head wait, so
	// long-waiting heads age ahead even across weight differences
	// (default 0 — pure weighted fairness, which is already starvation-free).
	AgingRate float64
}

// ControlSample is one control-loop observation, kept for reports: the
// elastic limit and granularity cap with the saturation signals that
// produced them.
type ControlSample struct {
	// Time is the virtual timestamp of the sample.
	Time float64
	// Limit and GranCap are the controller outputs after the decision.
	Limit, GranCap int
	// InFlight, QueuedStatements, QueuedTasks and FreeWorkers are the
	// observed inputs.
	InFlight, QueuedStatements, QueuedTasks, FreeWorkers int
}

// TenantStats is the per-tenant admission outcome.
type TenantStats struct {
	// Name and Weight echo the tenant registration.
	Name   string
	Weight float64
	// Submitted counts statements handed to Submit, Admitted the ones
	// dispatched, Completed the ones that finished, Shed the ones dropped by
	// load shedding.
	Submitted, Admitted, Completed, Shed uint64
	// Latency records admission-to-completion latencies (queue wait
	// included); Wait records the queue wait of admitted statements.
	Latency *metrics.Histogram
	Wait    *metrics.Histogram
}

// tenant is the controller-internal per-tenant state.
type tenant struct {
	stats TenantStats
	queue []*Statement
	head  int // pop cursor; queue[head:] is the backlog
	// vfinish is the tenant's virtual finish time under start-time fair
	// queuing: admitting one statement advances it by 1/weight.
	vfinish float64
}

// backlog returns the tenant's queued statements.
func (t *tenant) backlog() int { return len(t.queue) - t.head }

// pop removes and returns the oldest queued statement.
func (t *tenant) pop() *Statement {
	st := t.queue[t.head]
	t.queue[t.head] = nil
	t.head++
	if t.head == len(t.queue) {
		t.queue = t.queue[:0]
		t.head = 0
	}
	return st
}

// Controller is the admission front end. Register it as a simulation actor
// (core.Engine.EnableAdmission does) and route statements through Submit.
type Controller struct {
	cfg     Config
	sched   *sched.Scheduler
	sim     *sim.Engine
	workers int

	tenants []*tenant
	byName  map[string]int

	inflight    int
	limit       int
	granLevel   int
	vtime       float64
	lastControl float64

	// Trace records one ControlSample per control-loop run, for reports.
	Trace []ControlSample

	// Decisions, when non-nil, is the flight recorder's decision log: the
	// controller records AIMD limit/granularity changes and deadline sheds
	// with the saturation numbers that caused them.
	Decisions *trace.DecisionLog

	// TotalShed counts shed statements across tenants.
	TotalShed uint64
}

// maxGranLevel bounds coarsening: level L caps fan-out at workers >> L, so
// level 3 still grants a statement an eighth of the machine.
const maxGranLevel = 3

// New builds a controller over the scheduler it watches. Zero config fields
// take the documented defaults.
func New(cfg Config, s *sched.Scheduler, se *sim.Engine) *Controller {
	workers := 0
	for _, tg := range s.TGs {
		workers += len(tg.Workers)
	}
	if cfg.MinConcurrent <= 0 {
		cfg.MinConcurrent = 2
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = workers
	}
	if cfg.MaxConcurrent < cfg.MinConcurrent {
		cfg.MaxConcurrent = cfg.MinConcurrent
	}
	if cfg.InitialConcurrent <= 0 {
		cfg.InitialConcurrent = cfg.MaxConcurrent
	}
	if cfg.InitialConcurrent < cfg.MinConcurrent {
		cfg.InitialConcurrent = cfg.MinConcurrent
	}
	if cfg.InitialConcurrent > cfg.MaxConcurrent {
		cfg.InitialConcurrent = cfg.MaxConcurrent
	}
	if cfg.Period <= 0 {
		cfg.Period = 1e-3
	}
	if cfg.HighQueuePerWorker <= 0 {
		cfg.HighQueuePerWorker = 2
	}
	if cfg.LowQueuePerWorker <= 0 {
		cfg.LowQueuePerWorker = 0.5
	}
	if cfg.IdleWorkerFraction <= 0 {
		cfg.IdleWorkerFraction = 0.1
	}
	c := &Controller{
		cfg:     cfg,
		sched:   s,
		sim:     se,
		workers: workers,
		byName:  make(map[string]int),
		limit:   cfg.InitialConcurrent,
	}
	for _, ts := range cfg.Tenants {
		c.register(ts.Name, ts.Weight)
	}
	return c
}

// register adds a tenant (idempotent; later weights do not override).
func (c *Controller) register(name string, weight float64) *tenant {
	if i, ok := c.byName[name]; ok {
		return c.tenants[i]
	}
	if weight <= 0 {
		weight = 1
	}
	t := &tenant{stats: TenantStats{
		Name: name, Weight: weight,
		Latency: &metrics.Histogram{}, Wait: &metrics.Histogram{},
	}}
	c.byName[name] = len(c.tenants)
	c.tenants = append(c.tenants, t)
	return t
}

// Submit hands a statement to the controller. With a free concurrency slot
// and an empty queue it dispatches synchronously (the bypass path);
// otherwise the statement queues under its tenant.
func (c *Controller) Submit(st *Statement) {
	t := c.register(st.Tenant, 1)
	t.stats.Submitted++
	st.enqueued = c.sim.Now()
	t.queue = append(t.queue, st)
	c.dispatch()
}

// Tick implements sim.Actor: each Period, run the control loop and shed
// expired queued statements (dispatch also sheds lazily on pop, so the
// periodic sweep only bounds queue memory and waiting-statement age — one
// Period of slack on ms-scale deadlines, without an every-step backlog
// walk); then backfill open slots.
func (c *Controller) Tick(now float64) {
	if now-c.lastControl >= c.cfg.Period {
		c.lastControl = now
		c.control(now)
		c.shedExpired(now)
	}
	c.dispatch()
}

// control is the elastic concurrency loop: saturation in, (limit, granLevel)
// out, AIMD.
func (c *Controller) control(now float64) {
	sat := c.sched.Saturation()
	qpw := float64(sat.Queued) / float64(c.workers)
	prevLimit, prevGran := c.limit, c.granLevel
	switch {
	case qpw > c.cfg.HighQueuePerWorker:
		// Saturated: throttle multiplicatively and coarsen the fan-out so
		// in-flight statements stop flooding the queues with fine slices.
		dec := c.limit / 4
		if dec < 1 {
			dec = 1
		}
		c.limit -= dec
		if c.limit < c.cfg.MinConcurrent {
			c.limit = c.cfg.MinConcurrent
		}
		if c.granLevel < maxGranLevel {
			c.granLevel++
		}
	case qpw < c.cfg.LowQueuePerWorker &&
		float64(sat.Free+sat.Parked) >= c.cfg.IdleWorkerFraction*float64(c.workers):
		// Idle headroom: admit one more (true additive increase), split finer.
		c.limit++
		if c.limit > c.cfg.MaxConcurrent {
			c.limit = c.cfg.MaxConcurrent
		}
		if c.granLevel > 0 {
			c.granLevel--
		}
	}
	c.Trace = append(c.Trace, ControlSample{
		Time: now, Limit: c.limit, GranCap: c.GranCap(),
		InFlight: c.inflight, QueuedStatements: c.Queued(),
		QueuedTasks: sat.Queued, FreeWorkers: sat.Free,
	})
	if c.Decisions != nil && (c.limit != prevLimit || c.granLevel != prevGran) {
		kind := "aimd-grow"
		if c.limit < prevLimit || c.granLevel > prevGran {
			kind = "aimd-throttle"
		}
		c.Decisions.Record(trace.Decision{
			Time: now, Source: "admission", Kind: kind, From: -1, To: -1,
			Cause: fmt.Sprintf("queue/worker %.2f (high %.2f, low %.2f), %d free: limit %d->%d, gran cap %d",
				qpw, c.cfg.HighQueuePerWorker, c.cfg.LowQueuePerWorker, sat.Free, prevLimit, c.limit, c.GranCap()),
		})
	}
}

// DeadlineFor returns the class's shedding deadline in virtual seconds (0 =
// none). The shared-scan cohort layer extends it into its join window: a
// statement that would blow its class deadline waiting for a cohort is shed
// there too.
func (c *Controller) DeadlineFor(cl Class) float64 {
	if cl == Interactive {
		return c.cfg.InteractiveDeadline
	}
	return c.cfg.OLAPDeadline
}

// shedExpired drops queued statements whose wait exceeded their class
// deadline. The whole backlog is scanned, not just the head: classes mix in
// one tenant queue, so a tight-deadline Interactive statement can expire
// behind a still-live OLAP one. The queue is compacted before any OnShed
// fires — an OnShed may reenter Submit (closed-loop clients reissue), and
// that reentry must see a consistent queue, not a half-compacted one.
func (c *Controller) shedExpired(now float64) {
	var expired []*Statement
	for _, t := range c.tenants {
		if t.backlog() == 0 {
			continue
		}
		q := t.queue[t.head:]
		kept := q[:0]
		expired = expired[:0]
		for _, st := range q {
			if d := c.DeadlineFor(st.Class); d > 0 && now-st.enqueued > d {
				expired = append(expired, st)
			} else {
				kept = append(kept, st)
			}
		}
		if len(expired) == 0 {
			continue
		}
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		t.queue = kept
		t.head = 0
		for _, st := range expired {
			c.shed(t, st)
		}
	}
}

// shed drops one statement.
func (c *Controller) shed(t *tenant, st *Statement) {
	t.stats.Shed++
	c.TotalShed++
	now := c.sim.Now()
	st.Trace.MarkShed(now, "admission")
	if c.Decisions != nil {
		c.Decisions.Record(trace.Decision{
			Time: now, Source: "admission", Kind: "shed", Item: t.stats.Name, From: -1, To: -1,
			Cause: fmt.Sprintf("%s statement waited %.1fms > %.1fms deadline",
				st.Class, (now-st.enqueued)*1e3, c.DeadlineFor(st.Class)*1e3),
		})
	}
	if st.OnShed != nil {
		st.OnShed()
	}
}

// pickTenant selects the backlogged tenant with the smallest aged virtual
// start time (start-time fair queuing; ties break by registration order).
func (c *Controller) pickTenant() *tenant {
	var best *tenant
	bestKey := math.Inf(1)
	now := c.sim.Now()
	for _, t := range c.tenants {
		if t.backlog() == 0 {
			continue
		}
		start := t.vfinish
		if c.vtime > start {
			start = c.vtime
		}
		key := start - c.cfg.AgingRate*(now-t.queue[t.head].enqueued)
		if key < bestKey {
			best, bestKey = t, key
		}
	}
	return best
}

// dispatch admits queued statements while concurrency slots are open,
// shedding expired queue heads as it encounters them.
func (c *Controller) dispatch() {
	now := c.sim.Now()
	for c.inflight < c.limit {
		t := c.pickTenant()
		if t == nil {
			return
		}
		st := t.pop()
		if d := c.DeadlineFor(st.Class); d > 0 && now-st.enqueued > d {
			c.shed(t, st)
			continue
		}
		// Virtual-time accounting: one statement of service at 1/weight.
		start := t.vfinish
		if c.vtime > start {
			start = c.vtime
		}
		t.vfinish = start + 1/t.stats.Weight
		c.vtime = start
		t.stats.Admitted++
		t.stats.Wait.Record(now - st.enqueued)
		c.inflight++
		st.Trace.MarkAdmitted(now)
		st.Run(c.GranCap(), st.enqueued, func() { c.statementDone(t, st) })
	}
}

// statementDone is the completion hook: free the slot, record the
// end-to-end latency, and backfill from the queues.
func (c *Controller) statementDone(t *tenant, st *Statement) {
	c.inflight--
	t.stats.Completed++
	t.stats.Latency.Record(c.sim.Now() - st.enqueued)
	c.dispatch()
}

// Limit returns the current elastic concurrency limit.
func (c *Controller) Limit() int { return c.limit }

// GranCap returns the current per-statement fan-out cap (0 = uncapped).
func (c *Controller) GranCap() int {
	if c.granLevel == 0 {
		return 0
	}
	cap := c.workers >> uint(c.granLevel)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// InFlight returns the number of admitted, incomplete statements.
func (c *Controller) InFlight() int { return c.inflight }

// Queued returns the total queued-statement backlog across tenants.
func (c *Controller) Queued() int {
	n := 0
	for _, t := range c.tenants {
		n += t.backlog()
	}
	return n
}

// TenantNames lists registered tenants in registration order.
func (c *Controller) TenantNames() []string {
	out := make([]string, len(c.tenants))
	for i, t := range c.tenants {
		out[i] = t.stats.Name
	}
	return out
}

// Stats returns the tenant's admission outcome (zero value for unknown
// tenants).
func (c *Controller) Stats(name string) TenantStats {
	if i, ok := c.byName[name]; ok {
		return c.tenants[i].stats
	}
	return TenantStats{Name: name}
}
