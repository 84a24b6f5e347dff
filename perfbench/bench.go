package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/insight"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
)

// layerCounts are the cumulative layer counters the benchmark reads through
// public accessors; the measure window's values are two snapshots' difference.
type layerCounts struct {
	steps, flows       uint64
	merges             int
	mergePages         int64
	shared             sharedscan.Stats
	admitted, shed     uint64 // admission, all tenants
	writes, writesDone uint64 // admission, writer tenant
	writeShed, rows    uint64 // workload.Writers' own counts
	actions            int
	readsIssued, reads uint64 // driver
}

func (r *rig) counts() layerCounts {
	c := layerCounts{
		steps: r.e.Sim.Steps(), flows: r.e.Sim.CompletedFlows(),
		merges: r.e.MergesCompleted, mergePages: r.e.MergePagesCopied,
		readsIssued: r.drv.issued, reads: r.drv.completed,
	}
	if r.shared != nil {
		c.shared = r.shared.Stats()
	}
	if r.admit != nil {
		for _, name := range r.admit.TenantNames() {
			st := r.admit.Stats(name)
			c.admitted += st.Admitted
			c.shed += st.Shed
		}
		ws := r.admit.Stats(writerTenant)
		c.writes, c.writesDone = ws.Submitted, ws.Completed
	}
	if r.writers != nil {
		c.writeShed = r.writers.ShedBatches
		c.rows = r.writers.Inserts + r.writers.Updates
	}
	if r.placer != nil {
		c.actions = len(r.placer.Actions)
	}
	return c
}

// repResult is one run of a workload: set-up, warm-up, and the measured
// window.
type repResult struct {
	setup, wall  time.Duration
	window       float64       // virtual seconds measured
	checkWall    time.Duration // wall time to the end of the traced window
	mallocs      uint64        // heap allocations in the window
	heapRetained uint64        // live heap after a forced GC at the horizon

	stmts                    uint64  // driver statements completed in the window
	attempted, shedStmts     uint64  // statements and write batches submitted / shed in the window
	nLat                     int     // latency samples in the window
	p50, p99                 float64 // simulated statement latency, seconds
	mcBytes                  float64
	tasks, stolen            uint64
	cpuLoad                  float64
	llcLocal, llcRemote, qpi float64
	win                      layerCounts // window deltas
	actionKinds              map[string]int

	digest, checkDigest string // at the horizon and at the end of the traced window
	errs                []error

	// Traced runs only.
	spans   []span
	blame   insight.Breakdown
	planNS  float64
	planAlc float64
	psmNS   float64
}

// setUp builds the workload from a collected heap and returns it with the
// host time the build took: machine and engine, dataset, placement, and the
// Enable* calls.
func setUp(spec workloadSpec, seed int64, rec *recorder) (*rig, time.Duration) {
	runtime.GC()
	t0 := time.Now()
	r := newRig(spec, seed, rec)
	return r, time.Since(t0)
}

// runRep builds the workload, warms it up, and measures one window. A
// non-nil recorder makes it the traced run, which stops at the end of the
// traced window; an untraced run passes that point as a checkpoint and
// fingerprints it (outside the timed interval), so the two can be compared.
func runRep(spec workloadSpec, seed int64, rec *recorder) *repResult {
	res := &repResult{}
	r, setup := setUp(spec, seed, rec)
	res.setup = setup

	r.drv.start()
	r.e.Sim.Run(spec.warmup)
	r.e.Counters.Reset()
	r.drv.openWindow()
	r.c0 = r.counts()

	check, horizon := spec.warmup+spec.traced, spec.warmup+spec.measure
	if rec != nil {
		horizon = check
	}
	runtime.GC()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	r.runTo(check)
	res.checkWall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	res.checkDigest = r.digest()
	runtime.ReadMemStats(&m2)
	t2 := time.Now()
	r.runTo(horizon)
	res.wall = res.checkWall + time.Since(t2)
	runtime.ReadMemStats(&m3)
	res.mallocs = (m1.Mallocs - m0.Mallocs) + (m3.Mallocs - m2.Mallocs)

	res.digest = res.checkDigest
	if horizon > check {
		res.digest = r.digest()
	}
	res.fill(r, horizon-spec.warmup)
	res.errs = r.checks(res.window)
	if r.placer != nil {
		res.actionKinds = map[string]int{}
		for _, a := range r.placer.Actions[r.c0.actions:] {
			res.actionKinds[a.Kind]++
		}
	}

	if rec != nil {
		res.spans = rec.spans
		res.blame = tailBlame(r.tracer, spec.warmup)
		res.planNS, res.planAlc = replayPlan(r)
		res.psmNS = replayPSM(r)
	}

	runtime.GC()
	var m4 runtime.MemStats
	runtime.ReadMemStats(&m4)
	res.heapRetained = m4.HeapAlloc
	runtime.KeepAlive(r)
	return res
}

func (c layerCounts) sub(o layerCounts) layerCounts {
	c.steps -= o.steps
	c.flows -= o.flows
	c.merges -= o.merges
	c.mergePages -= o.mergePages
	c.shared.Statements -= o.shared.Statements
	c.shared.Passes -= o.shared.Passes
	c.shared.Attached -= o.shared.Attached
	c.shared.Merged -= o.shared.Merged
	c.shared.Wraps -= o.shared.Wraps
	c.shared.Shed -= o.shared.Shed
	c.admitted -= o.admitted
	c.shed -= o.shed
	c.writes -= o.writes
	c.writesDone -= o.writesDone
	c.writeShed -= o.writeShed
	c.rows -= o.rows
	c.actions -= o.actions
	c.readsIssued -= o.readsIssued
	c.reads -= o.reads
	return c
}

// fill reads the simulated results of the window of the given length.
func (res *repResult) fill(r *rig, window float64) {
	c := r.e.Counters
	d := r.drv
	res.window = window
	res.win = r.counts().sub(r.c0)
	res.stmts = d.winCompleted
	res.attempted = d.winIssued + res.win.writes
	res.shedStmts = d.winShed + res.win.writeShed
	lat := append([]float64(nil), d.lat...)
	sort.Float64s(lat)
	res.nLat = len(lat)
	res.p50 = stepQuantile(lat, r.spec.step, 0.50)
	res.p99 = stepQuantile(lat, r.spec.step, 0.99)
	res.mcBytes = c.TotalMCBytes()
	res.tasks, res.stolen = c.TasksExecuted, c.TasksStolen
	res.cpuLoad = c.CPULoad(window, r.e.Machine.TotalThreads())
	res.llcLocal, res.llcRemote = c.LLCLocal, c.LLCRemote
	res.qpi = c.LinkDataBytes
}

// checks are the conservation laws and closed-loop invariants at the
// horizon. In-flight work is read from the layer holding it: the engine's
// active statements, and the admission controller's queue and slots.
func (r *rig) checks(window float64) []error {
	c := r.counts()
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	queuedReads := int64(0)
	if r.admit != nil {
		rs := r.admit.Stats(scanTenant)
		queuedReads = int64(rs.Submitted - rs.Admitted - rs.Shed)
		admittedWrites := int64(r.admit.InFlight() - r.e.ActiveStatements())
		queuedWrites := int64(r.admit.Queued()) - queuedReads
		add(ledger{name: "write batches", submitted: int64(c.writes), completed: int64(c.writesDone),
			shed: int64(c.writeShed), inFlight: admittedWrites + queuedWrites}.check())
	}
	d := r.drv
	add(ledger{name: "statements", submitted: int64(d.issued), completed: int64(d.completed),
		shed: int64(d.shed), inFlight: int64(r.e.ActiveStatements()) + queuedReads}.check())
	add(d.closedLoopCheck(r.e.Sim.Now(), window))
	if n := len(d.lat); tailPercentile(n) < 99 {
		add(fmt.Errorf("p99 does not qualify: %d latency samples leave fewer than %d beyond it", n, minBeyond))
	}
	return errs
}

// digest fingerprints everything the run has simulated in the window so far:
// every metrics.Counters field, the full latency sequence, the layer counts,
// and the placer's decisions. Tracing is passive, so the traced run must
// reproduce the untraced digest.
func (r *rig) digest() string {
	h := sha256.New()
	cv := reflect.ValueOf(*r.e.Counters)
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Type().Field(i); f.IsExported() {
			fmt.Fprintf(h, "%s=%v;", f.Name, cv.Field(i).Interface())
		}
	}
	fmt.Fprintf(h, "lat=%v;win=%+v;", r.drv.lat, r.counts().sub(r.c0))
	if r.placer != nil {
		for _, a := range r.placer.Actions {
			fmt.Fprintf(h, "%+v;", a)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tailBlame splits the simulated latency of the window's p99 tail — the
// driver statements at or above the p99 — into the flight recorder's
// critical-path components, via insight's blame decomposition.
func tailBlame(tr *trace.Tracer, from float64) insight.Breakdown {
	var done []*trace.Statement
	var lats []float64
	for _, s := range tr.Statements() {
		if s.Shed || s.Done < 0 || s.Submitted < from || s.Tenant == writerTenant {
			continue
		}
		done = append(done, s)
		lats = append(lats, s.Done-s.Submitted)
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	cut := percentile(sorted, 99)
	var tail []*trace.Statement
	for i, s := range done {
		if lats[i] >= cut {
			tail = append(tail, s)
		}
	}
	rep := insight.Analyze(&trace.Data{Statements: tail}, insight.SLOSpec{})
	var b insight.Breakdown
	n := 0
	for _, row := range rep.ByClass {
		w := float64(row.Count)
		b.Queue += row.Mean.Queue * w
		b.Join += row.Mean.Join * w
		b.Sched += row.Mean.Sched * w
		b.Exec += row.Mean.Exec * w
		b.Other += row.Mean.Other * w
		n += row.Count
	}
	if n > 0 {
		b.Queue, b.Join, b.Sched, b.Exec, b.Other = b.Queue/float64(n), b.Join/float64(n), b.Sched/float64(n), b.Exec/float64(n), b.Other/float64(n)
	}
	return b
}

// replayPlan feeds the traced window's statement shapes through the planner
// exactly as core.Engine.Submit does (BuildQuery, stat-less Optimize, Lower)
// and returns host ns and heap allocations per statement. Workloads that
// bypass the planner have no shapes and report zero.
func replayPlan(r *rig) (nsPerStmt, allocsPerStmt float64) {
	if len(r.shapes) == 0 {
		return 0, 0
	}
	deps := plan.Deps{Alloc: r.e.Placer.Alloc, DisableCoalesce: r.e.DisableCoalesce}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, st := range r.shapes {
		plan.Optimize(plan.BuildQuery(st), nil, &r.e.Costs).Lower(deps)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(r.shapes))
	return float64(el.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

// psmReplayCalls is the fixed number of PSM.SocketBytes calls the replay
// probe times.
const psmReplayCalls = 200_000

// replayPSM calls PSM.SocketBytes over the task ranges a parallel scan of
// each placed column plans at the horizon's concurrency hint (the lookups
// ScanOp.Open makes) and returns host ns per call.
func replayPSM(r *rig) float64 {
	type lookup struct {
		col       *colstore.Column
		off, size int64
	}
	var calls []lookup
	for _, t := range r.tables {
		hint := max(1, r.e.ConcurrencyHint()/t.NumParts())
		for _, part := range t.Parts {
			for _, col := range part.Columns {
				if col.Replicated() {
					continue // replica scans stream one copy without a PSM lookup
				}
				parts := exec.Partitions(col)
				for _, pr := range parts {
					for _, rows := range exec.SplitRows(pr.From, pr.To, exec.TasksPerPartition(hint, len(parts))) {
						off := col.IVOffsetForRow(rows[0])
						size := min(col.IVBytesForRows(rows[0], rows[1]), col.IVRange.Bytes-off)
						calls = append(calls, lookup{col, off, size})
					}
				}
			}
		}
	}
	if len(calls) == 0 {
		return 0
	}
	sink := 0
	t0 := time.Now()
	for i := 0; i < psmReplayCalls; i++ {
		c := calls[i%len(calls)]
		sink += len(c.col.IVPSM.SocketBytes(c.col.IVRange, c.off, c.size))
	}
	el := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(el.Nanoseconds()) / psmReplayCalls
}

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
