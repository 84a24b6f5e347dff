package exec

import (
	"fmt"
	"math"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// ScanOp is the find phase of Section 5.2: parallel scan tasks over the
// indexvector (rounded to partition multiples), or a single index lookup per
// part when the optimizer's selectivity threshold admits one. Its Regions
// carry the per-partition match counts that materialization, aggregation, or
// a join build consume downstream.
//
// The same operator runs the passes of a scan cohort (package sharedscan):
// N concurrent range-predicate scans of one column share ONE physical pass
// over the indexvector, each chunk evaluated against every member predicate
// (Crescando / SAP HANA-style scan sharing), and every member keeps its own
// logical result regions for its private output phase. Physical counters
// (MC bytes, link traffic, LLC lines) are charged once per pass, while
// per-item traffic is attributed once per member, so the adaptive placer's
// read-heat signal still sees N logical scans. A private scan is a cohort of
// one: it plans the identical tasks, draws the identical RNG stream, and
// starts the identical flows as a single-member pass.
type ScanOp struct {
	Table       *colstore.Table
	Column      string
	Selectivity float64

	// ExtraPredicateColumns adds conjunctive range predicates on further
	// columns: the find phase is repeated, in parallel, for each predicate
	// column, and the qualifying set is their intersection (the paper
	// discusses this generalization in Section 6). Each extra predicate uses
	// the same Selectivity.
	ExtraPredicateColumns []string
	// UseIndex permits index lookups when a predicate column has an index
	// and the optimizer's selectivity threshold admits them.
	UseIndex bool
	// Parallel enables intra-operator parallelism.
	Parallel bool

	// Followers holds the selectivities of a cohort pass's members after
	// the leader, whose selectivity is Selectivity. Member i's regions are
	// MemberRegions(i).
	Followers []float64
	// FanoutCap is a cohort pass's summed member admission fan-out caps (0
	// when any member was admitted uncapped); it bounds the pass's task
	// budget.
	FanoutCap int
	// Wrap, when positive, makes the op the ClockScan-style wrap-around pass
	// of a cohort's mid-flight attachers: they rode the remainder of the main
	// pass, and this pass re-streams only the missed Wrap share of each
	// scheduling partition (plus the delta fragments, whole). Their regions
	// still cover the full column, and their logical traffic is attributed
	// at Close, since part of their physical bytes was charged to the main
	// pass.
	Wrap float64
	// OnClosed, when set, marks a cohort pass: the cohort registry's hook,
	// fired at the find barrier once every member's regions are final.
	OnClosed func()

	regions    []Region   // the leader's (member 0's)
	followers  [][]Region // per follower, the leader's layout
	bytesTotal float64    // planned IV bytes of the pass
	bytesDone  float64    // streamed so far (the attach-progress signal)
}

// Regions implements RegionSource: the leader's per-partition match counts,
// with the conjunctive extra-predicate intersection already applied.
func (s *ScanOp) Regions() []Region { return s.regions }

// MemberRegions returns cohort member i's find-phase regions (0 is the
// leader): the same partition layout for every member, with the member's own
// match counts.
func (s *ScanOp) MemberRegions(i int) []Region {
	if i == 0 {
		return s.regions
	}
	return s.followers[i-1]
}

// Fraction reports the pass's streamed fraction of its planned IV bytes —
// the progress signal the cohort registry's mid-flight attach policy keys on.
func (s *ScanOp) Fraction() float64 {
	if s.bytesTotal <= 0 {
		return 0
	}
	return math.Min(s.bytesDone/s.bytesTotal, 1)
}

// members returns the number of predicates the op evaluates per chunk.
func (s *ScanOp) members() int { return 1 + len(s.Followers) }

// selectivity returns member i's predicate selectivity.
func (s *ScanOp) selectivity(i int) float64 {
	if i == 0 {
		return s.Selectivity
	}
	return s.Followers[i-1]
}

// phase is the op's flight-recorder phase label.
func (s *ScanOp) phase() string {
	switch {
	case s.Wrap > 0:
		return "wrap-scan"
	case s.OnClosed != nil:
		return "shared-scan"
	}
	return "scan"
}

// jitterMatches derives a deterministic approximate match count for a row
// range: the analytic expectation of the uniform data generator with a small
// per-task jitter, standing in for actually running the scan kernel (the
// kernels themselves are implemented and tested in package colstore; the
// harness uses the analytic count so experiments over hundreds of thousands
// of queries stay tractable).
func jitterMatches(env *Env, rows int, sel float64) int {
	exp := sel * float64(rows)
	f := 0.95 + 0.1*env.Rand.Float64()
	m := int(exp*f + 0.5)
	if m > rows {
		m = rows
	}
	return m
}

// outBytes returns a member's find-result output bytes under the Section
// 5.2 result formats: a position list (4 bytes per match) at low
// selectivity, a bitvector (one bit per scanned row) at high selectivity —
// whichever is smaller at the configured threshold.
func outBytes(env *Env, sel float64, matches, rows int) float64 {
	if sel >= env.Costs.BitvectorSelectivity {
		return float64(rows) / 8
	}
	return float64(matches) * 4
}

// cohortBudget scales a per-statement task budget to the cohort: the pass
// replaces n statements, so it inherits n concurrency-hint shares, bounded
// by the machine's hardware contexts and by cap — the members' summed
// admission fan-out caps (0 when any member was admitted uncapped), so the
// elastic controller's granularity lever still binds on shared passes.
func cohortBudget(p *Pipeline, n, cap int) int {
	h := p.Env.hint() * n
	if t := p.Env.Machine.TotalThreads(); h > t {
		h = t
	}
	if cap > 0 && cap < h {
		h = cap
	}
	if h < 1 {
		h = 1
	}
	return h
}

// scanTask is one planned find-phase task.
type scanTask struct {
	col      *colstore.Column
	from, to int // IV rows
	region   int // -1 for extra predicate columns
	// socket is the data socket resolved at plan time (replica-aware), kept
	// on the task so replica slices and extra-predicate tasks retain their
	// placement even when no region is tracked.
	socket int
	// matches is the leader's match count (what an index lookup chases);
	// out is every member's match output in bytes.
	matches int
	out     float64
	index   bool
	// allCols, when set, makes this a single unparallelized task that scans
	// every physical part sequentially — with parallelism disabled, one task
	// must access the remote sockets of the other parts itself (the Figure 10
	// effect).
	allCols []*colstore.Column
	// deltaRows, when non-zero, makes this a delta-fragment scan of that many
	// watermark-visible uncompressed rows streamed from the fragment on
	// socket, unioned with the main scan at the find barrier. Its matches
	// are analytic (no jitter: the read-only RNG stream must stay untouched
	// when no writes were ever issued).
	deltaRows int
}

// IndexEligible is the single source of truth for the index-vs-scan decision:
// the statement permits index use, the selectivity clears the cost model's
// threshold, and the column actually carries an index. ScanOp.Open applies it
// per predicate column at execution time and the planner mirrors it as a
// physical-plan annotation, so EXPLAIN output and execution can never
// disagree.
func IndexEligible(costs *Costs, table *colstore.Table, column string, selectivity float64, useIndex bool) bool {
	if !useIndex || selectivity > costs.IndexSelectivityThreshold {
		return false
	}
	c := table.Parts[0].ColumnByName(column)
	return c != nil && c.Idx != nil
}

// addRegion appends one region to every member's layout and returns its
// index; untracked columns (extra predicates) get no region and -1.
func (s *ScanOp) addRegion(track bool, col *colstore.Column, part *colstore.Part, socket int) int {
	if !track {
		return -1
	}
	r := Region{Col: col, Part: part, Socket: socket}
	s.regions = append(s.regions, r)
	for i := range s.followers {
		s.followers[i] = append(s.followers[i], r)
	}
	return len(s.regions) - 1
}

// Open plans and emits the find tasks. Only the primary predicate column
// tracks regions (the materialization input); additional predicate columns
// run the same find phase in parallel and merely intersect the result
// (Section 6's multi-predicate discussion).
func (s *ScanOp) Open(p *Pipeline) []Task {
	env := p.Env
	s.regions = s.regions[:0] // support operator reuse across pipelines
	s.followers = s.followers[:0]
	for range s.Followers {
		s.followers = append(s.followers, nil)
	}
	s.bytesTotal, s.bytesDone = 0, 0
	// One MC-load snapshot per plan: every replica-socket decision of this
	// statement sees the same instant (recomputing per column would walk all
	// active flows repeatedly for no added signal).
	mcLoad := env.MCLoad()
	// The parallel fan-out budget: the statement's concurrency hint, or the
	// cohort's combined budget for a shared pass, split across the parts.
	budget := p.Hint()
	if s.OnClosed != nil {
		budget = cohortBudget(p, s.members(), s.FanoutCap)
	}
	if parts := s.Table.NumParts(); parts > 1 {
		budget = max(budget/parts, 1)
	}

	var tasks []scanTask
	plan := func(colName string, track bool) {
		useIndex := IndexEligible(env.Costs, s.Table, colName, s.Selectivity, s.UseIndex)
		if !s.Parallel && !useIndex && s.Table.NumParts() > 1 {
			cols := make([]*colstore.Column, 0, s.Table.NumParts())
			rows := 0
			for _, part := range s.Table.Parts {
				c := part.ColumnByName(colName)
				if c == nil {
					panic(fmt.Sprintf("exec: no column %s", colName))
				}
				cols = append(cols, c)
				rows += c.Rows
			}
			socket := cols[0].IVPSM.MajoritySocket()
			region := s.addRegion(track, cols[0], s.Table.Parts[0], socket)
			tasks = append(tasks, scanTask{col: cols[0], to: rows, region: region, socket: socket, allCols: cols})
			return
		}
		for _, part := range s.Table.Parts {
			col := part.ColumnByName(colName)
			if col == nil {
				panic(fmt.Sprintf("exec: no column %s", colName))
			}
			if useIndex || !s.Parallel {
				// One task per part: an index lookup on the IX's own socket,
				// or a single scan task on the IV majority socket. On a
				// replicated column either chases the replica with the most
				// MC headroom (the Figure 10 single-task remote-access
				// penalty is exactly what replication removes).
				var socket int
				if useIndex {
					socket = IndexSocket(col)
				} else {
					socket = col.IVPSM.MajoritySocket()
				}
				if col.Replicated() {
					socket = leastLoadedSocket(col.ReplicaSockets, mcLoad)
				}
				region := s.addRegion(track, col, part, socket)
				tasks = append(tasks, scanTask{col: col, to: col.Rows, region: region, socket: socket, index: useIndex})
				continue
			}
			// Tasks per partition: the budget rounded up to a multiple of the
			// scheduling partitions (IVP partitions, or replicas for a
			// replicated column) so each task's range lies wholly in one
			// partition. Replica slices are weighted by current MC
			// utilization so loaded sockets receive less of the fan-out.
			parts := PartitionsWeighted(col, mcLoad)
			per := TasksPerPartition(budget, len(parts))
			for _, pr := range parts {
				region := s.addRegion(track, col, part, pr.Socket)
				to := pr.To
				if s.Wrap > 0 {
					to = s.planWrap(env, region, pr)
				}
				for _, span := range SplitRows(pr.From, to, per) {
					t := scanTask{col: col, from: span[0], to: span[1], region: region, socket: pr.Socket}
					if s.Wrap > 0 {
						t.out = s.wrapOutBytes(env, col, span[1]-span[0])
					}
					tasks = append(tasks, t)
				}
			}
		}
	}
	// planDelta unions the column's watermark-visible delta rows into the
	// find phase: one task per non-empty per-socket fragment, streaming
	// uncompressed rows from the fragment's own socket. A column that was
	// never written has a nil Delta and plans nothing — the read-only path
	// is bit-identical to a delta-free build.
	planDelta := func(colName string, track bool) {
		for _, part := range s.Table.Parts {
			col := part.ColumnByName(colName)
			if col == nil || col.Delta == nil {
				continue
			}
			snap := col.Delta.Snapshot()
			for sock := 0; sock < col.Delta.Sockets(); sock++ {
				rows := snap.Rows[sock]
				if rows == 0 {
					continue
				}
				region := s.addRegion(track, col, part, sock)
				tasks = append(tasks, scanTask{col: col, region: region, socket: sock, deltaRows: rows})
			}
		}
	}

	plan(s.Column, true)
	planDelta(s.Column, true)
	for _, extra := range s.ExtraPredicateColumns {
		plan(extra, false)
		planDelta(extra, false)
	}

	out := make([]Task, 0, len(tasks))
	for k := range tasks {
		switch t := &tasks[k]; {
		case t.deltaRows > 0:
			s.countMatches(env, t, t.deltaRows)
		case s.Wrap == 0: // a wrap drew its matches at plan time
			s.countMatches(env, t, t.to-t.from)
			s.bytesTotal += float64(t.col.IVBytesForRows(t.from, t.to))
		}
		// Each closure holds its own copy, so a finished task does not pin
		// the op's whole task list.
		t := tasks[k]
		out = append(out, Task{Socket: t.socket, Run: func(w *sched.Worker, done func()) {
			s.run(env, w, t, done)
		}})
	}
	return out
}

// countMatches adds every member's matches over a task's rows to its region
// and their match output to the task: analytic counts for a delta fragment,
// jittered draws per member (leader first) for a main-store task, so a
// single-member pass consumes the identical RNG stream as a private scan.
func (s *ScanOp) countMatches(env *Env, t *scanTask, rows int) {
	for i := 0; i < s.members(); i++ {
		sel := s.selectivity(i)
		m := int(sel*float64(rows) + 0.5)
		if t.deltaRows == 0 {
			m = jitterMatches(env, rows, sel)
		}
		if t.region >= 0 {
			s.MemberRegions(i)[t.region].Matches += m
		}
		if i == 0 {
			t.matches = m
		}
		if s.Wrap == 0 {
			t.out += outBytes(env, sel, m, rows)
		}
	}
}

// planWrap draws the attachers' full-partition regions (per attacher, wrap
// leader first) and returns the end row of the partition's missed prefix —
// the pass streams its partitions in parallel, so an attacher at fraction f
// missed ~f of each slice (and, for a replicated column, the wrap bytes must
// come from every replica socket, not just the low-row slices).
func (s *ScanOp) planWrap(env *Env, region int, pr RowRange) int {
	for i := 0; i < s.members(); i++ {
		s.MemberRegions(i)[region].Matches = jitterMatches(env, pr.To-pr.From, s.selectivity(i))
	}
	return min(pr.From+int(s.Wrap*float64(pr.To-pr.From)+0.5), pr.To)
}

// wrapOutBytes is a wrap task's share of every attacher's full-column output
// bytes (their outputs are produced across ride and wrap but charged here).
func (s *ScanOp) wrapOutBytes(env *Env, col *colstore.Column, scanned int) float64 {
	out := 0.0
	for i := 0; i < s.members(); i++ {
		sel := s.selectivity(i)
		full := outBytes(env, sel, int(sel*float64(col.Rows)+0.5), col.Rows)
		out += full * float64(scanned) / (s.Wrap * float64(col.Rows))
	}
	return out
}

// Close applies the conjunctive extra-predicate intersection at the find
// barrier (every region's matches scale by selectivity once per extra
// predicate column), attributes a wrap pass's logical traffic, and fires the
// cohort hook.
func (s *ScanOp) Close(p *Pipeline) {
	if k := len(s.ExtraPredicateColumns); k > 0 {
		factor := math.Pow(s.Selectivity, float64(k))
		for i := range s.regions {
			s.regions[i].Matches = int(float64(s.regions[i].Matches)*factor + 0.5)
		}
	}
	if s.Wrap > 0 {
		// Each attacher owes the placer's read-heat signal one logical
		// full-column scan — spread, since no single copy served the whole
		// ride.
		for _, part := range s.Table.Parts {
			col := part.ColumnByName(s.Column)
			if col == nil {
				continue
			}
			for i := 0; i < s.members(); i++ {
				p.Env.addItem(col.Name, -1, Traffic{
					Bytes:   float64(col.IVRange.Bytes),
					IVBytes: float64(col.IVRange.Bytes),
				})
			}
		}
	}
	if s.OnClosed != nil {
		s.OnClosed()
	}
}

// run starts one planned task on a worker.
func (s *ScanOp) run(env *Env, w *sched.Worker, t scanTask, done func()) {
	switch {
	case t.index:
		s.runIndexLookup(env, w, t.col, t.matches, done)
	case t.allCols != nil:
		s.runScanAll(env, w, t.allCols, t.matches, done)
	case t.deltaRows > 0:
		s.runDelta(env, w, t.col, t.socket, t.deltaRows, t.out, done)
	default:
		s.runStream(env, w, t.col, t.from, t.to, t.out, done)
	}
}

// streamPenalty is the rate factor of a stream on worker w: an unbound
// worker streams at the cost model's penalized rate.
func streamPenalty(env *Env, w *sched.Worker) float64 {
	if w.Bound {
		return 1
	}
	return env.Costs.UnboundStreamPenalty
}

// runScanAll executes one unparallelized scan across every physical part:
// the single worker streams each part's IV in turn, reaching remote sockets
// for the parts that are not local (Figure 10's "single task has to access
// remotely the sockets of the remaining partitions"). The match output
// writes are attributed once, to the last part.
func (s *ScanOp) runScanAll(env *Env, w *sched.Worker, cols []*colstore.Column, matches int, onDone func()) {
	var start func(i int)
	start = func(i int) {
		if i == len(cols) {
			onDone()
			return
		}
		m := 0
		if i == len(cols)-1 {
			m = matches
		}
		out := outBytes(env, s.Selectivity, m, cols[i].Rows)
		s.runStream(env, w, cols[i], 0, cols[i].Rows, out, func() { start(i + 1) })
	}
	start(0)
}

// runStream executes one IV stream task: the bytes of rows [from,to) are
// streamed once from wherever they physically live — the replica with the
// most MC headroom for a replicated column — with every member predicate
// evaluated per byte, plus out bytes of match output written on the worker's
// socket. Physical traffic is charged once; outside a wrap pass, item traffic
// is attributed once per member.
func (s *ScanOp) runStream(env *Env, w *sched.Worker, col *colstore.Column, from, to int, out float64, onDone func()) {
	n := s.members()
	offFrom := col.IVOffsetForRow(from)
	offTo := offFrom + col.IVBytesForRows(from, to)
	if offTo > col.IVRange.Bytes {
		offTo = col.IVRange.Bytes
	}
	var perSocket []int64
	if col.Replicated() {
		rep := BestReplica(env, col, w.Socket())
		perSocket = make([]int64, rep+1)
		perSocket[rep] = offTo - offFrom
	} else {
		perSocket = col.IVPSM.SocketBytes(col.IVRange, offFrom, offTo-offFrom)
	}
	src := w.Socket()
	penalty := streamPenalty(env, w)
	instr := env.Costs.SharedScanInstrPerByte(n)
	outPerByte := out / float64(offTo-offFrom+1)
	// Sequential flows, one per distinct source socket of the range.
	var flows []*sim.Flow
	for dst, bytes := range perSocket {
		if bytes == 0 {
			continue
		}
		dst := dst
		demands, lt := env.HW.StreamDemands(src, dst, w.CoreRes, env.Costs.SharedScanCyclesPerByte(n))
		if outPerByte > 0 {
			demands = append(demands, sim.Demand{Resource: env.HW.MC[src], Weight: outPerByte})
		}
		flows = append(flows, &sim.Flow{
			Remaining: float64(bytes),
			RateCap:   env.Machine.StreamRate(src, dst) * penalty,
			Demands:   demands,
			OnAdvance: func(p float64) {
				s.bytesDone += p
				env.Counters.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
				env.Counters.AddCompute(src, p*instr, 0)
				if s.Wrap == 0 {
					// addItemTraffic is linear, so one n-scaled call stands
					// for n per-member calls.
					env.addItem(col.Name, dst, Traffic{Bytes: p * float64(n), IVBytes: p * float64(n)})
				}
			},
		})
	}
	RunFlows(env.Sim, flows, onDone)
}

// runDelta executes one delta-fragment task: stream the fragment's
// watermark-visible uncompressed rows (RowBytes each — several times the
// main's bit-packed bytes per row, which is why scans degrade as the delta
// grows) once from the fragment's own socket, burning the
// uncompressed-predicate compute for every member, plus out bytes of match
// output.
func (s *ScanOp) runDelta(env *Env, w *sched.Worker, col *colstore.Column, frag, rows int, out float64, onDone func()) {
	n := s.members()
	bytes := float64(rows) * delta.RowBytes
	src := w.Socket()
	instr := env.Costs.SharedScanInstrPerByte(n)
	demands, lt := env.HW.StreamDemands(src, frag, w.CoreRes, env.Costs.SharedDeltaCyclesPerByte(n))
	if out > 0 {
		demands = append(demands, sim.Demand{Resource: env.HW.MC[src], Weight: out / (bytes + 1)})
	}
	env.Sim.StartFlow(&sim.Flow{
		Remaining: bytes,
		RateCap:   env.Machine.StreamRate(src, frag) * streamPenalty(env, w),
		Demands:   demands,
		OnAdvance: func(p float64) {
			env.Counters.AddMemoryTraffic(src, frag, p, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*instr, 0)
			if s.Wrap == 0 {
				env.addItem(col.Name, frag, Traffic{Bytes: p * float64(n), DeltaBytes: p * float64(n)})
			}
		},
		OnDone: onDone,
	})
}

// runIndexLookup executes one (unparallelized) index-lookup task: dependent
// random accesses into the IX.
func (s *ScanOp) runIndexLookup(env *Env, w *sched.Worker, col *colstore.Column, matches int, onDone func()) {
	src := w.Socket()
	accesses := float64(matches)*env.Costs.IndexAccessesPerMatch + 16
	dstWeights := ComponentWeights(env.Machine.Sockets, col.IXPSM)
	if col.Replicated() {
		// Chase the index replica with the most MC headroom.
		dstWeights = make([]float64, env.Machine.Sockets)
		dstWeights[BestReplica(env, col, src)] = 1
	}
	attrSocket := singleSocket(dstWeights)
	demands, rateCap, lt := env.HW.RandomDemands(src, dstWeights, w.CoreRes,
		env.Costs.IdxCyclesPerAccess, 4, env.Costs.IdxMissRate)
	miss := env.Costs.IdxMissRate
	env.Sim.StartFlow(&sim.Flow{
		Remaining: accesses,
		RateCap:   rateCap * streamPenalty(env, w),
		Demands:   demands,
		OnAdvance: func(p float64) {
			bytes := p * topology.CacheLine * miss
			env.addSpreadTraffic(src, dstWeights, bytes, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*env.Costs.MatInstrPerAccess/2, 0)
			env.addItem(col.Name, attrSocket, Traffic{Bytes: bytes, DictBytes: bytes})
		},
		OnDone: onDone,
	})
}

// StaticRegions feeds precomputed find-phase regions to a downstream output
// operator: follower statements of a cohort open instantly (the physical
// pass already ran) and materialize or aggregate their own logical result.
type StaticRegions struct {
	// Rs is the member's precomputed region set.
	Rs []Region
}

// Regions implements RegionSource.
func (s *StaticRegions) Regions() []Region { return s.Rs }

// Open implements Operator: no tasks — the find work was shared.
func (s *StaticRegions) Open(*Pipeline) []Task { return nil }

// Close implements Operator.
func (s *StaticRegions) Close(*Pipeline) {}
