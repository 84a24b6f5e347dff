package harness

import (
	"fmt"

	"numacs/internal/admit"
	"numacs/internal/core"
	"numacs/internal/metrics"
	"numacs/internal/workload"
)

// Admission experiment: a multi-tenant open-loop overload sweep on the
// 4-socket machine. Offered load exceeds engine capacity by >2x (a greedy
// tenant floods, a bursty tenant spikes, a well-behaved tenant stays inside
// its share, a writer tenant trickles Interactive delta batches); the
// admission-on run must keep p99 statement latency bounded by the OLAP
// deadline and per-tenant goodput near the weight shares, while the
// queues-only off run grows its backlog and its tail without bound.

// admissionTenantNames and weights of the three scan tenants (the writer
// tenant rides along as Interactive).
const (
	admAlpha  = "alpha"  // well-behaved: weight 2, offered below its share
	admBravo  = "bravo"  // bursty: weight 1, spikes to 2x its base rate
	admGreedy = "greedy" // greedy: weight 1, offers 6x its fair share
	admWriter = "writer" // Interactive delta write batches
)

// admissionDataset sizes the experiment's table: 4x the scale rows keeps
// per-statement work high enough that statement counts stay tractable under
// a 2.25x-overload open loop.
func admissionDataset(s Scale) workload.DatasetConfig {
	return workload.DatasetConfig{
		Rows: 4 * s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
}

// MeasureAdmissionCapacity probes the engine's statement capacity for the
// admission experiment's dataset: 64 closed-loop clients (saturating, no
// admission control), measured after warmup. The overload rates and the
// "offered >= 2x capacity" acceptance check are both expressed against this
// number. The second result is the probe's Report.Fingerprints line.
func MeasureAdmissionCapacity(s Scale) (float64, string) {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	table := workload.Generate(admissionDataset(s))
	e.Placer.PlaceRR(table)
	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N: 64, Selectivity: lowSel, Parallel: true, Strategy: core.Bound, Seed: 9,
	})
	clients.Start()
	e.Sim.Run(s.Warmup)
	e.Counters.Reset()
	e.Sim.Run(s.Warmup + s.Measure)
	return float64(e.Counters.QueriesDone) / s.Measure, fingerprintLine("capacity probe", e)
}

// AdmissionTenant is one tenant's measured outcome.
type AdmissionTenant struct {
	// Name and Weight echo the tenant config; OfferedQPS is its configured
	// mean arrival rate.
	Name       string
	Weight     float64
	OfferedQPS float64
	// Issued/Completed/Shed count statements in the measure window;
	// GoodputQPS is Completed over the window.
	Issued, Completed, Shed uint64
	GoodputQPS              float64
	// P50/P99 are the tenant's completed-statement latency percentiles
	// (admission wait included).
	P50, P99 float64
}

// AdmissionRun is the measured outcome of one admission configuration,
// exposed so the acceptance tests can assert the criteria at both simulator
// scales.
type AdmissionRun struct {
	// Label and AdmissionOn identify the configuration.
	Label       string
	AdmissionOn bool

	// CapacityQPS is the probed engine capacity; OfferedQPS the actual scan-
	// tenant arrival rate over the measure window; CompletedQPS the scan
	// goodput.
	CapacityQPS  float64
	OfferedQPS   float64
	CompletedQPS float64

	// Overall is the all-statement latency distribution of the measure
	// window (P99 is the bounded-tail criterion).
	Overall metrics.LatencyStats

	// Tenants holds the scan tenants' outcomes, in tenant order.
	Tenants []AdmissionTenant

	// Writer-side observability (whole run, not just the measure window).
	WriterBatches, WriterShed uint64

	// Scheduler saturation means over the measure window (the satellite
	// counters, sampled by the watchdog).
	MeanQueuedTasks, MeanFreeWorkers float64
	MaxTGDepth                       int

	// Controller state (admission-on runs only).
	FinalLimit, FinalGranCap int
	TotalShed                uint64
	Trace                    []admit.ControlSample

	// OLAPDeadline and InteractiveDeadline document the run's latency
	// contract; Measure is the window they were derived from.
	OLAPDeadline        float64
	InteractiveDeadline float64
	Measure             float64

	// Fingerprint is the run's Report.Fingerprints line.
	Fingerprint string
}

// RunAdmission executes one admission configuration against the probed
// capacity: a 2.25x-capacity multi-tenant open-loop mix, with the admission
// controller either enabled (weighted-fair queues, elastic concurrency,
// deadline shedding) or bypassed (every statement enters the engine
// directly — the pre-admission engine).
func RunAdmission(s Scale, on bool, capacity float64) AdmissionRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	table := workload.Generate(admissionDataset(s))
	e.Placer.PlaceRR(table)

	olapDeadline := s.Measure / 10
	interDeadline := s.Measure / 40
	if on {
		e.EnableAdmission(admit.Config{
			Tenants: []admit.TenantSpec{
				{Name: admAlpha, Weight: 2},
				{Name: admBravo, Weight: 1},
				{Name: admGreedy, Weight: 1},
				{Name: admWriter, Weight: 1},
			},
			MinConcurrent: 4,
			// Tight watermarks: the concurrency hint already keeps task
			// fan-out proportional, so saturation shows up as a modest
			// standing queue — throttle on half a task per worker, grow
			// below a quarter.
			HighQueuePerWorker:  0.5,
			LowQueuePerWorker:   0.25,
			OLAPDeadline:        olapDeadline,
			InteractiveDeadline: interDeadline,
		})
	}

	mk := func(name string, weight, rate float64, burst workload.BurstSpec) workload.TenantLoad {
		return workload.TenantLoad{
			Name: name, Weight: weight, Rate: rate, Burst: burst,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		}
	}
	tenants := []workload.TenantLoad{
		mk(admAlpha, 2, 0.40*capacity, workload.BurstSpec{}),
		mk(admBravo, 1, 0.30*capacity, workload.BurstSpec{
			Period: s.Measure / 2, Duration: s.Measure / 8, Factor: 2, Phase: s.Measure / 4,
		}),
		mk(admGreedy, 1, 1.50*capacity, workload.BurstSpec{}),
	}
	gen := workload.NewMultiTenant(e, table, workload.MultiTenantConfig{Tenants: tenants, Seed: 5})
	e.Sim.AddActor(gen)
	gen.Start()

	// The writer tenant trickles Interactive delta batches: roughly one
	// batch every 10 simulator steps, small enough that delta growth never
	// moves the capacity baseline.
	writers := workload.NewWriters(e, table, workload.WritersConfig{
		Rate: 0.1 / s.Step, UpdateFraction: 0.5, Tenant: admWriter, Seed: 13,
	})
	e.Sim.AddActor(writers)

	e.Sim.Run(s.Warmup)
	e.Counters.Reset()
	gen.ResetStats()
	e.Sim.Run(s.Warmup + s.Measure)

	label := "queues only (admission OFF)"
	if on {
		label = "admission ON"
	}
	run := AdmissionRun{
		Label: label, AdmissionOn: on,
		CapacityQPS:         capacity,
		Overall:             e.Counters.Latencies(),
		WriterBatches:       writers.Inserts + writers.Updates,
		WriterShed:          writers.ShedBatches,
		MeanQueuedTasks:     e.Counters.MeanQueuedTasks(),
		MeanFreeWorkers:     e.Counters.MeanFreeWorkers(),
		MaxTGDepth:          e.Counters.SatTGMaxDepth,
		OLAPDeadline:        olapDeadline,
		InteractiveDeadline: interDeadline,
		Measure:             s.Measure,
	}
	offered, completed := uint64(0), uint64(0)
	for i, ts := range gen.Stats() {
		spec := tenants[i]
		at := AdmissionTenant{
			Name: ts.Name, Weight: spec.Weight, OfferedQPS: spec.Rate,
			Issued: ts.Issued, Completed: ts.Completed, Shed: ts.Shed,
			GoodputQPS: float64(ts.Completed) / s.Measure,
			P50:        ts.Lat.P50(), P99: ts.Lat.P99(),
		}
		if ts.Name == admBravo {
			// Burst-adjusted mean offered rate: 2x for 1/4 of each period.
			at.OfferedQPS *= 1.25
		}
		run.Tenants = append(run.Tenants, at)
		offered += ts.Issued
		completed += ts.Completed
	}
	run.OfferedQPS = float64(offered) / s.Measure
	run.CompletedQPS = float64(completed) / s.Measure
	if on {
		run.FinalLimit = e.Admit.Limit()
		run.FinalGranCap = e.Admit.GranCap()
		run.TotalShed = e.Admit.TotalShed
		run.Trace = e.Admit.Trace
	}
	run.Fingerprint = fingerprintLine(label, e)
	return run
}

// runAdmission renders the admission experiment: the overload sweep with the
// controller on vs off.
func runAdmission(s Scale) *Report {
	rep := &Report{ID: "admission", Title: "Statement admission control and elastic concurrency under overload"}

	capacity, probe := MeasureAdmissionCapacity(s)
	off := RunAdmission(s, false, capacity)
	on := RunAdmission(s, true, capacity)
	rep.Fingerprints = []string{probe, off.Fingerprint, on.Fingerprint}

	cfgTab := rep.AddTable("offered load vs capacity", []string{
		"capacity(q/s)", "offered(q/s)", "overload", "OLAP deadline", "interactive deadline"})
	cfgTab.AddRow(f0(capacity), f0(on.OfferedQPS),
		fmt.Sprintf("%.2fx", on.OfferedQPS/capacity),
		ms(on.OLAPDeadline), ms(on.InteractiveDeadline))

	tb := rep.AddTable("per-tenant outcome (measure window)", []string{
		"tenant", "w", "offered(q/s)", "mode", "issued", "done", "shed",
		"goodput(q/s)", "share", "p50", "p99"})
	for i := range on.Tenants {
		for _, r := range []AdmissionRun{on, off} {
			at := r.Tenants[i]
			mode := "off"
			if r.AdmissionOn {
				mode = "on"
			}
			tb.AddRow(at.Name, f0(at.Weight), f0(at.OfferedQPS), mode,
				itoa(int(at.Issued)), itoa(int(at.Completed)), itoa(int(at.Shed)),
				f0(at.GoodputQPS),
				fmt.Sprintf("%.2f", at.GoodputQPS/r.CompletedQPS),
				ms(at.P50), ms(at.P99))
		}
	}

	tail := rep.AddTable("overall statement latency (completed statements)", []string{
		"mode", "done", "p50", "p95", "p99", "max", "p99 vs admission-on"})
	for _, r := range []AdmissionRun{on, off} {
		tail.AddRow(r.Label, itoa(r.Overall.N), ms(r.Overall.P50), ms(r.Overall.P95),
			ms(r.Overall.P99), ms(r.Overall.Max),
			fmt.Sprintf("%.1fx", r.Overall.P99/on.Overall.P99))
	}

	wr := rep.AddTable("writer tenant (Interactive class, whole run)", []string{
		"mode", "rows applied", "batches shed"})
	wr.AddRow("on", itoa(int(on.WriterBatches)), itoa(int(on.WriterShed)))
	wr.AddRow("off", itoa(int(off.WriterBatches)), itoa(int(off.WriterShed)))

	sat := rep.AddTable("scheduler saturation (watchdog samples, measure window)", []string{
		"mode", "mean queued tasks", "mean free workers", "max TG depth", "stmts shed"})
	sat.AddRow("on", f1(on.MeanQueuedTasks), f1(on.MeanFreeWorkers), itoa(on.MaxTGDepth), itoa(int(on.TotalShed)))
	sat.AddRow("off", f1(off.MeanQueuedTasks), f1(off.MeanFreeWorkers), itoa(off.MaxTGDepth), "-")

	tr := rep.AddTable("elastic concurrency trace (admission ON)", []string{
		"t(ms)", "limit", "gran cap", "inflight", "queued stmts", "queued tasks", "free"})
	stride := len(on.Trace)/12 + 1
	for i := 0; i < len(on.Trace); i += stride {
		cs := on.Trace[i]
		tr.AddRow(fmt.Sprintf("%.1f", cs.Time*1e3), itoa(cs.Limit), itoa(cs.GranCap),
			itoa(cs.InFlight), itoa(cs.QueuedStatements), itoa(cs.QueuedTasks), itoa(cs.FreeWorkers))
	}
	if len(on.Trace) == 0 {
		tr.AddRow("-", "-", "-", "-", "-", "-", "-")
	}
	return rep
}
