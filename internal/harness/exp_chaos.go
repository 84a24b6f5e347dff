package harness

import (
	"fmt"
	"strings"

	"numacs/internal/adaptive"
	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/metrics"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// Chaos scenario suite: each chaos-* experiment runs the same workload twice
// — a fault-free control and a faulted run — over chaosWindows virtual-time
// windows, and reports per-window progress so graceful degradation is
// checkable window by window. The acceptance tests assert the degradation
// invariants (bounded throughput loss under the fault, recovery after it
// clears, forward progress in every window, bounded p99 inflation) at BOTH
// the 25 µs and 5 µs simulator steps.

// chaosWindows is the number of reporting windows. Faults are injected at
// the start of window 4 and cleared at the start of window 7 (1-based), so
// the timeline is: windows 1-3 healthy baseline, 4-6 faulted, 7-9 recovery.
const chaosWindows = 9

// chaosFaultWindow / chaosClearWindow are the 0-based window indices at
// whose start the fault fires and clears.
const (
	chaosFaultWindow = 3
	chaosClearWindow = 6
)

// ChaosRun is the measured outcome of one chaos configuration (control or
// faulted), exposed so the acceptance tests can assert the degradation
// invariants at both simulator scales.
type ChaosRun struct {
	// Label identifies the configuration; Faulted tells the runs apart.
	Label   string
	Faulted bool

	// Window is the reporting window length; Done counts statements
	// completed per window (the progress counter — a zero window means the
	// engine stopped making progress), and TP is the same as q/min.
	Window float64
	Done   []uint64
	TP     []float64

	// Latency is the whole-horizon completed-statement distribution.
	Latency metrics.LatencyStats

	// Injected is the chaos layer's applied-fault log (faulted runs only).
	Injected []chaos.Applied
	// Actions is the adaptive placer's decision log (experiments that run
	// one).
	Actions []adaptive.Action
	// Cohorts is the shared-scan registry outcome (experiments that enable
	// sharing).
	Cohorts sharedscan.Stats
	// Merges counts completed background delta merges.
	Merges int
	// Tenants is the per-tenant outcome (multi-tenant experiments).
	Tenants []workload.TenantLoadStats
	// ReplicaSockets is the hot column's final replica-socket list
	// (chaos-socket only).
	ReplicaSockets []int

	// Trace is the run's flight-recorder data: statement spans, the decision
	// log, and the windowed time-series the progress counters above are
	// derived from.
	Trace *trace.Data
	// Fingerprint is the run's Report.Fingerprints line.
	Fingerprint string
}

// chaosHorizon returns the windowed timeline of a scale.
func chaosHorizon(s Scale) (window, horizon float64) {
	horizon = s.Warmup + 2*s.Measure
	return horizon / chaosWindows, horizon
}

// chaosTrace enables the flight recorder with the reporting window as the
// sampling interval, so the recorded time-series IS the per-window progress
// timeline the chaos tables report. Every chaos scenario calls it before
// starting its workload.
func chaosTrace(e *core.Engine, window float64) {
	e.EnableTracing(trace.Config{SampleInterval: window})
}

// runChaosWindows advances the engine over the whole windowed horizon and
// derives the per-window progress counters from the flight recorder's
// time-series (chaosTrace wired the sampler to the reporting window), then
// records the whole-run latency distribution, the recorder's data and the
// engine's fingerprint line. The sampler observes the engine at exactly the
// instants the old per-window loop read the counters, so the derived numbers
// are bit-identical to the hand-rolled bookkeeping this replaced.
func runChaosWindows(e *core.Engine, run *ChaosRun, window float64) {
	e.Sim.Run(float64(chaosWindows) * window)
	e.Trace.Sampler.Flush(e.Sim.Now())
	samples := e.Trace.Sampler.Samples()
	if len(samples) > chaosWindows {
		samples = samples[:chaosWindows]
	}
	for _, smp := range samples {
		run.Done = append(run.Done, smp.Delta.QueriesDone)
		run.TP = append(run.TP, float64(smp.Delta.QueriesDone)*60/window)
	}
	run.Latency = e.Counters.Latencies()
	run.Trace = e.Trace.Data()
	run.Fingerprint = fingerprintLine(run.Label, e)
}

// meanTP averages the per-window throughput over [from, to).
func (r ChaosRun) meanTP(from, to int) float64 { return meanf(r.TP[from:to]) }

// MinFaultTP returns the worst faulted-window throughput.
func (r ChaosRun) MinFaultTP() float64 {
	min := r.TP[chaosFaultWindow]
	for _, v := range r.TP[chaosFaultWindow:chaosClearWindow] {
		if v < min {
			min = v
		}
	}
	return min
}

// FaultTP returns the mean throughput of the faulted windows.
func (r ChaosRun) FaultTP() float64 { return r.meanTP(chaosFaultWindow, chaosClearWindow) }

// RecoveryTP returns the mean throughput of the final two (post-recovery)
// windows.
func (r ChaosRun) RecoveryTP() float64 { return r.meanTP(chaosWindows-2, chaosWindows) }

// chaosDataset sizes the chaos experiments' table: 16 columns at 2x the
// scale rows keeps a full private pass heavy enough that a socket or MC
// fault visibly moves the equilibrium, without delta-merge-scale runtimes.
func chaosDataset(s Scale) workload.DatasetConfig {
	return workload.DatasetConfig{
		Rows: 2 * s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
}

// chaosReport renders the shared control-vs-faulted tables of a chaos
// experiment.
func chaosReport(rep *Report, control, faulted ChaosRun) {
	rep.Fingerprints = append(rep.Fingerprints, control.Fingerprint, faulted.Fingerprint)
	header := []string{"configuration"}
	for w := 0; w < chaosWindows; w++ {
		tag := ""
		if w >= chaosFaultWindow && w < chaosClearWindow {
			tag = "*"
		}
		header = append(header, fmt.Sprintf("w%d%s", w+1, tag))
	}
	tp := rep.AddTable("throughput over virtual time (q/min per window; * = fault active)", header)
	for _, r := range []ChaosRun{control, faulted} {
		row := []string{r.Label}
		for _, v := range r.TP {
			row = append(row, f0(v))
		}
		tp.AddRow(row...)
	}

	sum := rep.AddTable("graceful degradation", []string{
		"configuration", "baseline TP", "fault TP", "min fault TP", "recovered TP",
		"fault/ctl", "recovered/ctl", "p50", "p99"})
	for _, r := range []ChaosRun{control, faulted} {
		sum.AddRow(r.Label, f0(r.meanTP(1, chaosFaultWindow)), f0(r.FaultTP()), f0(r.MinFaultTP()),
			f0(r.RecoveryTP()),
			fmt.Sprintf("%.2fx", r.FaultTP()/control.FaultTP()),
			fmt.Sprintf("%.2fx", r.RecoveryTP()/control.RecoveryTP()),
			ms(r.Latency.P50), ms(r.Latency.P99))
	}

	ev := rep.AddTable("injected faults", []string{"t(ms)", "fault", "socket", "factor", "tasks re-placed", "replicas dropped"})
	for _, a := range faulted.Injected {
		ev.AddRow(fmt.Sprintf("%.1f", a.At*1e3), a.Kind.String(), itoa(a.Socket),
			f2(a.Factor), itoa(a.TasksReplaced), itoa(a.ReplicasDropped))
	}
	if len(faulted.Injected) == 0 {
		ev.AddRow("-", "(none)", "-", "-", "-", "-")
	}

	chaosTimeline(rep, faulted)
	rep.Trace = faulted.Trace
	autoTriage(rep, faulted)
}

// chaosTimeline renders the faulted run's flight-recorder views: the windowed
// time-series (memory throughput, queue depths, steals alongside the progress
// counter) and the control-plane decision log with causes.
func chaosTimeline(rep *Report, faulted ChaosRun) {
	if faulted.Trace == nil {
		return
	}
	tl := rep.AddTable("flight recorder: faulted-run time-series", []string{
		"t(ms)", "done", "MC GiB/s", "per-socket GiB/s", "queued", "stolen"})
	for _, smp := range faulted.Trace.Samples {
		per := make([]string, len(smp.Delta.MCBytes))
		for i, g := range smp.MCGiBs() {
			per[i] = f1(g)
		}
		queued := 0
		for _, q := range smp.QueueDepths {
			queued += q
		}
		tl.AddRow(fmt.Sprintf("%.1f", smp.Time*1e3), itoa(int(smp.Delta.QueriesDone)),
			f1(smp.TotalMCGiBs()), strings.Join(per, "/"),
			itoa(queued), itoa(int(smp.Delta.TasksStolen)))
	}

	const maxDecisionRows = 40
	dl := rep.AddTable("flight recorder: faulted-run decisions", []string{
		"t(ms)", "source", "kind", "item", "cause"})
	for i, d := range faulted.Trace.Decisions {
		if i >= maxDecisionRows {
			dl.AddRow("...", "", "", "", fmt.Sprintf("(%d more)", len(faulted.Trace.Decisions)-maxDecisionRows))
			break
		}
		dl.AddRow(fmt.Sprintf("%.1f", d.Time*1e3), d.Source, d.Kind, d.Item, d.Cause)
	}
	if len(faulted.Trace.Decisions) == 0 {
		dl.AddRow("-", "(none)", "-", "-", "-")
	}
}

// ---- chaos-socket: socket failure and return under the adaptive placer ----

// chaosSocketVictim is the socket taken offline; chaosSocketReplCol is the
// column whose pre-placed replica on that socket the fault must invalidate.
const (
	chaosSocketVictim  = 1
	chaosSocketReplCol = 0
)

// RunChaosSocket executes the socket-failure scenario: 64 closed-loop
// uniform scan clients on the RR-placed table with the adaptive placer
// running, and (when faulted) socket 1 going offline at the start of window
// 4 — its queued tasks drained and re-placed, its workers parked, and the
// hot column's replica there invalidated — then returning at the start of
// window 7. Recovery is the placer's and scheduler's job, not the fault
// schedule's: the dropped replica stays gone unless the placer re-earns it.
func RunChaosSocket(s Scale, faulted bool) ChaosRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	table := workload.Generate(chaosDataset(s))
	e.Placer.PlaceRR(table)
	replCol := table.Parts[0].Columns[chaosSocketReplCol]
	e.Placer.AddReplica(replCol, chaosSocketVictim)

	window, _ := chaosHorizon(s)
	chaosTrace(e, window)
	cfg := adaptive.DefaultConfig()
	cfg.Period = window / 4
	placer := adaptive.New(e, &adaptive.Catalog{Tables: []*colstore.Table{table}}, cfg)
	e.Sim.AddActor(placer)

	var inj *chaos.Injector
	label := "fault-free control"
	if faulted {
		label = "socket offline w4-w6"
		inj = e.EnableChaos(chaos.Config{Schedule: []chaos.Event{
			{At: float64(chaosFaultWindow) * window, Kind: chaos.SocketOffline, Socket: chaosSocketVictim},
			{At: float64(chaosClearWindow) * window, Kind: chaos.SocketOnline, Socket: chaosSocketVictim},
		}}, table)
	}

	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N: 64, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser: workload.HotColumnChoice{Hot: chaosSocketReplCol, P: 0.3}, Seed: 9,
	})
	clients.Start()

	run := ChaosRun{Label: label, Faulted: faulted, Window: window}
	runChaosWindows(e, &run, window)
	run.Actions = placer.Actions
	if inj != nil {
		run.Injected = inj.Applied
	}
	run.ReplicaSockets = append([]int(nil), replCol.ReplicaSockets...)
	return run
}

func runChaosSocket(s Scale) *Report {
	rep := &Report{
		ID:    "chaos-socket",
		Title: "Chaos: socket failure and return under the adaptive placer",
		Description: "Socket 1 goes offline mid-run (queued tasks re-placed, workers parked, its " +
			"replica invalidated) and returns three windows later; the scheduler and placer must " +
			"degrade gracefully and re-converge, not livelock.",
	}
	control := RunChaosSocket(s, false)
	faulted := RunChaosSocket(s, true)
	chaosReport(rep, control, faulted)

	ta := rep.AddTable("placer actions (faulted run)", []string{"t(ms)", "action", "column", "from", "to"})
	for _, a := range faulted.Actions {
		ta.AddRow(fmt.Sprintf("%.1f", a.Time*1e3), a.Kind, a.Column, itoa(a.From), itoa(a.To))
	}
	if len(faulted.Actions) == 0 {
		ta.AddRow("-", "(none)", "-", "-", "-")
	}
	return rep
}

// ---- chaos-thermal: memory-controller throttling ---------------------------

// chaosThermalFactor throttles the serving MC to 30% of nominal — a severe
// thermal event, strong enough that the fault must visibly bite.
const chaosThermalFactor = 0.3

// RunChaosThermal executes the thermal-throttling scenario: 64 closed-loop
// clients all scanning one socket-0 column (the MC-bound regime), with
// socket 0's memory controller throttled to 30% of nominal during windows
// 4-6. No placer runs: the experiment isolates the engine's raw degradation
// and recovery when the serving controller's capacity collapses and returns.
func RunChaosThermal(s Scale, faulted bool) ChaosRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	table := workload.Generate(chaosDataset(s))
	e.Placer.PlaceRR(table)

	window, _ := chaosHorizon(s)
	chaosTrace(e, window)
	var inj *chaos.Injector
	label := "fault-free control"
	if faulted {
		label = fmt.Sprintf("MC0 @ %.0f%% w4-w6", chaosThermalFactor*100)
		inj = e.EnableChaos(chaos.Config{Schedule: []chaos.Event{
			{At: float64(chaosFaultWindow) * window, Kind: chaos.MCThrottle, Socket: 0, Factor: chaosThermalFactor},
			{At: float64(chaosClearWindow) * window, Kind: chaos.MCThrottle, Socket: 0, Factor: 1},
		}}, table)
	}

	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N: 64, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser: workload.FixedColumnChoice{Col: 0}, Seed: 9, // column 0 lives on socket 0 under RR
	})
	clients.Start()

	run := ChaosRun{Label: label, Faulted: faulted, Window: window}
	runChaosWindows(e, &run, window)
	if inj != nil {
		run.Injected = inj.Applied
	}
	return run
}

func runChaosThermal(s Scale) *Report {
	rep := &Report{
		ID:    "chaos-thermal",
		Title: "Chaos: memory-controller thermal throttling",
		Description: "The serving socket's MC drops to 30% of nominal bandwidth for three windows " +
			"while every client scans a column it serves: throughput must track the capacity loss " +
			"(bounded, no collapse) and return to baseline when the throttle lifts.",
	}
	control := RunChaosThermal(s, false)
	faulted := RunChaosThermal(s, true)
	chaosReport(rep, control, faulted)
	return rep
}
