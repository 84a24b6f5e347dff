package harness

import (
	"fmt"

	"numacs/internal/adaptive"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// ReplRun is the measured outcome of one adaptive-repl configuration: the
// per-window throughput and QPI series over virtual time, the placer's
// decision log, and its replica-memory accounting. Exposed so tests can
// assert the acceptance criteria (replication wins, budget respected).
type ReplRun struct {
	Label   string
	TP      []float64 // q/min per window
	QPIGiB  []float64 // QPI data GiB per window
	Actions []adaptive.Action
	// FinalTP is the mean throughput of the last third of the windows,
	// after the placer converged.
	FinalTP          float64
	ReplicaBytes     int64
	PeakReplicaBytes int64
	BudgetBytes      int64
	PagesMoved       int64
	PagesCopied      int64
	// Fingerprint is the run's Report.Fingerprints line.
	Fingerprint string
}

// adaptiveReplWindows is the number of virtual-time windows the experiment
// reports.
const adaptiveReplWindows = 9

// RunAdaptiveRepl executes one adaptive-repl configuration: a read-hot
// single-column skew of unparallelized scan statements (98% of queries hit
// one column, low selectivity, Parallel off — many small concurrent
// statements) on a block RR layout, with the Section 7 placer attached.
// This is the workload the move/partition levers cannot fix: repartitioning
// a column forces every single-task scan to stream most of the IV remotely
// (the Figure 10 effect) and moving it only relocates the hotspot, while a
// replica on every socket serves each scan locally. replicate toggles the
// lever: false caps the placer to the paper's Figure 20 moves and
// repartitioning, true adds the Section 4.2 replication placement under the
// default memory budget.
func RunAdaptiveRepl(s Scale, replicate bool) ReplRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	ds := workload.DatasetConfig{
		Rows: s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
	table := workload.Generate(ds)
	// Block layout: four columns per socket; the hot column and its three
	// neighbours share socket 0.
	e.Placer.PlaceRRBlocks(table)

	cfg := adaptive.DefaultConfig()
	cfg.Period = s.Measure / 12
	if !replicate {
		cfg.ReplicaBudgetBytes = 0
	}
	placer := adaptive.New(e, &adaptive.Catalog{Tables: []*colstore.Table{table}}, cfg)
	e.Sim.AddActor(placer)

	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N: s.Max, Selectivity: lowSel, Parallel: false, Strategy: core.Bound,
		Chooser: workload.HotColumnChoice{Hot: 2, P: 0.98}, Seed: 11,
	})
	clients.Start()

	label := "move/partition-only"
	if replicate {
		label = "replicating"
	}
	run := ReplRun{Label: label, BudgetBytes: cfg.ReplicaBudgetBytes}
	horizon := s.Warmup + 2*s.Measure
	window := horizon / adaptiveReplWindows
	for w := 0; w < adaptiveReplWindows; w++ {
		e.Counters.Reset()
		e.Sim.Run(float64(w+1) * window)
		run.TP = append(run.TP, e.Counters.ThroughputQPM(window))
		run.QPIGiB = append(run.QPIGiB, e.Counters.LinkDataBytes/(1<<30))
	}
	tail := adaptiveReplWindows / 3
	sum := 0.0
	for _, tp := range run.TP[adaptiveReplWindows-tail:] {
		sum += tp
	}
	run.FinalTP = sum / float64(tail)
	run.Actions = placer.Actions
	run.ReplicaBytes = placer.ReplicaBytes()
	run.PeakReplicaBytes = placer.PeakReplicaBytes
	run.PagesMoved = placer.PagesMoved
	run.PagesCopied = placer.PagesCopied
	run.Fingerprint = fingerprintLine(label, e)
	return run
}

// runAdaptiveRepl reproduces the adaptive-replication comparison: the same
// read-hot skew of unparallelized statements balanced once with
// moves/repartitioning only (the placer of Figure 20) and once with the
// replication lever enabled. The baseline's levers cannot help here —
// partitioning makes single-task scans stream remotely (Figure 10) and
// moving only relocates the hotspot — while replication serves every scan
// from a local copy on its own socket, so the replicating placer wins on
// both throughput and QPI traffic.
func runAdaptiveRepl(s Scale) *Report {
	rep := &Report{ID: "adaptive-repl", Title: "Adaptive replication of a read-hot column vs move/partition-only"}

	base := RunAdaptiveRepl(s, false)
	repl := RunAdaptiveRepl(s, true)
	rep.Fingerprints = []string{base.Fingerprint, repl.Fingerprint}

	header := []string{"configuration"}
	for w := 0; w < adaptiveReplWindows; w++ {
		header = append(header, fmt.Sprintf("w%d", w+1))
	}
	tp := rep.AddTable("throughput over virtual time (q/min per window)", header)
	qpi := rep.AddTable("QPI data traffic over virtual time (GiB per window)", header)
	for _, r := range []ReplRun{base, repl} {
		tpRow, qpiRow := []string{r.Label}, []string{r.Label}
		for w := 0; w < adaptiveReplWindows; w++ {
			tpRow = append(tpRow, f0(r.TP[w]))
			qpiRow = append(qpiRow, fmt.Sprintf("%.2f", r.QPIGiB[w]))
		}
		tp.AddRow(tpRow...)
		qpi.AddRow(qpiRow...)
	}

	sum := rep.AddTable("converged comparison (last third of windows)", []string{
		"configuration", "TP(q/min)", "vs baseline", "replica KiB (peak)", "budget KiB", "pages moved", "pages copied"})
	for _, r := range []ReplRun{base, repl} {
		sum.AddRow(r.Label, f0(r.FinalTP), fmt.Sprintf("%.2fx", r.FinalTP/base.FinalTP),
			fmt.Sprintf("%d (%d)", r.ReplicaBytes/1024, r.PeakReplicaBytes/1024),
			itoa(int(r.BudgetBytes/1024)), itoa(int(r.PagesMoved)), itoa(int(r.PagesCopied)))
	}

	ta := rep.AddTable("replicating placer actions", []string{"t(ms)", "action", "column", "from", "to", "parts", "KiB"})
	for _, a := range repl.Actions {
		ta.AddRow(fmt.Sprintf("%.1f", a.Time*1e3), a.Kind, a.Column, itoa(a.From), itoa(a.To),
			itoa(a.Parts), itoa(int(a.Bytes/1024)))
	}
	if len(repl.Actions) == 0 {
		ta.AddRow("-", "(none)", "-", "-", "-", "-", "-")
	}
	return rep
}
