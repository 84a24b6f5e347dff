package harness

import (
	"fmt"
	"math/rand"

	"numacs/internal/adaptive"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/delta"
	"numacs/internal/workload"
)

// deltaMergeWindows is the number of virtual-time windows the experiment
// reports. The write phase occupies windows 5-9 (1-based), leaving a
// read-only baseline ramp before it and a recovery tail after it.
const deltaMergeWindows = 13

// deltaMergeScanCol and deltaMergeReplCol are the two columns the lifecycle
// plays out on: the scanned-and-written column whose delta growth degrades
// throughput until the merge folds it back, and the replicated column whose
// copies the write-guard must reclaim once writes reach it.
const (
	deltaMergeScanCol = 2 // socket 0 under the block layout
	deltaMergeReplCol = 5 // socket 1, replicated on sockets 2 and 3 at setup
)

// deltaReadMix concentrates scans on the hot column with a warm secondary
// (the replicated column, so its copies keep earning traffic) over a uniform
// background.
type deltaReadMix struct {
	hot, warm  int
	pHot, pWrm float64
}

// Pick implements workload.Chooser.
func (m deltaReadMix) Pick(rng *rand.Rand, columns int) int {
	r := rng.Float64()
	if r < m.pHot {
		return m.hot % columns
	}
	if r < m.pHot+m.pWrm {
		return m.warm % columns
	}
	return rng.Intn(columns)
}

// deltaWriteMix sends most writes to the hot scanned column and the rest to
// the replicated column (turning it write-hot).
type deltaWriteMix struct {
	hot, warm int
	pHot      float64
}

// Pick implements workload.Chooser.
func (m deltaWriteMix) Pick(rng *rand.Rand, columns int) int {
	if rng.Float64() < m.pHot {
		return m.hot % columns
	}
	return m.warm % columns
}

// DeltaMergeRun is the measured outcome of one delta-merge configuration:
// per-window throughput and the scanned column's delta size over virtual
// time, the placer's decision log, and the end-state the lifecycle
// assertions check. Exposed so tests can validate the acceptance criteria at
// both simulator scales.
type DeltaMergeRun struct {
	Label string
	TP    []float64 // q/min per window
	// DeltaKiB tracks the scanned column's delta size at each window end.
	DeltaKiB []float64
	Actions  []adaptive.Action

	// PreWriteTP is the mean throughput of the read-only windows before
	// writes start (windows 2-4; window 1 is warm-up ramp).
	PreWriteTP float64
	// RecoveredTP is the mean throughput of the last two windows, after the
	// cleanup merge folded the remaining delta.
	RecoveredTP float64
	// WriteStart/WriteStop bound the writers' active window, and MergeTimes
	// lists when the placer fired merges for the scanned column — the tests
	// derive the degradation window from these.
	WriteStart, WriteStop float64
	MergeTimes            []float64
	Window                float64

	MergesCompleted  int
	ReplicatedAtEnd  bool
	FinalDeltaBytes  int64
	Inserts, Updates uint64
	RowsGrownTo      int
	// Fingerprint is the run's Report.Fingerprints line.
	Fingerprint string
}

// RunDeltaMerge executes one delta-merge configuration on the 4-socket
// machine: parallel low-selectivity scans concentrated on one column (with a
// warm replicated secondary), and — when writes is set — an update-heavy
// write mix appended from socket-0 writers during the middle windows. The
// write-aware placer owns the whole lifecycle: the delta grows and degrades
// scans, the size trigger fires a background merge that restores the main,
// the write-guard reclaims the now write-hot replicas of the secondary, and
// the write-cold cleanup merge after the writers stop returns throughput to
// the read-only baseline. The move/partition/replicate levers are frozen
// (huge ImbalanceRatio) so the run isolates exactly the write path.
func RunDeltaMerge(s Scale, writes bool) DeltaMergeRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	ds := workload.DatasetConfig{
		Rows: s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
	table := workload.Generate(ds)
	e.Placer.PlaceRRBlocks(table)
	scanCol := table.Parts[0].Columns[deltaMergeScanCol]
	replCol := table.Parts[0].Columns[deltaMergeReplCol]
	e.Placer.AddReplica(replCol, 2)
	e.Placer.AddReplica(replCol, 3)

	horizon := s.Warmup + 2*s.Measure
	window := horizon / deltaMergeWindows

	cfg := adaptive.DefaultConfig()
	cfg.Period = window / 4
	cfg.ImbalanceRatio = 1e9        // freeze move/partition/replicate: write-path levers only
	cfg.StaleReplicaFraction = 1e-9 // replicas live until the write-guard reclaims them
	cfg.MergeDeltaFraction = 0.4
	cfg.MergeTrafficFraction = 0.9 // size trigger governs the in-phase merge timing
	// The write-guard threshold scales with the balancing period (write bytes
	// accumulate per period, the footprint does not); the compressed virtual
	// horizon here makes periods tiny, so the default per-period fraction is
	// scaled down accordingly.
	cfg.WriteHotFraction = 0.001
	placer := adaptive.New(e, &adaptive.Catalog{Tables: []*colstore.Table{table}}, cfg)
	e.Sim.AddActor(placer)

	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N: 256, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser: deltaReadMix{hot: deltaMergeScanCol, warm: deltaMergeReplCol, pHot: 0.80, pWrm: 0.08},
		Seed:    11,
	})
	clients.Start()

	writeStart, writeStop := 4*window, 9*window
	var writers *workload.Writers
	if writes {
		// Rate tuned so the hot column's delta crosses the merge threshold
		// ~3.2 windows into the 5-window write phase, leaving full windows of
		// monotonic degradation before the merge fires.
		thresholdRows := cfg.MergeDeltaFraction * float64(scanCol.IVBytes()) / delta.RowBytes
		rate := thresholdRows / (3.2 * window) / 0.8
		writers = workload.NewWriters(e, table, workload.WritersConfig{
			Rate: rate, UpdateFraction: 0.8,
			Chooser: deltaWriteMix{hot: deltaMergeScanCol, warm: deltaMergeReplCol, pHot: 0.8},
			Sockets: []int{0}, // colocate appends with the hot column's socket
			Start:   writeStart, Stop: writeStop, Seed: 5,
		})
		e.Sim.AddActor(writers)
	}

	label := "read-only baseline"
	if writes {
		label = "mixed read/write"
	}
	run := DeltaMergeRun{Label: label, WriteStart: writeStart, WriteStop: writeStop, Window: window}
	for w := 0; w < deltaMergeWindows; w++ {
		e.Counters.Reset()
		e.Sim.Run(float64(w+1) * window)
		run.TP = append(run.TP, e.Counters.ThroughputQPM(window))
		run.DeltaKiB = append(run.DeltaKiB, float64(scanCol.DeltaBytes())/1024)
	}

	run.PreWriteTP = meanf(run.TP[1:4])
	run.RecoveredTP = meanf(run.TP[deltaMergeWindows-2:])
	run.Actions = placer.Actions
	for _, a := range placer.Actions {
		if a.Kind == "merge" && a.Column == scanCol.Name {
			run.MergeTimes = append(run.MergeTimes, a.Time)
		}
	}
	run.MergesCompleted = e.MergesCompleted
	run.ReplicatedAtEnd = replCol.Replicated()
	run.FinalDeltaBytes = scanCol.DeltaBytes() + replCol.DeltaBytes()
	run.RowsGrownTo = scanCol.Rows
	if writers != nil {
		run.Inserts, run.Updates = writers.Inserts, writers.Updates
	}
	run.Fingerprint = fingerprintLine(label, e)
	return run
}

func meanf(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// runDeltaMerge reproduces the write-path lifecycle the main/delta
// architecture promises: appends degrade scans as the uncompressed delta
// grows, the background merge restores the read-optimized main (and
// throughput), and the write-guard reclaims replicas of columns that turned
// write-hot — the Section 7 update-rate concerns, actually firing.
func runDeltaMerge(s Scale) *Report {
	rep := &Report{ID: "delta-merge", Title: "Delta-store write path: append, scan degradation, merge, recovery"}

	base := RunDeltaMerge(s, false)
	mixed := RunDeltaMerge(s, true)
	rep.Fingerprints = []string{base.Fingerprint, mixed.Fingerprint}

	header := []string{"configuration"}
	for w := 0; w < deltaMergeWindows; w++ {
		header = append(header, fmt.Sprintf("w%d", w+1))
	}
	tp := rep.AddTable("throughput over virtual time (q/min per window; writes during w5-w9)", header)
	for _, r := range []DeltaMergeRun{base, mixed} {
		row := []string{r.Label}
		for _, v := range r.TP {
			row = append(row, f0(v))
		}
		tp.AddRow(row...)
	}
	dk := rep.AddTable("hot column delta size at window end (KiB)", header)
	for _, r := range []DeltaMergeRun{base, mixed} {
		row := []string{r.Label}
		for _, v := range r.DeltaKiB {
			row = append(row, f1(v))
		}
		dk.AddRow(row...)
	}

	sum := rep.AddTable("lifecycle summary", []string{
		"configuration", "pre-write TP", "min in-write TP", "recovered TP", "recovered/baseline",
		"merges", "inserts", "updates", "repl col copies", "final delta KiB"})
	for _, r := range []DeltaMergeRun{base, mixed} {
		minTP := r.TP[4]
		for _, v := range r.TP[4:9] {
			if v < minTP {
				minTP = v
			}
		}
		copies := 1
		if r.ReplicatedAtEnd {
			copies = 3
		}
		sum.AddRow(r.Label, f0(r.PreWriteTP), f0(minTP), f0(r.RecoveredTP),
			fmt.Sprintf("%.2fx", r.RecoveredTP/base.RecoveredTP),
			itoa(r.MergesCompleted), itoa(int(r.Inserts)), itoa(int(r.Updates)),
			itoa(copies), f1(float64(r.FinalDeltaBytes)/1024))
	}

	ta := rep.AddTable("write-aware placer actions (mixed run)", []string{"t(ms)", "action", "column", "from", "to", "KiB"})
	for _, a := range mixed.Actions {
		ta.AddRow(fmt.Sprintf("%.1f", a.Time*1e3), a.Kind, a.Column, itoa(a.From), itoa(a.To), itoa(int(a.Bytes/1024)))
	}
	if len(mixed.Actions) == 0 {
		ta.AddRow("-", "(none)", "-", "-", "-", "-")
	}
	return rep
}
