package harness

import (
	"fmt"

	"numacs/internal/core"
	"numacs/internal/metrics"
	"numacs/internal/sharedscan"
	"numacs/internal/workload"
)

// Shared-scan experiment: N closed-loop clients hammer ONE read-hot column
// of the 4-socket machine (the same-column hot-scan mix), with the cohort
// layer either enabled or bypassed. Unshared, every statement pays a full
// memory pass over the column, so the serving socket's memory controller
// saturates long before the cores; shared, concurrent statements merge into
// cohorts that stream the column once per pass and evaluate every member
// predicate per chunk. The headline criteria — asserted by the acceptance
// tests at BOTH the 25 µs and 5 µs simulator steps — are >=2x statement
// throughput at >=8 concurrent same-column scans and <=0.5x physical MC
// bytes per statement: the win must be memory traffic, not a coarse-step
// equilibrium artifact.

// sharedScanDataset sizes the experiment table: 8x the scale rows makes a
// private pass heavy enough that the unshared control saturates the serving
// socket's memory controller within the sweep — the paper's MC-bound
// regime, where sharing is the lever.
func sharedScanDataset(s Scale) workload.DatasetConfig {
	return workload.DatasetConfig{
		Rows: 8 * s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
}

// SharedScanRun is the measured outcome of one shared-scan configuration,
// exposed so the acceptance tests can assert the criteria at both simulator
// scales.
type SharedScanRun struct {
	// Label and SharingOn identify the configuration; Clients is the
	// closed-loop population, all scanning the same column.
	Label     string
	SharingOn bool
	Clients   int

	// QPM and QueriesDone are the measure-window statement throughput.
	QPM         float64
	QueriesDone uint64

	// MCBytes is the physical DRAM traffic served by all memory controllers
	// in the measure window; BytesPerQuery normalizes it per completed
	// statement — the "one memory pass for N scans" criterion.
	MCBytes       float64
	BytesPerQuery float64
	// LinkGiB is the interconnect data traffic of the window.
	LinkGiB float64

	// Latency is the completed-statement latency distribution (join-window
	// wait included for cohort members).
	Latency metrics.LatencyStats

	// Cohorts holds the registry outcome counters (whole run, sharing-on
	// only); MeanCohort is statements per physical pass.
	Cohorts    sharedscan.Stats
	MeanCohort float64

	// Fingerprint is the run's Report.Fingerprints line.
	Fingerprint string
}

// RunSharedScan executes one shared-scan configuration: clients closed-loop
// scanners of column COL000 on the RR-placed table, cohort layer on or off.
func RunSharedScan(s Scale, on bool, clients int) SharedScanRun {
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	table := workload.Generate(sharedScanDataset(s))
	e.Placer.PlaceRR(table)
	var reg *sharedscan.Registry
	if on {
		reg = e.EnableSharedScans(sharedscan.Config{})
	}
	cl := workload.NewClients(e, table, workload.ClientsConfig{
		N: clients, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser: workload.FixedColumnChoice{Col: 0}, Seed: 9,
	})
	cl.Start()
	e.Sim.Run(s.Warmup)
	e.Counters.Reset()
	e.Sim.Run(s.Warmup + s.Measure)

	label := "private passes (sharing OFF)"
	if on {
		label = "shared cohorts (sharing ON)"
	}
	run := SharedScanRun{
		Label: label, SharingOn: on, Clients: clients,
		QPM:         e.Counters.ThroughputQPM(s.Measure),
		QueriesDone: e.Counters.QueriesDone,
		MCBytes:     e.Counters.TotalMCBytes(),
		LinkGiB:     e.Counters.LinkDataBytes / (1 << 30),
		Latency:     e.Counters.Latencies(),
	}
	if run.QueriesDone > 0 {
		run.BytesPerQuery = run.MCBytes / float64(run.QueriesDone)
	}
	if reg != nil {
		run.Cohorts = reg.Stats()
		run.MeanCohort = reg.MeanCohort()
	}
	run.Fingerprint = fingerprintLine(fmt.Sprintf("%s %dcl", label, clients), e)
	return run
}

// runSharedScan renders the shared-scan experiment: a concurrency sweep of
// the same-column hot-scan mix with the cohort layer on vs off.
func runSharedScan(s Scale) *Report {
	rep := &Report{
		ID:    "shared-scan",
		Title: "Shared scan cohorts: one memory pass for N concurrent scans",
		Description: "Closed-loop clients all scanning one column; cohort layer on vs off. " +
			"Sharing must cut physical MC bytes per statement, not just rebalance them.",
	}

	sweep := []int{1, 8, 16, 32}
	var runs []SharedScanRun
	for _, n := range sweep {
		runs = append(runs, RunSharedScan(s, false, n), RunSharedScan(s, true, n))
	}
	for _, r := range runs {
		rep.Fingerprints = append(rep.Fingerprints, r.Fingerprint)
	}

	tb := rep.AddTable("throughput and physical traffic vs concurrency", []string{
		"clients", "mode", "done", "q/min", "speedup", "MC GiB", "KiB/query", "bytes ratio", "QPI(GiB)", "p50", "p99"})
	for i := 0; i < len(runs); i += 2 {
		off, on := runs[i], runs[i+1]
		for _, r := range []SharedScanRun{off, on} {
			mode := "off"
			speedup, ratio := "1.00x", "1.00"
			if r.SharingOn {
				mode = "on"
				speedup = fmt.Sprintf("%.2fx", r.QPM/off.QPM)
				ratio = fmt.Sprintf("%.2f", r.BytesPerQuery/off.BytesPerQuery)
			}
			tb.AddRow(itoa(r.Clients), mode, itoa(int(r.QueriesDone)), f0(r.QPM), speedup,
				f2(r.MCBytes/(1<<30)), f1(r.BytesPerQuery/1024), ratio,
				f2(r.LinkGiB), ms(r.Latency.P50), ms(r.Latency.P99))
		}
	}

	ct := rep.AddTable("cohort lifecycle (sharing ON, whole run)", []string{
		"clients", "stmts", "passes", "solo", "merged", "attached", "wraps", "shed", "mean cohort"})
	for i := 1; i < len(runs); i += 2 {
		r := runs[i]
		ct.AddRow(itoa(r.Clients), itoa(int(r.Cohorts.Statements)), itoa(int(r.Cohorts.Passes)),
			itoa(int(r.Cohorts.Solo)), itoa(int(r.Cohorts.Merged)), itoa(int(r.Cohorts.Attached)),
			itoa(int(r.Cohorts.Wraps)), itoa(int(r.Cohorts.Shed)), f1(r.MeanCohort))
	}
	return rep
}
