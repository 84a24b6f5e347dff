package harness

import (
	"fmt"

	"numacs/internal/core"
)

// runFig15 reproduces Figure 15: skewed workload, RR placement, the three
// scheduling strategies — stealing memory-intensive tasks hurts.
func runFig15(s Scale) *Report {
	rep := &Report{ID: "fig15", Title: "Skewed workload: OS vs Target vs Bound (RR)"}
	base := s.spec4(FourSocket)
	results := sweepStrategies(base, s, []combo{
		{PlacementSpec{Kind: RR}, core.OSched},
		{PlacementSpec{Kind: RR}, core.Target},
		{PlacementSpec{Kind: RR}, core.Bound},
	}, lowSel, true)
	rep.addResults(results...)
	label := func(r Result) string { return r.Spec.Strategy.String() }
	tpSweepTable(rep, "throughput (q/min)", results, s, label)
	addMetricsTable(rep, fmt.Sprintf("performance metrics, %d clients", s.Max), filterMax(results, s.Max), label)
	tb := rep.AddTable("per-socket memory throughput (GiB/s)", []string{"case", "per-socket"})
	for _, r := range filterMax(results, s.Max) {
		tb.AddRow(label(r), perSocketRow(r))
	}
	return rep
}

// runFig16 reproduces Figure 16: the skewed workload with the three data
// placements under Bound — partitioning smooths the skew.
func runFig16(s Scale) *Report {
	rep := &Report{ID: "fig16", Title: "Skewed workload: RR vs IVP vs PP (Bound)"}
	base := s.spec4(FourSocket)
	results := sweepStrategies(base, s, []combo{
		{PlacementSpec{Kind: RR}, core.Bound},
		{PlacementSpec{Kind: IVP, Partitions: 4}, core.Bound},
		{PlacementSpec{Kind: PP, Partitions: 4}, core.Bound},
	}, lowSel, true)
	rep.addResults(results...)
	label := func(r Result) string { return r.Spec.Placement.String() }
	tpSweepTable(rep, "throughput (q/min)", results, s, label)
	addMetricsTable(rep, fmt.Sprintf("performance metrics, %d clients", s.Max), filterMax(results, s.Max), label)
	tb := rep.AddTable("per-socket memory throughput (GiB/s)", []string{"case", "per-socket"})
	for _, r := range filterMax(results, s.Max) {
		tb.AddRow(label(r), perSocketRow(r))
	}
	return rep
}

// runFig17 reproduces Figure 17: the same comparison at 10% selectivity,
// where the CPU-intensive materialization dominates and PP's local
// dictionaries win.
func runFig17(s Scale) *Report {
	rep := &Report{ID: "fig17", Title: "Skewed, 10% selectivity: RR vs IVP vs PP (Bound)"}
	base := s.spec4(FourSocket)
	results := sweepStrategies(base, s, []combo{
		{PlacementSpec{Kind: RR}, core.Bound},
		{PlacementSpec{Kind: IVP, Partitions: 4}, core.Bound},
		{PlacementSpec{Kind: PP, Partitions: 4}, core.Bound},
	}, highSel, true)
	rep.addResults(results...)
	label := func(r Result) string { return r.Spec.Placement.String() }
	tpSweepTable(rep, "throughput (q/min)", results, s, label)
	addMetricsTable(rep, fmt.Sprintf("performance metrics, %d clients", s.Max), filterMax(results, s.Max), label)
	return rep
}

// runFig18 reproduces Figure 18: Figure 17 with Target — stealing
// CPU-intensive tasks is fine and lifts RR.
func runFig18(s Scale) *Report {
	rep := &Report{ID: "fig18", Title: "Skewed, 10% selectivity: RR vs IVP vs PP (Target)"}
	base := s.spec4(FourSocket)
	results := sweepStrategies(base, s, []combo{
		{PlacementSpec{Kind: RR}, core.Target},
		{PlacementSpec{Kind: IVP, Partitions: 4}, core.Target},
		{PlacementSpec{Kind: PP, Partitions: 4}, core.Target},
	}, highSel, true)
	rep.addResults(results...)
	label := func(r Result) string { return r.Spec.Placement.String() }
	tpSweepTable(rep, "throughput (q/min)", results, s, label)
	addMetricsTable(rep, fmt.Sprintf("performance metrics, %d clients", s.Max), filterMax(results, s.Max), label)
	return rep
}
