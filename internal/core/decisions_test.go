package core

import (
	"testing"

	"numacs/internal/admit"
	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// TestDecisionSourcesAnyEnableOrder pins that every control-plane layer
// records into the flight recorder's decision log whether tracing is
// enabled before or after it: each source reads the tracer through the
// engine's exec.Env when it records, so no Enable* call wires a log.
func TestDecisionSourcesAnyEnableOrder(t *testing.T) {
	for _, tracingFirst := range []bool{true, false} {
		e := NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
		tbl := colstore.NewTable("TBL", []*colstore.Column{colstore.NewSynthetic("HOT", 2_000_000, 1<<16, false)})
		e.Placer.PlaceRR(tbl)

		var tr *trace.Tracer
		if tracingFirst {
			tr = e.EnableTracing(trace.Config{})
		}
		// A concurrency limit below the submission burst queues statements
		// at admission, and the 100 us deadlines shed them there.
		e.EnableAdmission(admit.Config{MaxConcurrent: 2, OLAPDeadline: 100e-6, InteractiveDeadline: 100e-6})
		e.EnableSharedScans(sharedscan.Config{})
		e.EnableChaos(chaos.Config{Schedule: []chaos.Event{{At: 50e-6, Kind: chaos.MCThrottle, Socket: 0, Factor: 0.5}}}, tbl)
		if !tracingFirst {
			tr = e.EnableTracing(trace.Config{})
		}

		for i := 0; i < 16; i++ {
			e.Submit(&Query{Table: tbl, Column: "HOT", Selectivity: 1e-5, Parallel: true, Strategy: Bound})
		}
		e.Sim.Run(2e-3)

		sources := map[string]int{}
		for _, d := range tr.Decisions.Events() {
			sources[d.Source]++
		}
		for _, src := range []string{"admission", "cohort", "chaos"} {
			if sources[src] == 0 {
				t.Errorf("tracing first=%v: no %q decision recorded (sources %v)", tracingFirst, src, sources)
			}
		}
	}
}
