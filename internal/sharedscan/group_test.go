package sharedscan_test

// Plan-driven group tests: core.SubmitBatch hands the registry whole groups
// of same-key members (Registry.SubmitGroup); the group must ride the cohort
// lifecycle as a unit — attaching to a running pass together when the attach
// bound admits it, or queueing behind it together when not.

import (
	"testing"

	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// TestGroupAttachesMidFlight: a plan-driven group arriving while a pass is in
// its early fraction attaches whole, like timed arrivals would one by one.
func TestGroupAttachesMidFlight(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{})

	leaderDone := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { leaderDone = true },
	})
	e.Sim.Run(100e-6)
	if leaderDone {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}
	done := 0
	qs := make([]*core.Query, 3)
	for i := range qs {
		qs[i] = &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	e.SubmitBatch(qs)
	e.Sim.Run(30e-3)

	if !leaderDone || done != 3 {
		t.Fatalf("statements incomplete: leader=%v group=%d/3", leaderDone, done)
	}
	st := reg.Stats()
	if st.PlanGrouped != 3 {
		t.Fatalf("group not plan-grouped: %+v", st)
	}
	if st.Attached != 3 {
		t.Fatalf("group did not attach whole to the running pass: %+v", st)
	}
	if st.Passes != 1 {
		t.Fatalf("expected one launched pass (plus a wrap): %+v", st)
	}
}

// TestGroupQueuesBehindLateRunningPass: with the attach bound closed, a
// plan-driven group arriving mid-pass queues behind it as one forming cohort
// and launches together when the pass completes — one extra pass, not three.
func TestGroupQueuesBehindLateRunningPass(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{AttachFraction: -1})

	leaderDone := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { leaderDone = true },
	})
	e.Sim.Run(100e-6)
	if leaderDone {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}
	done := 0
	qs := make([]*core.Query, 3)
	for i := range qs {
		qs[i] = &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	e.SubmitBatch(qs)
	e.Sim.Run(40e-3)

	if !leaderDone || done != 3 {
		t.Fatalf("statements incomplete: leader=%v group=%d/3", leaderDone, done)
	}
	st := reg.Stats()
	if st.PlanGrouped != 3 {
		t.Fatalf("group not plan-grouped: %+v", st)
	}
	if st.Attached != 0 {
		t.Fatalf("attach disabled but members attached: %+v", st)
	}
	if st.Passes != 2 || st.Merged != 2 {
		t.Fatalf("group did not launch as one pass behind the leader: %+v", st)
	}
}
