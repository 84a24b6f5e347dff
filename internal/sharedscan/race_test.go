package sharedscan_test

import (
	"sync"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// TestCohortLifecycleConcurrentEngines drives the full cohort lifecycle —
// join-window merge, mid-flight attach, wrap-around pass, and shed with a
// synchronous reentrant resubmit — on several engines in parallel goroutines.
// Each engine is self-contained, so the test's job under -race is to prove
// the registry and its exec/core plumbing share no hidden package-level
// mutable state between instances (a regression here would poison every
// multi-engine harness sweep). It stays fast and runs under -short on
// purpose: the CI race job is `go test -short -race`.
func TestCohortLifecycleConcurrentEngines(t *testing.T) {
	const engines = 6
	var wg sync.WaitGroup
	for g := 0; g < engines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				runAttachWrapLifecycle(t, int64(g+1))
			case 1:
				runJoinWindowMergeLifecycle(t, int64(g+1))
			default:
				runShedResubmitLifecycle(t, int64(g+1))
			}
		}(g)
	}
	wg.Wait()
}

// runAttachWrapLifecycle exercises merge + mid-flight attach + wrap-around:
// a burst of scans merges into one cohort, and a late arrival attaches to
// the running pass and is finished by a wrap pass.
func runAttachWrapLifecycle(t *testing.T, seed int64) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), seed, 5e-6)
	table := workload.Generate(workload.DatasetConfig{
		Rows: 8_000_000, Columns: 4, BitcaseMin: 12, BitcaseMax: 15,
		Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{})

	done := 0
	q := func() *core.Query {
		return &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	for i := 0; i < 4; i++ {
		e.Submit(q())
	}
	e.Sim.Run(100e-6) // past the query overhead: the cohort pass is mid-flight
	e.Submit(q())     // attaches to the running pass
	e.Sim.Run(40e-3)

	st := reg.Stats()
	if done != 5 {
		t.Errorf("seed %d: %d of 5 statements completed (%+v)", seed, done, st)
	}
	if st.Attached == 0 || st.Wraps == 0 {
		t.Errorf("seed %d: attach/wrap lifecycle incomplete: %+v", seed, st)
	}
}

// runJoinWindowMergeLifecycle exercises the forming-cohort merge: with
// attach disabled, arrivals during a running pass wait in the join window
// and launch together as one merged cohort when the pass completes.
func runJoinWindowMergeLifecycle(t *testing.T, seed int64) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), seed, 5e-6)
	table := workload.Generate(workload.DatasetConfig{
		Rows: 8_000_000, Columns: 4, BitcaseMin: 12, BitcaseMax: 15,
		Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 20e-3, AttachFraction: -1})

	done := 0
	q := func() *core.Query {
		return &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	e.Submit(q())
	e.Sim.Run(100e-6) // the leader pass is mid-flight
	e.Submit(q())     // both wait in the forming cohort...
	e.Submit(q())     // ...and launch together behind the leader
	e.Sim.Run(40e-3)

	st := reg.Stats()
	if done != 3 {
		t.Errorf("seed %d: %d of 3 statements completed (%+v)", seed, done, st)
	}
	// Merged counts followers, so the two waiters launching as one cohort
	// behind the solo leader show up as a single merged member.
	if st.Merged == 0 {
		t.Errorf("seed %d: forming cohort did not merge: %+v", seed, st)
	}
}

// runShedResubmitLifecycle exercises shed with a synchronous reentrant
// resubmit: a statement waiting in the join window behind a running pass
// expires there, and its OnShed submits it again from inside the registry's
// shed sweep — the closed-loop reissue pattern.
func runShedResubmitLifecycle(t *testing.T, seed int64) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), seed, 5e-6)
	table := workload.Generate(workload.DatasetConfig{
		Rows: 8_000_000, Columns: 4, BitcaseMin: 12, BitcaseMax: 15,
		Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(table)
	e.EnableAdmission(admit.Config{OLAPDeadline: 100e-6, InteractiveDeadline: 100e-6})
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 10e-3, AttachFraction: -1})

	doneA := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { doneA = true },
	})
	e.Sim.Run(100e-6)

	sheds := 0
	var qB *core.Query
	qB = &core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnShed: func() {
			sheds++
			if sheds == 1 {
				e.Submit(qB)
			}
		},
	}
	e.Submit(qB)
	e.Sim.Run(40e-3)

	if !doneA {
		t.Errorf("seed %d: leader pass never completed", seed)
	}
	if sheds == 0 {
		t.Errorf("seed %d: no shed despite the join-window deadline: %+v", seed, reg.Stats())
	}
}
