package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// scanGolden is one fixed-seed find-phase scenario: run builds and drives an
// engine, check asserts the scenario really took the path it is named for (a
// golden over a path that never ran pins nothing).
type scanGolden struct {
	name   string
	digest string
	run    func() (*core.Engine, *colstore.Table)
	check  func(t *testing.T, e *core.Engine, table *colstore.Table)
}

// TestScanOperatorsGolden pins every find-phase execution path to a digest
// of its fixed-seed run: the index-lookup path, the unparallelized
// multi-part (PP) path, contended cohorts on a replicated column with
// mid-flight attaches and wrap passes (including a plan-driven group), and
// contended cohorts over a column carrying delta rows, so the shared delta
// and wrap-delta task bodies run, once with lock-step clients whose
// attachers missed nothing. One scenario runs the admitted statement paths
// together: cohort scans under admission with deadlines that shed in the
// queue and in the join window, admitted write batches, and SubmitPipeline
// statements. The digest covers the engine's Fingerprint (every
// metrics.Counters field with exact float formatting, the full latency
// sequence and the per-item traffic attribution), the sharedscan.Stats,
// every statement span (phase labels included) and the decision log. The
// simulation is deterministic, so any refactor of the scan operators must
// leave every digest unchanged. The goldens are amd64 digests: arm64 builds
// fuse multiply-adds and drift in the last float bits.
func TestScanOperatorsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are captured on amd64")
	}
	for _, g := range scanGoldens() {
		t.Run(g.name, func(t *testing.T) {
			e, table := g.run()
			g.check(t, e, table)
			if got, summary := scanDigest(e); got != g.digest {
				t.Errorf("digest drifted: got %s want %s\n%s", got, g.digest, summary)
			}
		})
	}
}

func scanGoldens() []scanGolden {
	const sel = 1e-5
	small := workload.DatasetConfig{Rows: 60_000, Columns: 8, BitcaseMin: 12, BitcaseMax: 18, Seed: 1, Synthetic: true}
	// Cohort scenarios need passes that span many steps, or every arrival
	// would see a pass at fraction 0 or 1 and no wrap would re-stream bytes.
	big := workload.DatasetConfig{Rows: 2_000_000, Columns: 4, BitcaseMin: 12, BitcaseMax: 15, Seed: 1, Synthetic: true}
	hot := workload.FixedColumnChoice{Col: 0}
	// A low attach bound sends late arrivals into forming cohorts, so the
	// scenarios merge at launch as well as attach mid-flight.
	cohortConfig := sharedscan.Config{AttachFraction: 0.3}
	return []scanGolden{
		{
			name:   "index",
			digest: "ad4c23ea2f70faab9f239d6b36a4103a",
			run: func() (*core.Engine, *colstore.Table) {
				ds := small
				ds.WithIndex = true
				e, table := goldenEngine(ds, 25e-6)
				e.Placer.PlaceRR(table)
				goldenClients(e, table, workload.ClientsConfig{
					N: 24, Selectivity: sel, UseIndex: true, Parallel: true, Strategy: core.Target, Seed: 3,
				}, 0.06)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				for _, c := range table.ColumnNames() {
					if !exec.IndexEligible(&e.Costs, table, c, sel, true) {
						t.Fatalf("column %s does not plan index-lookup tasks", c)
					}
				}
				mustHaveQueries(t, e)
			},
		},
		{
			name:   "pp-serial",
			digest: "7c11d687a8c4852af2fd2975534f0c16",
			run: func() (*core.Engine, *colstore.Table) {
				e, table := goldenEngine(small, 25e-6)
				table = e.Placer.PlacePP(table, 4)
				goldenClients(e, table, workload.ClientsConfig{
					N: 16, Selectivity: 1e-3, Parallel: false, Strategy: core.OSched, Seed: 5,
				}, 0.06)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				if n := table.NumParts(); n != 4 {
					t.Fatalf("table has %d parts, want 4", n)
				}
				mustHaveQueries(t, e)
			},
		},
		{
			name:   "cohort-replicated",
			digest: "a9516ecc63700d117b481ae721266491",
			run: func() (*core.Engine, *colstore.Table) {
				e, table := goldenEngine(big, 5e-6)
				e.Placer.PlaceRR(table)
				col := table.Parts[0].ColumnByName("COL000")
				for s := 0; s < e.Machine.Sockets; s++ {
					if s != col.IVPSM.MajoritySocket() {
						e.Placer.AddReplica(col, s)
					}
				}
				e.EnableSharedScans(cohortConfig)
				// A plan-driven group lands in one cohort ahead of the clients.
				var batch []*core.Query
				for i := 0; i < 4; i++ {
					batch = append(batch, &core.Query{
						Table: table, Column: "COL000", Selectivity: 1e-4 * float64(i+1),
						Parallel: true, Strategy: core.Bound, HomeSocket: i,
					})
				}
				e.SubmitBatch(batch)
				goldenArrivals(e, table, 11)
				goldenClients(e, table, workload.ClientsConfig{
					N: 8, Selectivity: sel, Parallel: true, Strategy: core.Bound, Chooser: hot, Seed: 7,
				}, 0.01)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				if !table.Parts[0].ColumnByName("COL000").Replicated() {
					t.Fatal("scanned column is not replicated")
				}
				mustShare(t, e)
				if st := e.Shared.Stats(); st.PlanGrouped == 0 {
					t.Fatalf("no plan-driven group formed: %+v", st)
				}
			},
		},
		{
			name:   "cohort-delta",
			digest: "42c28596b8c34c901f0af88dc9cc25a2",
			run: func() (*core.Engine, *colstore.Table) {
				e, table := goldenEngine(big, 5e-6)
				e.Placer.PlaceRR(table)
				col := table.Parts[0].ColumnByName("COL000")
				for i := 0; i < 4000; i++ {
					e.ApplyInsert(col, i%e.Machine.Sockets, int64(i))
				}
				e.EnableSharedScans(cohortConfig)
				goldenArrivals(e, table, 13)
				goldenClients(e, table, workload.ClientsConfig{
					N: 8, Selectivity: sel, Parallel: true, Strategy: core.Target, Chooser: hot, Seed: 9,
				}, 0.01)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				col := table.Parts[0].ColumnByName("COL000")
				rows := 0
				if col.Delta != nil {
					for _, r := range col.Delta.Snapshot().Rows {
						rows += r
					}
				}
				if rows == 0 {
					t.Fatal("scanned column carries no visible delta rows")
				}
				if it := e.ItemTraffic()["COL000"]; it == nil || it.DeltaBytes == 0 {
					t.Fatal("no delta-fragment scan traffic was attributed")
				}
				mustShare(t, e)
			},
		},
		{
			name:   "cohort-lockstep",
			digest: "0f19079669f1bc0b90c1d2fd69691bba",
			run: func() (*core.Engine, *colstore.Table) {
				e, table := goldenEngine(big, 5e-6)
				e.Placer.PlaceRR(table)
				col := table.Parts[0].ColumnByName("COL000")
				for i := 0; i < 4000; i++ {
					e.ApplyInsert(col, i%e.Machine.Sockets, int64(i))
				}
				e.EnableSharedScans(sharedscan.Config{})
				goldenClients(e, table, workload.ClientsConfig{
					N: 8, Selectivity: sel, Parallel: true, Strategy: core.Bound, Chooser: hot, Seed: 15,
				}, 0.005)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				mustHaveQueries(t, e)
				// Lock-step clients resubmit together: the first launches
				// a pass and the rest attach before it streamed a byte, so
				// their wrap pass re-streams only the delta fragments.
				for _, d := range e.Trace.Data().Decisions {
					if d.Kind == "wrap" && strings.Contains(d.Cause, "missed 0% prefix") {
						return
					}
				}
				t.Fatal("no wrap pass with an empty main-store prefix ran")
			},
		},
		{
			name:   "admitted-cohort-writes",
			digest: "e90eea7c838b1e6dff6bb52b450cae01",
			run: func() (*core.Engine, *colstore.Table) {
				e, table := goldenEngine(big, 5e-6)
				e.Placer.PlaceRR(table)
				// A concurrency limit below the client count queues statements
				// at admission, and the 100 us deadlines shed both there and in
				// the cohort join windows.
				e.EnableAdmission(admit.Config{
					MaxConcurrent: 6, OLAPDeadline: 100e-6, InteractiveDeadline: 100e-6,
				})
				e.EnableSharedScans(cohortConfig)
				e.Sim.AddActor(workload.NewWriters(e, table, workload.WritersConfig{
					Rate: 200_000, Chooser: hot, Seed: 17, Tenant: "writers",
				}))
				goldenPipelines(e, table, 4)
				goldenClients(e, table, workload.ClientsConfig{
					N: 16, Selectivity: sel, Parallel: true, Strategy: core.Target, Chooser: hot, Seed: 19,
					Tenant: "scans",
				}, 0.01)
				return e, table
			},
			check: func(t *testing.T, e *core.Engine, table *colstore.Table) {
				mustHaveQueries(t, e)
				if e.Admit.TotalShed == 0 {
					t.Fatal("admission shed no statement")
				}
				if st := e.Shared.Stats(); st.Shed == 0 {
					t.Fatalf("no member was shed from a join window: %+v", st)
				}
				items := map[string]int{}
				for _, s := range e.Trace.Statements() {
					items[s.Item]++
				}
				if items["write"] == 0 || items["pipeline"] == 0 {
					t.Fatalf("write or pipeline statements did not run: %v", items)
				}
			},
		},
	}
}

// goldenPipelines submits n composed scan+aggregate statements through
// SubmitPipeline, one every 2 ms from t=1 ms, over the table's second column.
func goldenPipelines(e *core.Engine, table *colstore.Table, n int) {
	next, i := 1e-3, 0
	e.Sim.AddActor(sim.ActorFunc(func(now sim.Time) {
		for i < n && next <= now {
			scan := &exec.ScanOp{Table: table, Column: "COL001", Selectivity: 1e-3, Parallel: true}
			agg := &exec.AggregateOp{Source: scan, BytesPerRow: 8, CyclesPerRow: 20, Parallel: true}
			e.SubmitPipeline(core.Bound, i%e.Machine.Sockets, nil, scan, agg)
			i++
			next += 2e-3
		}
	}))
}

// goldenEngine builds a traced 4-socket engine and its synthetic table.
// Tracing is passive (TestTraceDisabledBitIdentical), and it lets the digest
// cover the statement spans and the decision log.
func goldenEngine(ds workload.DatasetConfig, step float64) (*core.Engine, *colstore.Table) {
	e := core.NewWithStep(FourSocket.Build(), 1, step)
	e.EnableTracing(trace.Config{})
	return e, workload.Generate(ds)
}

// goldenClients runs closed-loop clients on the engine for d virtual seconds.
func goldenClients(e *core.Engine, table *colstore.Table, cfg workload.ClientsConfig, d float64) {
	c := workload.NewClients(e, table, cfg)
	c.Start()
	e.Sim.Run(d)
}

// goldenArrivals adds an open-loop arrival stream on COL000: exponential
// gaps and mixed selectivities, so statements reach running passes at every
// fraction (the lock-step closed-loop clients only ever attach at zero).
func goldenArrivals(e *core.Engine, table *colstore.Table, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sels := []float64{1e-5, 1e-3, 0.05}
	next, i := 0.0, 0
	e.Sim.AddActor(sim.ActorFunc(func(now sim.Time) {
		for next <= now {
			e.Submit(&core.Query{
				Table: table, Column: "COL000", Selectivity: sels[i%len(sels)],
				Parallel: true, Strategy: core.Target, HomeSocket: i % e.Machine.Sockets,
			})
			i++
			next += rng.ExpFloat64() * 20e-6
		}
	}))
}

func mustHaveQueries(t *testing.T, e *core.Engine) {
	t.Helper()
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no statements completed")
	}
}

// mustShare asserts the cohort scenario exercised merging, mid-flight
// attaches, and wrap passes, at least one of which re-streamed a non-empty
// prefix.
func mustShare(t *testing.T, e *core.Engine) {
	t.Helper()
	mustHaveQueries(t, e)
	st := e.Shared.Stats()
	if st.Merged == 0 || st.Attached == 0 || st.Wraps == 0 {
		t.Fatalf("cohort paths did not all run: %+v", st)
	}
	for _, d := range e.Trace.Data().Decisions {
		if d.Kind == "wrap" && !strings.Contains(d.Cause, "missed 0% prefix") {
			return
		}
	}
	t.Fatal("every wrap pass re-streamed an empty prefix")
}

// scanDigest hashes the engine's fingerprint plus the layer bookkeeping
// and trace it leaves out, and returns the digest with a readable summary
// for failure messages.
func scanDigest(e *core.Engine) (string, string) {
	var b strings.Builder
	b.WriteString(e.Fingerprint())
	var stats sharedscan.Stats
	if e.Shared != nil {
		stats = e.Shared.Stats()
	}
	fmt.Fprintf(&b, "stats %+v\n", stats)
	data := e.Trace.Data()
	for _, s := range data.Statements {
		fmt.Fprintf(&b, "stmt %+v\n", *s)
	}
	for _, d := range data.Decisions {
		fmt.Fprintf(&b, "decision %+v\n", d)
	}
	sum := sha256.Sum256([]byte(b.String()))
	summary := fmt.Sprintf("queries %d, tasks %d, MC bytes %v, latency %+v, stats %+v, %d spans, %d decisions",
		e.Counters.QueriesDone, e.Counters.TasksExecuted, e.Counters.TotalMCBytes(),
		e.Counters.Latencies(), stats, len(data.Statements), len(data.Decisions))
	return hex.EncodeToString(sum[:16]), summary
}
