package exec

import (
	"math/rand"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/placement"
	"numacs/internal/topology"
)

var sinkTasks []Task

// BenchmarkScanOpen measures planning one parallel find phase — the
// per-statement host cost of ScanOp.Open: index eligibility, partition
// fan-out with its PSM lookups, task splitting and match counting. It
// reports ns/row where a "row" is one Open, putting the Open path on the
// benchdiff regression gate. rr is a single-part column placed wholly on one
// socket of a 4-socket machine (the Figure 8 RR cell); pp16 is a column
// physically partitioned into 16 parts across a 16-socket machine (the
// Figure 19 placement).
func BenchmarkScanOpen(b *testing.B) {
	cases := []struct {
		name    string
		machine *topology.Machine
		place   func(p *placement.Placer, t *colstore.Table) *colstore.Table
	}{
		{"rr", topology.FourSocketIvyBridge(), func(p *placement.Placer, t *colstore.Table) *colstore.Table {
			p.PlaceRR(t)
			return t
		}},
		{"pp16", topology.SixteenSocketIvyBridge(), func(p *placement.Placer, t *colstore.Table) *colstore.Table {
			return p.PlacePP(t, 16)
		}},
	}
	for _, c := range cases {
		env := testEnvOn(c.machine)
		env.Rand = rand.New(rand.NewSource(1))
		// A loaded machine's concurrency hint: a few tasks per statement,
		// so the per-partition planning dominates rather than task
		// closures.
		env.ConcurrencyHint = func() int { return 4 }
		tbl := c.place(placement.New(env.Machine), colstore.NewTable("TBL", []*colstore.Column{
			colstore.NewSynthetic("COL000", 200_000, 1<<17, false),
		}))
		scan := &ScanOp{Table: tbl, Column: "COL000", Selectivity: 1e-5, Parallel: true}
		p := &Pipeline{Env: env, Strategy: Bound, Ops: []Operator{scan}}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTasks = scan.Open(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}
