package harness

import (
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
)

// runStarJoin exercises the composed scan -> join -> aggregate statement the
// operator-pipeline layer enables (Section 8 direction): a closed-loop
// population of star-join statements — dimension predicate scan, hash-table
// build from the qualifying keys, fact foreign-key probe, measure
// aggregation — on the 4-socket machine, across the three scheduling
// strategies and the two hash-table placements. None of the pre-pipeline
// execution paths (scan state machine, private join fan-out, aggregation
// clients) could express this statement.
func runStarJoin(s Scale) *Report {
	rep := &Report{ID: "starjoin", Title: "Composed star-join statements (scan -> join -> aggregate)",
		Description: "Closed-loop star-join statements on the 4-socket machine: the dimension predicate scan feeds the hash-table build, the fact FK probes it, and matching measures are aggregated — one scheduled statement per client."}

	tb := rep.AddTable("", []string{"hash table", "strategy", "TP(stmt/min)", "per-socket memTP (GiB/s)"})
	for _, ht := range []struct {
		name    string
		sockets []int
	}{
		{"centralized (one socket)", []int{0}},
		{"partitioned (all sockets)", []int{0, 1, 2, 3}},
	} {
		for _, st := range []core.Strategy{core.OSched, core.Target, core.Bound} {
			e := runStarJoinCell(s, ht.sockets, st, join.ExecuteStar)
			tb.AddRow(ht.name, st.String(), f0(e.Counters.ThroughputQPM(s.Measure)),
				fmtSockets(e.Counters.MemoryThroughputGiBs(s.Measure)))
			rep.Fingerprints = append(rep.Fingerprints, fingerprintLine(ht.name+" "+st.String(), e))
		}
	}
	return rep
}

// runStarJoinCell runs 32 closed-loop star-join clients on the 4-socket
// machine, each statement issued through execute with the hash table on the
// given sockets, and returns the engine after the measure window.
func runStarJoinCell(s Scale, htSockets []int, st core.Strategy, execute func(*core.Engine, join.StarSpec)) *core.Engine {
	const clients = 32
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	sockets := []int{0, 1, 2, 3}
	dim := colstore.NewTable("DIM", []*colstore.Column{
		colstore.NewSynthetic("D_DATE", s.Rows/4, 1<<12, false),
		colstore.NewSynthetic("D_ID", s.Rows/4, 1<<14, false),
	})
	fact := colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK", s.Rows, 1<<14, false),
	})
	for _, c := range dim.Parts[0].Columns {
		e.Placer.PlaceIVP(c, sockets)
	}
	e.Placer.PlaceIVP(fact.Parts[0].Columns[0], sockets)

	inflight := 0
	var issue func(client int)
	issue = func(client int) {
		if inflight >= clients {
			return
		}
		inflight++
		execute(e, join.StarSpec{
			Dim: dim, DimPredicate: "D_DATE", DimKey: "D_ID",
			Fact: fact, FactFK: "F_FK",
			Selectivity:     0.05,
			HitsPerProbeRow: 1,
			AggBytesPerRow:  12, AggCyclesPerRow: 24,
			HTSockets:  htSockets,
			Strategy:   st,
			HomeSocket: client % e.Machine.Sockets,
			OnDone:     func(float64) { inflight--; issue(client) },
		})
	}
	for i := 0; i < clients; i++ {
		issue(i)
	}
	e.Sim.Run(s.Warmup)
	e.Counters.Reset()
	e.Sim.Run(s.Warmup + s.Measure)
	return e
}
