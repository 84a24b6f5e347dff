package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numacs/internal/core"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 99.99},
		{10_000, 99.9},
		{9_999, 99},
		{1_000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
}

func TestStepQuantileInterpolatesWithinStep(t *testing.T) {
	const step = 20e-6
	steps := func(ks ...int) []float64 {
		var out []float64
		for _, k := range ks {
			out = append(out, float64(k)*step)
		}
		return out
	}
	near := func(got, want float64) bool { return got > want-1e-12 && got < want+1e-12 }
	// Ten samples that all completed in step 9: true latencies spread over
	// (8, 9] steps, so the median is 8.5 steps.
	if got := stepQuantile(steps(9, 9, 9, 9, 9, 9, 9, 9, 9, 9), step, 0.5); !near(got, 8.5*step) {
		t.Errorf("median of one full step = %g steps, want 8.5", got/step)
	}
	// Half in step 8, half in step 9: the median sits on the boundary.
	if got := stepQuantile(steps(8, 8, 8, 8, 8, 9, 9, 9, 9, 9), step, 0.5); !near(got, 8*step) {
		t.Errorf("median across a boundary = %g steps, want 8", got/step)
	}
	// Moving one sample across the boundary moves the median by a fraction
	// of a step, not a whole step: rank 5 of 10 is the first of the six
	// step-9 samples.
	if got := stepQuantile(steps(8, 8, 8, 8, 9, 9, 9, 9, 9, 9), step, 0.5); !near(got, (8+1.0/6)*step) {
		t.Errorf("median after one sample moved = %g steps, want 8+1/6", got/step)
	}
	// Latencies carry float error from differencing step-multiple clocks.
	noisy := []float64{9*step - 1e-15, 9 * step, 9*step + 1e-15}
	if got := stepQuantile(noisy, step, 0.5); !near(got, 8.5*step) {
		t.Errorf("median of float-noisy step-9 samples = %g steps, want 8.5", got/step)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "sim.step", start: 0, end: 100, parent: -1, stmt: -1},
		{name: "a.tick", start: 10, end: 40, parent: 0, stmt: -1},
		{name: "core.submit", start: 30, end: 60, parent: 0, stmt: 1},  // overlaps a.tick
		{name: "core.submit", start: 90, end: 120, parent: 0, stmt: 2}, // runs past its parent
		{name: "core.submit", start: 35, end: 45, parent: 2, stmt: 3},  // nested call
	}
	self := selfTimes(spans)
	// The step's children cover [10,60] and [90,100]: 60 of its 100.
	if got := self["sim.step"].self; got != 40 {
		t.Errorf("step self = %d, want 40", got)
	}
	if got := self["a.tick"].self; got != 30 {
		t.Errorf("tick self = %d, want 30", got)
	}
	// Calls: 30-10 for the parent of the nested call, 30, and 10.
	if got, n := self["core.submit"].self, self["core.submit"].spans; got != 60 || n != 3 {
		t.Errorf("submit self = %d over %d spans, want 60 over 3", got, n)
	}
}

func TestRecorderAccountsForWholeStep(t *testing.T) {
	rec := newRecorder()
	if sp := rec.beginCall("core.submit", 0); sp != -1 {
		t.Fatalf("call outside a step recorded as span %d", sp)
	}
	rec.beginStep()
	inTick := rec.beginCall("core.submit", 1) // a shed callback inside an actor tick
	rec.endCall(inTick)
	rec.tickDone("admit.tick")
	outer := rec.beginCall("core.submit", 2) // a completion callback after the ticks
	nested := rec.beginCall("core.submit", 3)
	rec.endCall(nested)
	rec.endCall(outer)
	rec.endStep()

	sp := rec.spans
	if sp[inTick].parent != 2 || sp[2].name != "admit.tick" {
		t.Errorf("call inside the tick has parent %d, want the tick span 2", sp[inTick].parent)
	}
	if sp[outer].parent != 0 || sp[nested].parent != outer {
		t.Errorf("parents: outer %d (want 0), nested %d (want %d)", sp[outer].parent, sp[nested].parent, outer)
	}
	total := int64(0)
	for _, lt := range selfTimes(sp) {
		total += int64(lt.self)
	}
	if step := sp[0].end - sp[0].start; total != step {
		t.Errorf("self times sum to %d, want the step's %d", total, step)
	}
}

// shortSpec shrinks a workload's window so a test run takes well under a
// second while still completing enough statements for the p99 check.
func shortSpec(t *testing.T, name string, measure float64) workloadSpec {
	t.Helper()
	spec, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	spec.warmup, spec.measure, spec.traced = spec.warmup/4, measure, measure
	return spec
}

func TestConservationCatchesLostStatement(t *testing.T) {
	for _, name := range []string{"scan-uniform", "mixed-rw"} {
		spec := shortSpec(t, name, 0.01)
		r := newRig(spec, 1, nil)
		r.drv.start()
		r.e.Sim.Run(spec.warmup)
		if errs := r.checks(spec.measure); len(errs) > 1 || (len(errs) == 1 && !strings.Contains(errs[0].Error(), "p99")) {
			t.Fatalf("%s: healthy run fails conservation: %v", name, errs)
		}
		// Plant a lost statement: the driver counts it as issued, but its
		// completion never reaches the driver.
		r.drv.issued++
		tenant := ""
		if r.admit != nil {
			tenant = scanTenant
		}
		r.e.Submit(&core.Query{
			Table: r.tables[0], Column: r.tables[0].ColumnNames()[0], Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound, Tenant: tenant,
		})
		r.e.Sim.Run(spec.warmup + spec.measure)
		var ledgerErr, loopErr bool
		for _, err := range r.checks(spec.measure) {
			ledgerErr = ledgerErr || strings.Contains(err.Error(), "statements: submitted")
			loopErr = loopErr || strings.Contains(err.Error(), "closed loop")
		}
		if !ledgerErr || !loopErr {
			t.Errorf("%s: lost statement not caught (ledger %v, closed loop %v)", name, ledgerErr, loopErr)
		}
	}
}

func TestTracedRunReproducesUntracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, c := range []struct {
		name    string
		measure float64
	}{{"scan-uniform", 0.005}, {"agg-q1-16s", 0.05}, {"mixed-rw", 0.03}} {
		spec := shortSpec(t, c.name, c.measure)
		plain := runRep(spec, 3, nil)
		traced := runRep(spec, 3, newRecorder())
		for _, r := range []*repResult{plain, traced} {
			for _, err := range r.errs {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %.12s != untraced %.12s", c.name, traced.digest, plain.digest)
		}
		o := &outcome{spec: spec, reps: []*repResult{plain}, setups: []float64{plain.setup.Seconds()}, traced: traced}
		layers := o.perLayerValues()
		if f := layers["bench.unattributed_frac"]; f < 0 || f > 0.05 {
			t.Errorf("%s: layers leave %.3g of the traced wall time unattributed", c.name, f)
		}
		if out := o.result(true); !out.Correct || len(out.Metrics) != len(perLayer) {
			t.Errorf("%s: per-layer result correct=%v with %d metrics", c.name, out.Correct, len(out.Metrics))
		}
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json, which the benchmark
// contract is checked against, in step with what the command prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestWriteChromeIsTraceEventJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	spans := []span{
		{name: "sim.step", start: 0, end: 5000, parent: -1, stmt: -1},
		{name: "core.submit", start: 1000, end: 2000, parent: 0, stmt: 7},
	}
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("not a JSON array of events: %v", err)
	}
	if len(events) != 2 || events[1].Ph != "X" || events[1].Ts != 1 || events[1].Dur != 1 || events[1].Args["stmt"] != 7.0 {
		t.Errorf("events = %+v", events)
	}
}
