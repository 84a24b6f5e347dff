// Command perfbench is the repository benchmark. It runs one named workload
// through the engine's public entry points and reports two kinds of
// performance: the host cost of simulating (wall time, allocations, heap)
// and the simulated machine's results (throughput, latency percentiles,
// memory-controller bandwidth).
//
//	perfbench -workload scan-uniform -seed 1 -seconds 30 -trace 0
//
// run.sh builds and runs it from the repository root; DESIGN.md records the
// workloads, the metrics and what each layer metric should move.
//
// It repeats untraced runs of the workload for -seconds and reports host
// costs over all of them, then makes one traced run. The traced run times every layer from outside:
// a probe actor after each sim actor registration times the actor ticks, the
// benchmark's own client driver times every Submit/SubmitPipeline call, and
// the rest of each engine step is the simulator's own time. After the
// traced window, replay probes time the planner and PSM lookups in
// isolation. Every run's simulated results are fingerprinted; the traced
// run must match the untraced ones bit for bit.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. A human-readable report
// goes to standard error. The exit status is 1 when a correctness check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Each run repeats the untraced measurement at least minReps times and
// times at least minSetups set-ups, whatever -seconds allows.
const (
	minReps   = 3
	maxReps   = 200
	minSetups = 9
)

const (
	mib = 1 << 20
	gib = 1 << 30
)

// metric is one named, unit-carrying value of the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: scan-uniform, agg-q1-16s or mixed-rw")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds of untraced measurement")
	traced := flag.Int("trace", 0, "0: print end-to-end metrics; 1: print per-layer metrics")
	spansDir := flag.String("spans-dir", "", "with -trace 1, write the traced run's spans here as Chrome trace-event JSON")
	flag.Parse()
	// The simulator runs on one goroutine. With one P the garbage collector
	// works on the same core, so wall_s counts its work too and does not
	// depend on how busy the machine's other cores are.
	runtime.GOMAXPROCS(1)
	spec, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload scan-uniform|agg-q1-16s|mixed-rw, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}

	o := measure(spec, *seed, time.Duration(*seconds*float64(time.Second)))
	o.report(os.Stderr)
	if *traced == 1 && *spansDir != "" {
		path := filepath.Join(*spansDir, "spans-"+spec.name+".json")
		if err := writeChrome(path, o.traced.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	out := o.result(*traced == 1)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// outcome is everything one invocation measured.
type outcome struct {
	spec   workloadSpec
	reps   []*repResult // untraced
	setups []float64    // seconds
	traced *repResult
	errs   []error
}

// measure runs the untraced repetitions for the time budget, tops up the
// set-up samples, and makes the traced run.
func measure(spec workloadSpec, seed int64, budget time.Duration) *outcome {
	o := &outcome{spec: spec}
	start := time.Now()
	for len(o.reps) < minReps || (time.Since(start) < budget && len(o.reps) < maxReps) {
		rep := runRep(spec, seed, nil)
		o.reps = append(o.reps, rep)
		o.setups = append(o.setups, rep.setup.Seconds())
	}
	for len(o.setups) < minSetups {
		_, d := setUp(spec, seed, nil)
		o.setups = append(o.setups, d.Seconds())
	}
	o.traced = runRep(spec, seed, newRecorder())

	for i, rep := range o.reps {
		for _, err := range rep.errs {
			o.errs = append(o.errs, fmt.Errorf("run %d: %w", i, err))
		}
		if rep.digest != o.reps[0].digest {
			o.errs = append(o.errs, fmt.Errorf("run %d: simulated results differ from run 0 (digest %.12s vs %.12s)",
				i, rep.digest, o.reps[0].digest))
		}
	}
	for _, err := range o.traced.errs {
		o.errs = append(o.errs, fmt.Errorf("traced run: %w", err))
	}
	if o.traced.digest != o.reps[0].checkDigest {
		o.errs = append(o.errs, fmt.Errorf("traced run: simulated results differ from the untraced runs (digest %.12s vs %.12s)",
			o.traced.digest, o.reps[0].checkDigest))
	}
	return o
}

// endToEnd lists the end-to-end metrics in report order, with units. Host
// metrics come from the untraced runs; sim_* metrics are in virtual
// (simulated) time and identical in every run of one seed.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"host_us_per_stmt", "us"},
	{"allocs_per_stmt", "count"},
	{"heap_retained_mib", "MiB"},
	{"sim_qpm", "stmts/sim-min"},
	{"sim_p50_ms", "sim-ms"},
	{"sim_p99_ms", "sim-ms"},
	{"sim_mc_gibs", "GiB/sim-s"},
	{"ok_frac", "ratio"},
}

// perLayer lists the traced run's per-layer metrics in report order.
var perLayer = []struct{ name, unit string }{
	{"sim.steps", "count"},
	{"sim.flows_completed", "count"},
	{"sim.step_self_s", "s"},
	{"sched.tick_s", "s"},
	{"sched.tasks_per_stmt", "count"},
	{"sched.stolen_frac", "ratio"},
	{"sched.cpu_load", "ratio"},
	{"core.submit_calls", "count"},
	{"core.submit_ns_per_call", "ns"},
	{"core.submit_pipeline_calls", "count"},
	{"core.submit_pipeline_ns_per_call", "ns"},
	{"core.merges_completed", "count"},
	{"core.merge_pages_copied", "count"},
	{"plan.ns_per_stmt", "ns"},
	{"plan.allocs_per_stmt", "count"},
	{"psm.socketbytes_ns_per_call", "ns"},
	{"hw.mc_bytes_per_stmt", "bytes"},
	{"hw.qpi_data_gib", "GiB"},
	{"hw.llc_remote_frac", "ratio"},
	{"sharedscan.tick_s", "s"},
	{"sharedscan.passes", "count"},
	{"sharedscan.mean_cohort", "stmts/pass"},
	{"sharedscan.attaches", "count"},
	{"sharedscan.wraps", "count"},
	{"admit.tick_s", "s"},
	{"admit.admitted", "count"},
	{"admit.shed", "count"},
	{"adaptive.tick_s", "s"},
	{"adaptive.actions.move", "count"},
	{"adaptive.actions.partition-ivp", "count"},
	{"adaptive.actions.replicate", "count"},
	{"adaptive.actions.drop-replica", "count"},
	{"adaptive.actions.merge", "count"},
	{"workload.writers_tick_s", "s"},
	{"workload.rows_written", "count"},
	{"insight.blame_queue_ms", "sim-ms"},
	{"insight.blame_join_ms", "sim-ms"},
	{"insight.blame_sched_ms", "sim-ms"},
	{"insight.blame_exec_ms", "sim-ms"},
	{"insight.blame_other_ms", "sim-ms"},
	{"bench.traced_wall_s", "s"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// endToEndValues computes the end-to-end metrics. The host costs are totals
// over the untraced runs divided by the runs (wall_s) or by the statements
// they completed: this box's speed drifts in phases of seconds, and a total
// over many runs averages the phases where a median would pick one.
func (o *outcome) endToEndValues() map[string]float64 {
	var wall, stmts, mallocs float64
	var heap []float64
	for _, r := range o.reps {
		wall += r.wall.Seconds()
		stmts += float64(r.stmts)
		mallocs += float64(r.mallocs)
		heap = append(heap, float64(r.heapRetained)/mib)
	}
	sim := o.reps[0]
	attempted, failed := o.tally()
	return map[string]float64{
		"wall_s":            wall / float64(len(o.reps)),
		"setup_s":           median(o.setups),
		"host_us_per_stmt":  wall / stmts * 1e6,
		"allocs_per_stmt":   mallocs / stmts,
		"heap_retained_mib": median(heap),
		"sim_qpm":           float64(sim.stmts) / sim.window * 60,
		"sim_p50_ms":        sim.p50 * 1e3,
		"sim_p99_ms":        sim.p99 * 1e3,
		"sim_mc_gibs":       sim.mcBytes / sim.window / gib,
		"ok_frac":           1 - float64(failed)/float64(attempted),
	}
}

// perLayerValues computes the traced run's per-layer metrics.
func (o *outcome) perLayerValues() map[string]float64 {
	t := o.traced
	self := selfTimes(t.spans)
	total := time.Duration(0)
	for _, lt := range self {
		total += lt.self
	}
	stmts := float64(t.stmts)
	perCall := func(name string) float64 {
		if lt := self[name]; lt.spans > 0 {
			return float64(lt.self.Nanoseconds()) / float64(lt.spans)
		}
		return 0
	}
	w := t.win
	mean := 0.0
	if w.shared.Passes > 0 {
		mean = float64(w.shared.Statements-w.shared.Shed) / float64(w.shared.Passes)
	}
	untraced := 0.0 // mean untraced wall time over the traced window
	for _, r := range o.reps {
		untraced += r.checkWall.Seconds() / float64(len(o.reps))
	}
	return map[string]float64{
		"sim.steps":                        float64(w.steps),
		"sim.flows_completed":              float64(w.flows),
		"sim.step_self_s":                  self["sim.step"].self.Seconds(),
		"sched.tick_s":                     self["sched.tick"].self.Seconds(),
		"sched.tasks_per_stmt":             float64(t.tasks) / stmts,
		"sched.stolen_frac":                ratio(float64(t.stolen), float64(t.tasks)),
		"sched.cpu_load":                   t.cpuLoad,
		"core.submit_calls":                float64(self["core.submit"].spans),
		"core.submit_ns_per_call":          perCall("core.submit"),
		"core.submit_pipeline_calls":       float64(self["core.submit_pipeline"].spans),
		"core.submit_pipeline_ns_per_call": perCall("core.submit_pipeline"),
		"core.merges_completed":            float64(w.merges),
		"core.merge_pages_copied":          float64(w.mergePages),
		"plan.ns_per_stmt":                 t.planNS,
		"plan.allocs_per_stmt":             t.planAlc,
		"psm.socketbytes_ns_per_call":      t.psmNS,
		"hw.mc_bytes_per_stmt":             t.mcBytes / stmts,
		"hw.qpi_data_gib":                  t.qpi / gib,
		"hw.llc_remote_frac":               ratio(t.llcRemote, t.llcLocal+t.llcRemote),
		"sharedscan.tick_s":                self["sharedscan.tick"].self.Seconds(),
		"sharedscan.passes":                float64(w.shared.Passes),
		"sharedscan.mean_cohort":           mean,
		"sharedscan.attaches":              float64(w.shared.Attached),
		"sharedscan.wraps":                 float64(w.shared.Wraps),
		"admit.tick_s":                     self["admit.tick"].self.Seconds(),
		"admit.admitted":                   float64(w.admitted),
		"admit.shed":                       float64(w.shed),
		"adaptive.tick_s":                  self["adaptive.tick"].self.Seconds(),
		"adaptive.actions.move":            float64(t.actionKinds["move"]),
		"adaptive.actions.partition-ivp":   float64(t.actionKinds["partition-ivp"]),
		"adaptive.actions.replicate":       float64(t.actionKinds["replicate"]),
		"adaptive.actions.drop-replica":    float64(t.actionKinds["drop-replica"]),
		"adaptive.actions.merge":           float64(t.actionKinds["merge"]),
		"workload.writers_tick_s":          self["workload.writers_tick"].self.Seconds(),
		"workload.rows_written":            float64(w.rows),
		"insight.blame_queue_ms":           t.blame.Queue * 1e3,
		"insight.blame_join_ms":            t.blame.Join * 1e3,
		"insight.blame_sched_ms":           t.blame.Sched * 1e3,
		"insight.blame_exec_ms":            t.blame.Exec * 1e3,
		"insight.blame_other_ms":           t.blame.Other * 1e3,
		"bench.traced_wall_s":              t.wall.Seconds(),
		"bench.unattributed_frac":          1 - total.Seconds()/t.wall.Seconds(),
		"bench.trace_overhead_frac":        t.wall.Seconds()/untraced - 1,
	}
}

// tally counts attempted work and failures over every run: shed statements
// and write batches, plus one per failed correctness check.
func (o *outcome) tally() (attempted, failed uint64) {
	for _, r := range o.reps {
		attempted += r.attempted
		failed += r.shedStmts
	}
	attempted += o.traced.attempted
	failed += o.traced.shedStmts
	return attempted, failed + uint64(len(o.errs))
}

// result assembles the output line; a non-finite metric is a failed check.
func (o *outcome) result(layers bool) output {
	defs, values := endToEnd, o.endToEndValues()
	if layers {
		defs, values = perLayer, o.perLayerValues()
	}
	attempted, failed := o.tally()
	out := output{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if !finite(v) {
			out.Failed++
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = out.Failed == 0
	return out
}

// report prints the human-readable summary.
func (o *outcome) report(w *os.File) {
	fmt.Fprintf(w, "workload %s: %d untraced runs + 1 traced, %d set-ups; window %.3g virtual s (traced %.3g s) after %.3g s warm-up\n",
		o.spec.name, len(o.reps), len(o.setups), o.spec.measure, o.spec.traced, o.spec.warmup)
	walls := make([]float64, len(o.reps))
	for i, r := range o.reps {
		walls[i] = r.wall.Seconds()
	}
	sort.Float64s(walls)
	fmt.Fprintf(w, "untraced wall time per run: min %.4g s, median %.4g s, max %.4g s\n", walls[0], median(walls), walls[len(walls)-1])
	n := o.reps[0].nLat
	fmt.Fprintf(w, "latency samples %d (highest percentile with >= %d beyond: p%g); digest %.16s\n",
		n, minBeyond, tailPercentile(n), o.reps[0].digest)
	print := func(title string, defs []struct{ name, unit string }, values map[string]float64) {
		fmt.Fprintln(w, title)
		for _, d := range defs {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
	print("end to end:", endToEnd, o.endToEndValues())
	print("per layer (traced run):", perLayer, o.perLayerValues())
	for _, err := range o.errs {
		fmt.Fprintln(w, "CHECK FAILED:", err)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
