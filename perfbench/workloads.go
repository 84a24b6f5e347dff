package main

import (
	"math/rand"

	"numacs/internal/adaptive"
	"numacs/internal/admit"
	"numacs/internal/agg"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// workloadSpec is one named benchmark workload: how to build it from a seed,
// its simulator step, and how much virtual time to warm up and then measure.
// The traced run measures only the first traced seconds of the window, which
// bounds the flight recorder's memory on the statement-heavy workload.
type workloadSpec struct {
	name                          string
	step, warmup, measure, traced float64 // virtual seconds
	build                         func(r *rig, seed int64)
}

// The three workloads, each with closed-loop statement clients on the
// single-goroutine simulator. Why each was chosen is recorded in
// BENCHMARK.json; which layers it exercises or bypasses, in DESIGN.md.
var workloads = []workloadSpec{
	{name: "scan-uniform", step: core.DefaultStep, warmup: 0.02, measure: 0.25, traced: 0.05, build: buildScanUniform},
	{name: "agg-q1-16s", step: 50e-6, warmup: 0.05, measure: 0.15, traced: 0.15, build: buildAggQ1},
	{name: "mixed-rw", step: core.DefaultStep, warmup: 0.05, measure: 0.5, traced: 0.5, build: buildMixedRW},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Tenants of the mixed-rw admission controller.
const (
	scanTenant   = "scans"
	writerTenant = "writers"
)

// replayCap bounds how many of the traced window's statement shapes the
// planner replay probe keeps.
const replayCap = 20_000

// rig is one built workload instance: the engine, the driver, and the
// optional layers the benchmark reads counters from (nil when a workload
// does not enable them).
type rig struct {
	spec workloadSpec
	e    *core.Engine
	rec  *recorder // nil in untraced runs
	drv  *driver
	c0   layerCounts // at the start of the measure window

	tables  []*colstore.Table
	shared  *sharedscan.Registry
	admit   *admit.Controller
	placer  *adaptive.Placer
	writers *workload.Writers
	tracer  *trace.Tracer

	// shapes are the traced window's planned statements, for the replay probe.
	shapes []plan.Statement
}

// newRig builds a workload. A traced rig gets the flight recorder and a probe
// actor after every actor registration.
func newRig(spec workloadSpec, seed int64, rec *recorder) *rig {
	r := &rig{spec: spec, rec: rec}
	spec.build(r, seed)
	return r
}

// engine creates the rig's engine; the scheduler is its first actor.
func (r *rig) engine(m *topology.Machine, seed int64) *core.Engine {
	r.e = core.NewWithStep(m, seed, r.spec.step)
	if r.rec != nil {
		r.tracer = r.e.EnableTracing(trace.Config{})
	}
	r.probe("sched.tick")
	return r.e
}

// probe registers a probe actor that closes the tick span of the actor
// registered just before it.
func (r *rig) probe(name string) {
	if r.rec == nil {
		return
	}
	rec := r.rec
	r.e.Sim.AddActor(sim.ActorFunc(func(float64) { rec.tickDone(name) }))
}

// addActor registers a workload-owned actor and its probe.
func (r *rig) addActor(a sim.Actor, name string) {
	r.e.Sim.AddActor(a)
	r.probe(name)
}

// runTo advances the simulation to the virtual deadline; a traced rig wraps
// every step in a span.
func (r *rig) runTo(until float64) {
	if r.rec == nil {
		r.e.Sim.Run(until)
		return
	}
	for r.e.Sim.Now() < until {
		r.rec.beginStep()
		r.e.Sim.Step()
		r.rec.endStep()
	}
}

// scanDriver drives closed-loop single-column range scans through
// core.Engine.Submit, so every statement is planned, optimized and lowered.
func (r *rig) scanDriver(t *colstore.Table, clients int, chooser workload.Chooser, tenant string, seed int64) {
	d := newDriver(r.e, r.rec, clients, "core.submit")
	rng := rand.New(rand.NewSource(seed + 7))
	columns := t.ColumnNames()
	sockets := r.e.Machine.Sockets
	const selectivity = 1e-5
	d.submit = func(client int, onDone func(float64), onShed func()) {
		col := columns[chooser.Pick(rng, len(columns))]
		if r.rec != nil && d.inWindow && len(r.shapes) < replayCap {
			r.shapes = append(r.shapes, plan.Statement{Table: t, Column: col, Selectivity: selectivity, Parallel: true})
		}
		r.e.Submit(&core.Query{
			Table: t, Column: col, Selectivity: selectivity, Parallel: true,
			Strategy: core.Bound, HomeSocket: client % sockets, Tenant: tenant,
			OnDone: onDone, OnShed: onShed,
		})
	}
	r.drv = d
}

// buildScanUniform is the paper's Fig. 8 Bound/RR cell: many tiny scans, so
// per-statement host work (Submit, planning, operator Open, PSM lookups,
// task dispatch) dominates. No control-plane layer is enabled.
func buildScanUniform(r *rig, seed int64) {
	e := r.engine(topology.FourSocketIvyBridge(), seed)
	t := workload.Generate(workload.DatasetConfig{
		Rows: 100_000, Columns: 64, BitcaseMin: 12, BitcaseMax: 21, Seed: seed, Synthetic: true,
	})
	e.Placer.PlaceRR(t)
	r.tables = []*colstore.Table{t}
	r.scanDriver(t, 256, workload.UniformChoice{}, "", seed)
}

// buildAggQ1 is the Fig. 19 TPC-H-Q1-style cell on 16 sockets: long,
// CPU-heavy scan+aggregate pipelines submitted through SubmitPipeline, as
// agg.Clients does, so the planner and Submit are bypassed.
func buildAggQ1(r *rig, seed int64) {
	e := r.engine(topology.SixteenSocketIvyBridge(), seed)
	t := e.Placer.PlacePP(agg.Q1Table(agg.Q1Config{Rows: 200_000, Seed: seed}), 16)
	r.tables = []*colstore.Table{t}
	d := newDriver(e, r.rec, 256, "core.submit_pipeline")
	sockets := e.Machine.Sockets
	d.submit = func(client int, onDone func(float64), _ func()) {
		scan := &exec.ScanOp{Table: t, Column: "L_SHIPDATE", Selectivity: agg.Q1Selectivity, Parallel: true}
		aggOp := &exec.AggregateOp{
			Source: scan, BytesPerRow: agg.Q1BytesPerRow, CyclesPerRow: agg.Q1CyclesPerRow, Parallel: true,
		}
		e.SubmitPipeline(core.Bound, client%sockets, onDone, scan, aggOp)
	}
	r.drv = d
}

// Mixed-rw knobs.
const (
	mixedHotColumn = 2
	mixedWriteRate = 400_000 // rows per virtual second
)

// buildMixedRW runs writes beside reads with every control-plane layer on:
// shared scans, admission, the adaptive placer, and an open-loop writer
// actor whose batches are admitted as an Interactive tenant.
func buildMixedRW(r *rig, seed int64) {
	e := r.engine(topology.FourSocketIvyBridge(), seed)
	t := workload.Generate(workload.DatasetConfig{
		Rows: 800_000, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: seed, Synthetic: true,
	})
	e.Placer.PlaceRRBlocks(t)
	r.tables = []*colstore.Table{t}

	r.shared = e.EnableSharedScans(sharedscan.Config{})
	r.probe("sharedscan.tick")
	r.admit = e.EnableAdmission(admit.Config{
		Tenants:             []admit.TenantSpec{{Name: scanTenant, Weight: 1}, {Name: writerTenant, Weight: 1}},
		OLAPDeadline:        0.05,
		InteractiveDeadline: 0.02,
	})
	r.probe("admit.tick")

	cfg := adaptive.DefaultConfig()
	cfg.Period = r.spec.measure / 12
	r.placer = adaptive.New(e, &adaptive.Catalog{Tables: r.tables}, cfg)
	r.addActor(r.placer, "adaptive.tick")

	hot := workload.HotColumnChoice{Hot: mixedHotColumn, P: 0.8}
	r.writers = workload.NewWriters(e, t, workload.WritersConfig{
		Rate: mixedWriteRate, UpdateFraction: 0.7, Chooser: hot, Seed: seed, Tenant: writerTenant,
	})
	r.addActor(r.writers, "workload.writers_tick")

	r.scanDriver(t, 64, hot, scanTenant, seed)
}
