// Package harness defines one reproducible experiment per table and figure
// of the paper's evaluation (Section 6) and renders the same rows/series the
// paper reports. The benchmark harness at the repository root and
// cmd/scanbench both drive this package.
package harness

import (
	"fmt"

	"numacs/internal/core"
	"numacs/internal/metrics"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// MachineKind selects one of the paper's three servers.
type MachineKind int

const (
	// FourSocket is the paper's main 4-socket IvyBridge-EX machine (Table 1).
	FourSocket MachineKind = iota
	// EightSocket is the 8-socket broadcast-snoop Westmere-EX machine.
	EightSocket
	// SixteenSocket is half of the rack-scale machine (Section 6.3).
	SixteenSocket
	// ThirtyTwoSocket is the SGI UV 300 rack-scale machine.
	ThirtyTwoSocket
)

// String names the machine as the paper's evaluation does.
func (k MachineKind) String() string {
	switch k {
	case FourSocket:
		return "4S-IvybridgeEX"
	case EightSocket:
		return "8S-WestmereEX"
	case SixteenSocket:
		return "16S-IvybridgeEX"
	case ThirtyTwoSocket:
		return "32S-IvybridgeEX"
	default:
		return fmt.Sprintf("machine(%d)", int(k))
	}
}

// Build instantiates the machine description.
func (k MachineKind) Build() *topology.Machine {
	switch k {
	case FourSocket:
		return topology.FourSocketIvyBridge()
	case EightSocket:
		return topology.EightSocketWestmere()
	case SixteenSocket:
		return topology.SixteenSocketIvyBridge()
	case ThirtyTwoSocket:
		return topology.ThirtyTwoSocketIvyBridge()
	default:
		panic("harness: unknown machine")
	}
}

// PlacementKind is the data placement under test.
type PlacementKind int

const (
	// RR is round-robin whole-column placement (Section 4.1).
	RR PlacementKind = iota
	// IVP partitions the indexvector across sockets (Section 4.2).
	IVP
	// PP physically partitions table, dictionaries included (Section 4.2).
	PP
)

// PlacementSpec pairs a placement with its partition count (ignored for RR).
type PlacementSpec struct {
	Kind       PlacementKind
	Partitions int
}

// String renders the placement as the experiment tables label it (RR,
// IVP<n>, PP<n>).
func (p PlacementSpec) String() string {
	switch p.Kind {
	case RR:
		return "RR"
	case IVP:
		return fmt.Sprintf("IVP%d", p.Partitions)
	case PP:
		return fmt.Sprintf("PP%d", p.Partitions)
	default:
		return "?"
	}
}

// Spec fully describes one experiment cell.
type Spec struct {
	Machine     MachineKind
	Dataset     workload.DatasetConfig
	Placement   PlacementSpec
	Strategy    core.Strategy
	Clients     int
	Selectivity float64
	UseIndex    bool
	Parallel    bool
	Skew        bool

	Warmup  float64 // virtual seconds before counters reset
	Measure float64 // virtual measurement window
	Step    float64 // simulator step; zero = core.DefaultStep
	Seed    int64

	// Ablation knobs, set by the root package's BenchmarkAblation*
	// benchmarks (bench_test.go).
	DisableHint     bool
	FIFOPriority    bool
	DisableCoalesce bool
	Costs           *core.Costs
}

// Result is the measured outcome of one experiment cell, mirroring the
// metrics the paper plots.
type Result struct {
	Spec Spec

	QPM         float64 // throughput in queries/minute
	CPULoad     float64 // 0..1
	Tasks       uint64
	Stolen      uint64
	LLCLocal    float64 // cache lines fetched locally
	LLCRemote   float64
	MemTP       []float64 // per-socket GiB/s
	MemTPTotal  float64
	IPC         float64
	QPIDataGiB  float64
	QPITotalGiB float64
	Latency     metrics.LatencyStats
	TableBytes  int64 // dataset footprint after placement (PP duplication)
	QueriesDone uint64
}

// Run executes one experiment cell from scratch: build machine + engine,
// generate and place the dataset, admit clients, warm up, measure.
func Run(spec Spec) Result {
	m := spec.Machine.Build()
	step := spec.Step
	if step == 0 {
		step = core.DefaultStep
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	e := core.NewWithStep(m, seed, step)
	if spec.Costs != nil {
		e.Costs = *spec.Costs
	}
	if spec.DisableHint {
		e.ConcurrencyHintEnabled = false
	}
	if spec.FIFOPriority {
		e.Sched.IgnorePriority = true
	}
	if spec.DisableCoalesce {
		e.DisableCoalesce = true
	}

	ds := spec.Dataset
	if ds.Rows == 0 {
		ds = workload.DefaultDataset()
	}
	ds.Synthetic = true
	ds.WithIndex = ds.WithIndex || spec.UseIndex
	table := workload.Generate(ds)

	switch spec.Placement.Kind {
	case RR:
		if spec.Skew {
			// The paper's skewed experiments have the hot half of the
			// columns on half the sockets (block layout); see PlaceRRBlocks.
			e.Placer.PlaceRRBlocks(table)
		} else {
			e.Placer.PlaceRR(table)
		}
	case IVP:
		e.Placer.PlaceRR(table) // dict/IX baseline location before IVP re-placement
		e.Placer.PlaceTableIVP(table, spec.Placement.Partitions)
	case PP:
		table = e.Placer.PlacePP(table, spec.Placement.Partitions)
	}

	var chooser workload.Chooser = workload.UniformChoice{}
	if spec.Skew {
		chooser = workload.SkewedChoice{HotProb: 0.8}
	}
	clients := workload.NewClients(e, table, workload.ClientsConfig{
		N:           spec.Clients,
		Selectivity: spec.Selectivity,
		UseIndex:    spec.UseIndex,
		Parallel:    spec.Parallel,
		Strategy:    spec.Strategy,
		Chooser:     chooser,
		Seed:        seed + 7,
	})
	clients.Start()

	warmup, measure := spec.Warmup, spec.Measure
	if warmup == 0 {
		warmup = 0.05
	}
	if measure == 0 {
		measure = 0.25
	}
	e.Sim.Run(warmup)
	e.Counters.Reset()
	e.Sim.Run(warmup + measure)

	c := e.Counters
	memTP := c.MemoryThroughputGiBs(measure)
	total := 0.0
	for _, v := range memTP {
		total += v
	}
	return Result{
		Spec:        spec,
		QPM:         c.ThroughputQPM(measure),
		CPULoad:     c.CPULoad(measure, m.TotalThreads()),
		Tasks:       c.TasksExecuted,
		Stolen:      c.TasksStolen,
		LLCLocal:    c.LLCLocal,
		LLCRemote:   c.LLCRemote,
		MemTP:       memTP,
		MemTPTotal:  total,
		IPC:         c.IPC(),
		QPIDataGiB:  c.LinkDataBytes / (1 << 30),
		QPITotalGiB: c.LinkTotalBytes / (1 << 30),
		Latency:     c.Latencies(),
		TableBytes:  table.TotalBytes(),
		QueriesDone: c.QueriesDone,
	}
}

// dataset builders used by the experiment definitions ------------------------

// scaledDataset returns the harness dataset for a machine size. The paper's
// table has 160 columns; the 4- and 8-socket runs use 64 columns to keep the
// container footprint modest while preserving >= 16 columns per socket.
func scaledDataset(k MachineKind, rows int, withIndex bool) workload.DatasetConfig {
	cols := 64
	if k == ThirtyTwoSocket {
		cols = 160
	}
	return workload.DatasetConfig{
		Rows:       rows,
		Columns:    cols,
		BitcaseMin: 12,
		BitcaseMax: 21,
		WithIndex:  withIndex,
		Seed:       1,
	}
}
