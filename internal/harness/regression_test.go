package harness

import (
	"testing"

	"numacs/internal/core"
	"numacs/internal/workload"
)

// TestReadOnlyScanPathsBitIdentical pins three fixed-seed read-only scenarios
// to what the engine did before the delta-store write path existed. A column
// that is never written has a nil Delta, so the scan planner must take the
// identical code path, consume the identical RNG stream, and start the
// identical flows — any drift in these fingerprints means the write path
// leaked into the read-only side.
func TestReadOnlyScanPathsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	ds := func(rows int) workload.DatasetConfig {
		return workload.DatasetConfig{Rows: rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1}
	}
	specs := []Spec{
		{Machine: FourSocket, Dataset: ds(60_000),
			Placement: PlacementSpec{Kind: RR}, Strategy: core.Bound,
			Clients: 64, Selectivity: 1e-5, Parallel: true,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 1},
		{Machine: FourSocket, Dataset: ds(60_000),
			Placement: PlacementSpec{Kind: IVP, Partitions: 4}, Strategy: core.Target,
			Clients: 32, Selectivity: 0.10, Parallel: true, Skew: true,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 3},
		{Machine: EightSocket, Dataset: ds(40_000),
			Placement: PlacementSpec{Kind: PP, Partitions: 4}, Strategy: core.OSched,
			Clients: 16, Selectivity: 1e-3, Parallel: false,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 5},
	}
	// Recorded while the runs still matched Result metrics captured on the
	// pre-write-path engine (exact: the simulation is deterministic).
	want := []string{
		"4S-IvybridgeEX RR Bound 64cl sel=1e-05 f2b43fa97db5a959b5dbe16901956fda",
		"4S-IvybridgeEX IVP4 Target 32cl sel=0.1 skew f64c5a64c78844025a2c2c1e4c09239e",
		"8S-WestmereEX PP4 OS 16cl sel=0.001 serial 0bdd4cddf80b114c1d569fc5abdf9f69",
	}
	for i, spec := range specs {
		if got := Run(spec).Fingerprint; got != want[i] {
			t.Errorf("spec %d drifted from the pre-write-path golden:\n got  %s\n want %s", i, got, want[i])
		}
	}
}
