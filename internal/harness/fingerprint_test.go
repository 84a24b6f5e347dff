package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// twinEngine builds the twin tests' 4-socket engine and its 16-column
// synthetic table, placed round-robin.
func twinEngine() (*core.Engine, *colstore.Table) {
	e := core.NewWithStep(FourSocket.Build(), 1, 25e-6)
	table := workload.Generate(workload.DatasetConfig{
		Rows: 60_000, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(table)
	return e, table
}

// sameFingerprint fails the test unless the two engines' fingerprints are
// equal, quoting both around the first byte where they differ.
func sameFingerprint(t *testing.T, a, b *core.Engine) {
	t.Helper()
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa == fb {
		return
	}
	la, lb := strings.Split(fa, "\n"), strings.Split(fb, "\n")
	line := 0
	for line < len(la) && line < len(lb) && la[line] == lb[line] {
		line++
	}
	x, y := lineAt(la, line), lineAt(lb, line)
	col := 0
	for col < len(x) && col < len(y) && x[col] == y[col] {
		col++
	}
	from := max(0, col-80)
	t.Fatalf("fingerprints differ at line %d, byte %d:\n %s\n %s", line+1, col, excerpt(x, from), excerpt(y, from))
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

func excerpt(s string, from int) string {
	if from >= len(s) {
		return ""
	}
	return s[from:min(len(s), from+160)]
}

// fingerprintGolden is the committed fingerprint file of an experiment.
func fingerprintGolden(id string) string {
	return filepath.Join("..", "..", "testdata", "fingerprints", id+".txt")
}

// checkFingerprints diffs a report's fingerprint lines against the
// experiment's committed golden, naming every cell that drifted. An
// experiment that runs no engine must have neither lines nor a golden.
func checkFingerprints(t *testing.T, rep *Report) {
	t.Helper()
	regen := "regenerate with: go run ./cmd/scanbench -exp " + rep.ID +
		" -scale quick -json | jq -r '.Fingerprints[]' > testdata/fingerprints/" + rep.ID + ".txt"
	data, err := os.ReadFile(fingerprintGolden(rep.ID))
	if os.IsNotExist(err) && len(rep.Fingerprints) == 0 {
		return
	}
	if err != nil {
		t.Fatalf("%s: %v; %s", rep.ID, err, regen)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := rep.Fingerprints
	for i := 0; i < max(len(got), len(want)); i++ {
		if g, w := lineAt(got, i), lineAt(want, i); g != w {
			t.Errorf("%s cell %d drifted:\n got  %q\n want %q", rep.ID, i+1, g, w)
		}
	}
	if t.Failed() {
		t.Log(regen)
	}
}

// TestRunFingerprintDeterministic runs one cell of the broadcast-snoop
// machine twice in one process: the two runs must fingerprint identically.
// Unbound (OS) scheduling streams remotely, so the snoop link totals of
// every socket reach LinkTotalBytes.
func TestRunFingerprintDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	s := QuickScale()
	spec := s.spec4(EightSocket)
	spec.Placement = PlacementSpec{Kind: RR}
	spec.Strategy = core.OSched
	spec.Clients = s.Max
	spec.Selectivity = lowSel
	if a, b := Run(spec).Fingerprint, Run(spec).Fingerprint; a != b {
		t.Fatalf("one cell fingerprinted twice differently: %s vs %s", a, b)
	}
}
