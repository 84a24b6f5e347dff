package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"numacs/internal/colstore"
)

// outputPartitionsDense is the reference outputPartitions is checked
// against: it visits every one of the nRegions fixed output regions, computes
// both bounds of each with a division, and skips the empty ones.
func outputPartitionsDense(regions []Region, total, nRegions int, disableCoalesce bool) []outPartition {
	var parts []outPartition
	ri := 0
	consumed := 0
	for i := 0; i < nRegions; i++ {
		lo := total * i / nRegions
		hi := total * (i + 1) / nRegions
		m := hi - lo
		if m == 0 {
			continue
		}
		for ri < len(regions)-1 && consumed+regions[ri].Matches <= lo {
			consumed += regions[ri].Matches
			ri++
		}
		reg := &regions[ri]
		if n := len(parts); !disableCoalesce && n > 0 &&
			parts[n-1].socket == reg.Socket && parts[n-1].col == reg.Col {
			parts[n-1].matches += m
			parts[n-1].weight++
		} else {
			parts = append(parts, outPartition{col: reg.Col, part: reg.Part, socket: reg.Socket, matches: m, weight: 1})
		}
	}
	return parts
}

// outputTestParts builds two parts, each with its own columns A, B and C.
func outputTestParts() []*colstore.Part {
	parts := make([]*colstore.Part, 2)
	for i := range parts {
		parts[i] = &colstore.Part{HomeSocket: i}
		for _, name := range []string{"A", "B", "C"} {
			parts[i].Columns = append(parts[i].Columns, &colstore.Column{Name: name})
		}
	}
	return parts
}

// TestPlanOutputMatchesDenseRegions: planning output over only the non-empty
// regions yields exactly the tasks of the dense per-region walk, for match
// totals on both sides of the region count, serial and parallel, with and
// without coalescing, over regions that alternate sockets and columns, with
// projected columns.
func TestPlanOutputMatchesDenseRegions(t *testing.T) {
	env := testEnv()
	n := env.Machine.TotalThreads()
	parts := outputTestParts()
	rng := rand.New(rand.NewSource(1))

	// Region layouts summing to total matches: one region; alternating
	// sockets on one column; alternating columns and parts on one socket;
	// and random sockets, columns and parts with some empty regions.
	layouts := func(total int) map[string][]Region {
		split := func(k int, at func(i int) Region) []Region {
			rs := make([]Region, k)
			left := total
			for i := range rs {
				rs[i] = at(i)
				m := total / k
				if i == k-1 {
					m = left
				}
				rs[i].Matches = m
				left -= m
			}
			return rs
		}
		random := make([]Region, 9)
		left := total
		for i := range random {
			p := parts[rng.Intn(len(parts))]
			random[i] = Region{Col: p.Columns[rng.Intn(2)], Part: p, Socket: rng.Intn(4)}
			if i == len(random)-1 {
				random[i].Matches = left
			} else if left > 0 && rng.Intn(3) > 0 {
				random[i].Matches = rng.Intn(left + 1)
			}
			left -= random[i].Matches
		}
		return map[string][]Region{
			"single": split(1, func(int) Region {
				return Region{Col: parts[0].Columns[0], Part: parts[0], Socket: 2}
			}),
			"alternate-sockets": split(6, func(i int) Region {
				return Region{Col: parts[0].Columns[0], Part: parts[0], Socket: i % 2}
			}),
			"alternate-columns": split(5, func(i int) Region {
				p := parts[i%2]
				return Region{Col: p.Columns[0], Part: p, Socket: 1}
			}),
			"random": random,
		}
	}

	for _, hint := range []int{0, 7} {
		if hint > 0 {
			h := hint
			env.ConcurrencyHint = func() int { return h }
		}
		p := &Pipeline{Env: env}
		for _, total := range []int{0, 1, n - 1, n, n + 1, 7*n + 3} {
			for name, regions := range layouts(total) {
				for _, parallel := range []bool{false, true} {
					for _, disableCoalesce := range []bool{false, true} {
						for _, project := range [][]string{nil, {"B", "C", "missing"}} {
							label := fmt.Sprintf("hint=%d total=%d %s parallel=%v disableCoalesce=%v project=%v",
								hint, total, name, parallel, disableCoalesce, project)
							got := planOutput(p, regions, parallel, project, disableCoalesce)
							var want []outTask
							if total > 0 {
								nRegions := 1
								if parallel {
									nRegions = n
								}
								dense := outputPartitionsDense(regions, total, nRegions, disableCoalesce)
								want = outputTasks(p, dense, parallel, project)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
							}
						}
					}
				}
			}
		}
	}
}
