package psm

import (
	"testing"

	"numacs/internal/memsim"
)

var sinkSocketBytes []int64

// BenchmarkSocketBytes measures one per-socket byte lookup over a 1 MiB
// window that starts and ends mid-page, the call every scan task and
// scheduling partition makes on its IV window. It reports ns/row where a
// "row" is one lookup, putting the PSM on the benchdiff regression gate:
// Open pays this cost once per scheduling partition of every statement.
func BenchmarkSocketBytes(b *testing.B) {
	const window = 1 << 20
	cases := []struct {
		name   string
		policy memsim.Policy
	}{
		{"ivp-4", memsim.OnSocket(0)},
		{"interleaved-8", memsim.Interleaved{Sockets: []int{0, 1, 2, 3, 4, 5, 6, 7}}},
	}
	for _, c := range cases {
		a := memsim.NewAllocator(8)
		r := a.Alloc(4*window, c.policy)
		if c.name == "ivp-4" {
			// Four IVP-style partitions: one plain range per socket.
			for s := 0; s < 4; s++ {
				a.MovePages(r.Subrange(int64(s)*window, window), s)
			}
		}
		p := Build(a, r)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSocketBytes = p.SocketBytes(r, window/2+100, window)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}
