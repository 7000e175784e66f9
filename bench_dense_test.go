// Dense-highway end-to-end benchmark: the 240-vehicle 802.11 scenario for
// 5 s, the whole stack (scheduler, PHY fan-out, MAC contention, mobility)
// on one goroutine. BENCH_DENSE.json gates it under GOMAXPROCS=1, which
// keeps the timing comparable across hosts:
//
//	GOMAXPROCS=1 go test -bench='BenchmarkDenseHighway240$' -benchtime=2x -benchmem .
package vanetsim_test

import (
	"testing"

	"vanetsim"
)

func BenchmarkDenseHighway240(b *testing.B) {
	cfg := vanetsim.DefaultDenseHighway(vanetsim.MAC80211, 240)
	cfg.Duration = vanetsim.Seconds(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := vanetsim.RunDenseHighway(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Channel.Delivered == 0 {
			b.Fatal("dense run delivered nothing")
		}
	}
}
