package main

import (
	"path/filepath"
	"testing"
	"time"
)

// One short run of the service workload end to end, traced: the two
// clients, the daemon's workers and the checks must agree (run it with
// -race).
func TestServiceWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	b := &bench{}
	dir := t.TempDir()
	m, err := measure(b, newService(3, dir), time.Millisecond, filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if b.failed > 0 {
		t.Fatalf("%d of %d checks or operations failed: %v", b.failed, b.attempted, b.failures)
	}
	for _, name := range []string{"service.cache_hits", "service.cache_misses", "service.rep_fresh", "cache.open_s", "canon.hash_us", "sim.events"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if got, want := m["service.cache_misses"], float64(svcMisses+2); got != want {
		t.Errorf("traced pass missed %v times, want %v", got, want)
	}
	if got, want := m["service.cache_hits"], float64(svcMisses*svcHitsPerMiss/2); got != want {
		t.Errorf("traced pass hit %v times, want %v", got, want)
	}
}
