package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// cannedTop is `go tool pprof -top` output in the layout it prints.
const cannedTop = `File: perfbench
Type: cpu
Time: 2026-01-02 03:04:05 UTC
Duration: 2.51s, Total samples = 2.50s (99.60%)
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     1.50s 60.00% 60.00%      2.20s 88.00%  vanetsim/internal/sim.(*Scheduler).RunEpochs
     0.20s  8.00% 68.00%      0.20s  8.00%  vanetsim/internal/phy.(*Channel).offer (inline)
     100ms  4.00% 72.00%      100ms  4.00%  runtime.mallocgc
      50ms  2.00% 74.00%       50ms  2.00%  vanetsim/internal/geom.(*Grid).QueryInto
      50ms  2.00% 76.00%       50ms  2.00%  vanetsim/internal/runner.Map[go.shape.*vanetsim/internal/sim.X, go.shape.int].func1
      40ms  1.60% 77.60%       40ms  1.60%  vanetsim/internal/sim.heap[go.shape.struct { at float64; seq uint64 }].siftUp
      30ms  1.20% 78.80%       30ms  1.20%  vanetsim/internal/stats.Summarize
      30ms  1.20% 80.00%       30ms  1.20%  vanetsim/internal/service/canon.(*Canonical).Hash
     0.50s 20.00%   100%      0.50s 20.00%  internal/runtime/maps.ctrlGroup.matchFull
         0     0%   100%      2.50s   100%  runtime.main
`

func TestAttributeCannedProfile(t *testing.T) {
	got, err := parseTop(strings.NewReader(cannedTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":      1540 * time.Millisecond, // the generic heap's 40 ms included
		"phy":      200 * time.Millisecond,  // inlined into the scheduler, but the leaf
		"runtime":  600 * time.Millisecond,  // runtime and internal/runtime
		"mobility": 50 * time.Millisecond,   // geom
		"other":    50 * time.Millisecond,   // runner
		"metrics":  30 * time.Millisecond,   // stats
		"canon":    30 * time.Millisecond,
	}
	for _, mod := range modules {
		if got[mod] != want[mod] {
			t.Errorf("%s = %v, want %v", mod, got[mod], want[mod])
		}
	}
	if len(got) != len(want) {
		t.Errorf("attributed to %v, want %v", got, want)
	}
}

func TestParseTopWithoutTable(t *testing.T) {
	if _, err := parseTop(strings.NewReader("File: perfbench\nType: cpu\n")); err == nil {
		t.Error("output without a table parsed without error")
	}
	bad := "      flat  flat%   sum%        cum   cum%\n   12parsecs 1% 1% 1s 1%  main.f\n"
	if _, err := parseTop(strings.NewReader(bad)); err == nil {
		t.Error("unreadable flat time parsed without error")
	}
}

func TestParseFlat(t *testing.T) {
	for s, want := range map[string]time.Duration{
		"0": 0, "40ms": 40 * time.Millisecond, "1.20s": 1200 * time.Millisecond,
		"1.50mins": 90 * time.Second, "250us": 250 * time.Microsecond,
	} {
		if got, err := parseFlat(s); err != nil || got != want {
			t.Errorf("parseFlat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"vanetsim/internal/sim.(*Scheduler).Run":                     "vanetsim/internal/sim",
		"vanetsim/internal/sim.heap[vanetsim/internal/phy.x].push":   "vanetsim/internal/sim",
		"vanetsim.RunTrial.func1":                                    "vanetsim",
		"runtime.gcBgMarkWorker":                                     "runtime",
		"internal/runtime/maps.ctrlGroup.matchFull":                  "internal/runtime/maps",
		"vanetsim/internal/service/cache.(*Cache).Get":               "vanetsim/internal/service/cache",
		"vanetsim/internal/runner.Map[go.shape.*vanetsim/x.T].func2": "vanetsim/internal/runner",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A profile written by runtime/pprof goes through the installed pprof,
// and its CPU time is attributed in full.
func TestAttributeRuntimeProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	sink = x
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byMod, err := cpuByModule(path)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, d := range byMod {
		total += d
	}
	if total < 50*time.Millisecond {
		t.Errorf("attributed %v of a 300 ms busy loop: %v", total, byMod)
	}
}

var sink float64
