// Command perfbench is the repository's performance ledger: one command
// that drives the paper trials, a post-brake dense highway and the
// vanetsimd service through their public entry points, checks that
// their outputs are correct, and prints end-to-end metrics (untraced
// passes) or per-layer metrics (one extra traced pass). See README.md.
//
//	go run . --workload paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the workload, appending set-up samples to b.setups.
	setup(b *bench) error
	// pass runs one unit of work. Pass i of a seed always runs the same
	// inputs; b.tr is non-nil on the traced pass.
	pass(b *bench, i int)
	// layers adds the per-layer values only this workload measures; m
	// already holds the shared ones, including every cpu_share.
	layers(b *bench, m map[string]float64)
	// close releases everything the workload started.
	close()
}

var workloads = map[string]func(seed uint64, dir string) workload{
	"paper":    newPaper,
	"dense240": newDense,
	"service":  newService,
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_s_per_wall_s", "s/s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"study_s", "s"},
	{"restudy_s", "s"},
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_frame", "ratio"},
	{"sim.max_pending", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_share", "ratio"},
	{"sim.self_s", "s"},
	{"phy.tx_frames", "count"},
	{"phy.arrivals", "count"},
	{"phy.below_thresh_share", "ratio"},
	{"phy.events_per_frame", "ratio"},
	{"phy.rx_ok_share", "ratio"},
	{"phy.cpu_share", "ratio"},
	{"mobility.cpu_share", "ratio"},
	{"mac80211.events", "count"},
	{"mac80211.retries", "count"},
	{"mac80211.drops", "count"},
	{"mac80211.cpu_share", "ratio"},
	{"mactdma.idle_slots", "count"},
	{"mactdma.cpu_share", "ratio"},
	{"aodv.events", "count"},
	{"aodv.control_bytes", "bytes"},
	{"aodv.cpu_share", "ratio"},
	{"tcp.segments_sent", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.cpu_share", "ratio"},
	{"queue.drops", "count"},
	{"queue.cpu_share", "ratio"},
	{"metrics.analysis_s", "s"},
	{"metrics.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"canon.hash_us", "us"},
	{"canon.cpu_share", "ratio"},
	{"cache.get_us", "us"},
	{"cache.open_s", "s"},
	{"cache.cpu_share", "ratio"},
	{"service.fetch_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_ms", "ms"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.coalesced", "count"},
	{"service.rep_cached", "count"},
	{"service.rep_fresh", "count"},
	{"service.cpu_share", "ratio"},
	{"seqstop.reps_executed", "count"},
	{"seqstop.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"hit.p99_ms", "ms"},
	{"hit.samples", "count"},
	{"hit.tail_q", "ratio"},
	{"miss.samples", "count"},
	{"miss.tail_q", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper, dense240 or service")
	seed := fs.Uint64("seed", 1, "workload seed; every config and request seed derives from it")
	seconds := fs.Int("seconds", 30, "how long the untraced passes run")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper|dense240|service, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{}
	w := mk(*seed, dir)
	profile := ""
	if *trace == 1 {
		profile = filepath.Join(dir, fmt.Sprintf("cpu-%s-seed%d.pprof", *name, *seed))
	}
	vals, err := measure(b, w, time.Duration(*seconds)*time.Second, profile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *trace == 0 {
		applyAliases(vals, aliases[*name])
	} else {
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := result{Attempted: b.attempted, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (*trace == 0 && v <= 0) {
			b.fail("metric %s not measured (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		note := ""
		if src, ok := aliases[*name][d.name]; ok && *trace == 0 {
			note = "  (alias of " + src + ")"
		}
		fmt.Fprintf(stdout, "%-24s %16.6f %s%s\n", d.name, v, d.unit, note)
	}
	out.Failed = b.failed
	out.Correct = b.failed == 0
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// aliases lists, per workload, the end-to-end metrics it has no
// operation of its own for. Every run reports every end-to-end metric,
// so such a metric repeats the value of the metric it names, converted
// to its own unit; a regression verdict counts the two as one.
var aliases = map[string]map[string]string{
	"paper": {
		// One miss and one hit per pass give about 25 samples a run, too
		// few for ten beyond p90.
		"miss_p90_ms": "miss_p50_ms",
		"hit_p90_ms":  "hit_p50_ms",
		"study_s":     "wall_s",     // the pass is the study
		"restudy_s":   "hit_p50_ms", // re-analysis of finished runs
	},
	"dense240": {
		"miss_p50_ms": "wall_s", // the pass is one RunDenseHighway call
		"miss_p90_ms": "wall_s",
		"hit_p50_ms":  "wall_s", // no call answers from a finished run
		"hit_p90_ms":  "wall_s",
		"study_s":     "wall_s",
		"restudy_s":   "wall_s",
	},
}

// applyAliases fills each aliased metric from its source.
func applyAliases(v map[string]float64, alias map[string]string) {
	unit := make(map[string]string, len(endToEnd))
	for _, d := range endToEnd {
		unit[d.name] = d.unit
	}
	for name, src := range alias {
		v[name] = convert(v[src], unit[src], unit[name])
	}
}

// convert changes a time between seconds and milliseconds.
func convert(v float64, from, to string) float64 {
	switch {
	case from == "s" && to == "ms":
		return v * 1e3
	case from == "ms" && to == "s":
		return v / 1e3
	case from == to:
		return v
	}
	return math.NaN()
}

// measure sets the workload up, runs untraced passes until d has
// elapsed (at least one), then, when profile names a file, the traced
// pass under a CPU profile written there, and returns every metric it
// can compute.
func measure(b *bench, w workload, d time.Duration, profile string) (map[string]float64, error) {
	defer w.close()
	hw := startHeapWatch()
	defer hw.close()
	if err := w.setup(b); err != nil {
		return nil, err
	}
	b.resetSamples()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		hw.take()
		t0 := time.Now()
		w.pass(b, i)
		b.passes = append(b.passes, time.Since(t0).Seconds())
		b.heapPeaks = append(b.heapPeaks, hw.take())
	}
	wall := sum(b.passes)
	v := map[string]float64{
		"wall_s":           median(b.passes),
		"sim_s_per_wall_s": b.simS / wall,
		"peak_heap_mb":     median(b.heapPeaks),
		"setup_s":          median(b.setups),
		"requests_per_s":   float64(b.ops) / wall,
		"hit_p50_ms":       quantile(b.hits, 0.5),
		"hit_p90_ms":       quantile(b.hits, 0.9),
		"miss_p50_ms":      quantile(b.misses, 0.5),
		"miss_p90_ms":      quantile(b.misses, 0.9),
		"study_s":          median(b.studies),
		"restudy_s":        median(b.restudys),
	}
	if profile == "" {
		return v, nil
	}

	b.mu.Lock()
	b.tr = newTracer()
	b.mu.Unlock()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t0 := time.Now()
	w.pass(b, len(b.passes))
	tracedWall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := f.Close(); err != nil {
		return nil, err
	}
	byMod, err := cpuByModule(profile)
	if err != nil {
		return nil, err
	}

	m := b.tel.metrics(b.simWallS)
	var total time.Duration
	for _, d := range byMod {
		total += d
	}
	for _, mod := range modules {
		m[mod+".cpu_share"] = ratio(float64(byMod[mod]), float64(total))
	}
	m["sim.self_s"] = byMod["sim"].Seconds()
	m["metrics.analysis_s"] = b.analysisS
	m["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	m["runtime.allocs"] = float64(m1.Mallocs - m0.Mallocs)
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["trace.overhead"] = tracedWall/v["wall_s"] - 1
	m["hit.p99_ms"] = 0
	if len(b.hits) > 0 {
		m["hit.p99_ms"] = quantile(b.hits, 0.99)
	}
	m["hit.samples"] = float64(len(b.hits))
	m["hit.tail_q"] = supportedTail(len(b.hits))
	m["miss.samples"] = float64(len(b.misses))
	m["miss.tail_q"] = supportedTail(len(b.misses))
	w.layers(b, m)
	return m, nil
}
