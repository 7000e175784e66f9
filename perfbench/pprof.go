package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuByModule runs the installed `go tool pprof` on a CPU profile file
// and sums its flat CPU time per module.
func cpuByModule(profile string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", "-symbolize=none", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(bytes.NewReader(out))
}

// parseTop reads the table `go tool pprof -top` prints and sums the flat
// column by module (see moduleOf). Rows follow the header line
// "flat flat% sum% cum cum%"; each names one function, inlined ones
// included, so flat time lands on the innermost function.
func parseTop(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	sc := bufio.NewScanner(r)
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			return nil, err
		}
		out[moduleOf(strings.Join(f[5:], " "))] += d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof: no table in its output")
	}
	return out, nil
}

// parseFlat reads a pprof duration such as "0", "40ms", "1.20s" or
// "1.50mins".
func parseFlat(s string) (time.Duration, error) {
	for unit, std := range map[string]string{"mins": "m", "hrs": "h"} {
		if v, ok := strings.CutSuffix(s, unit); ok {
			s = v + std
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("go tool pprof: flat time %q: %w", s, err)
	}
	return d, nil
}

// packageOf extracts the import path from a symbolized Go function name,
// e.g. "vanetsim/internal/sim.(*Scheduler).Run" → "vanetsim/internal/sim".
// Type arguments are cut first: they may contain slashes and dots.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// simModules are the simulator's layers, in the order the benchmark
// reports them.
var simModules = []string{"sim", "phy", "mobility", "mac80211", "mactdma", "aodv", "tcp", "queue", "metrics"}

// modules lists every module CPU is attributed to.
var modules = append(append([]string{}, simModules...), "runtime", "service", "canon", "cache", "seqstop", "other")

// moduleOf names the module a function's flat CPU time belongs to: one
// of this repository's layers, "runtime" for the Go runtime and its
// garbage collector, or "other". geom is the spatial index behind
// mobility-aware culling and is reported with mobility; stats holds the
// summaries behind the delay analysis (MSER truncation calls
// stats.Summarize per candidate cut) and is reported with metrics.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(pkg, "vanetsim/internal/")
	if !ok {
		return "other"
	}
	switch rest {
	case "sim", "phy", "mobility", "mac80211", "mactdma", "aodv", "tcp", "queue", "metrics", "service":
		return rest
	case "geom":
		return "mobility"
	case "stats":
		return "metrics"
	case "service/canon":
		return "canon"
	case "service/cache":
		return "cache"
	case "stats/seqstop":
		return "seqstop"
	}
	return "other"
}
