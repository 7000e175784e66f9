package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"vanetsim"
)

// paperDigests are the SHA-256 digests of each trial's formatted delay
// and throughput tables (FormatDelayTable then FormatThroughputTable) at
// seed 1, the paper's default seed, recorded from the seed commit.
var paperDigests = [3]string{
	"5308e3322d243b50bf5f7d9fe154c7133896dd703fe7cf3274c52cddd3341973",
	"4abbe912df8afeb6bcfb71a45c0c345cac3185006751584f0301c354fe27b858",
	"443db8e0645fb558ce2c8d9127911ea8083496baf8d7900bd028ab21da061bbe",
}

// setupDuration is the simulated time of a world build: long enough to
// build the world and start its agents, too short for any traffic.
const setupDuration = 1e-3

// timeBuilds times a workload's world builds for setup_s: one untimed
// build to warm up, then probes probes of reps builds each, every probe
// started on a freshly collected heap, recording each probe's time per
// build.
func timeBuilds(b *bench, probes, reps int, build func() error) error {
	if err := build(); err != nil {
		return err
	}
	for i := 0; i < probes; i++ {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			if err := build(); err != nil {
				return err
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds()/float64(reps))
	}
	return nil
}

// paper runs Trials 1, 2 and 3 serially, each followed by the analysis
// a user reads: DelayTable, ThroughputTable and StoppingTable.
type paper struct {
	seed  uint64
	first [3]string // pass 0's table digests; later passes must match
}

func newPaper(seed uint64, _ string) workload { return &paper{seed: seed} }

func (p *paper) configs() []vanetsim.TrialConfig {
	cfgs := []vanetsim.TrialConfig{vanetsim.Trial1(), vanetsim.Trial2(), vanetsim.Trial3()}
	for i := range cfgs {
		cfgs[i].Seed = p.seed
	}
	return cfgs
}

// setup times building the three trial worlds (a run that ends before
// any traffic), the one-time cost in front of every trial.
func (p *paper) setup(b *bench) error {
	return timeBuilds(b, 31, 10, func() error {
		for _, cfg := range p.configs() {
			cfg.Duration = setupDuration
			vanetsim.RunTrial(cfg)
		}
		return nil
	})
}

func (p *paper) pass(b *bench, i int) {
	trace := b.tr.id()
	traced := b.traced()
	start := time.Now()
	cfgs := p.configs()
	results := make([]*vanetsim.TrialResult, len(cfgs))
	// A pass is one miss, the three trials, and one hit, their analysis.
	// Timed per call instead, the percentiles would fall between the
	// similar-sized TDMA trials and flip between them with noise.
	sim := b.tr.id()
	b.opID(missOp, "RunTrial x3", trace, sim, trace, func() error {
		for k, cfg := range cfgs {
			cfg.Telemetry = traced
			t0 := time.Now()
			results[k] = vanetsim.RunTrial(cfg)
			t1 := time.Now()
			b.tr.add(trace, b.tr.id(), sim, "RunTrial "+cfg.Name, t0, t1)
			b.addSim(float64(cfg.Duration))
			if traced {
				b.observeSim(t1.Sub(t0), results[k].Telemetry.FormatText())
			}
		}
		return nil
	})

	var delays [3][]vanetsim.DelayRow
	var tputs [3][]vanetsim.ThroughputRow
	var tables [3]string
	ana := b.tr.id()
	analysis := b.opID(hitOp, "analyse x3", trace, ana, trace, func() error {
		call := func(name string, f func()) {
			t0 := time.Now()
			f()
			b.tr.add(trace, b.tr.id(), ana, name, t0, time.Now())
		}
		for k, r := range results {
			call("DelayTable "+r.Config.Name, func() {
				delays[k] = vanetsim.DelayTable(r)
				tables[k] = vanetsim.FormatDelayTable(delays[k])
			})
			call("ThroughputTable "+r.Config.Name, func() {
				tputs[k] = vanetsim.ThroughputTable(r)
				tables[k] += vanetsim.FormatThroughputTable(tputs[k])
			})
		}
		var stop []vanetsim.StoppingRow
		call("StoppingTable", func() {
			stop = vanetsim.StoppingTable(results...)
			vanetsim.FormatStoppingTable(stop)
		})
		if len(stop) != len(results) {
			return fmt.Errorf("%d stopping rows for %d trials", len(stop), len(results))
		}
		return nil
	})
	b.tr.add(trace, trace, 0, "paper pass", start, time.Now())
	b.observeAnalysis(analysis)

	var digests [3]string
	for k, t := range tables {
		sum := sha256.Sum256([]byte(t))
		digests[k] = hex.EncodeToString(sum[:])
	}
	if i == 0 {
		p.first = digests
	}
	for _, problem := range paperProblems(p.seed, digests, p.first, delays, tputs) {
		b.check(problem)
	}
}

// paperProblems checks one pass's tables: the recorded digests at seed
// 1, identical tables on every pass of a seed, and at any seed the
// paper's shape — Trials 1 and 2 agree on delay, Trial 2 carries about
// half of Trial 1's throughput, and 802.11 (Trial 3) beats TDMA
// (Trial 1) on both steady-state and initial delay. It returns one entry
// per check, "" for a check that holds.
func paperProblems(seed uint64, digests, first [3]string, delays [3][]vanetsim.DelayRow, tputs [3][]vanetsim.ThroughputRow) []string {
	var out []string
	checkf := func(ok bool, format string, args ...any) {
		if ok {
			out = append(out, "")
		} else {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	for k := range digests {
		if seed == 1 {
			checkf(digests[k] == paperDigests[k], "paper: trial %d tables digest %s, recorded %s", k+1, digests[k], paperDigests[k])
		}
		checkf(digests[k] == first[k], "paper: trial %d tables differ between passes of seed %d", k+1, seed)
	}
	if len(delays[0]) != len(delays[1]) || len(delays[0]) == 0 || len(delays[2]) == 0 {
		checkf(false, "paper: delay tables have %d, %d, %d rows", len(delays[0]), len(delays[1]), len(delays[2]))
		return out
	}
	for r := range delays[0] {
		d1, d2 := delays[0][r].AvgS, delays[1][r].AvgS
		checkf(d1 > 0 && math.Abs(d1-d2) <= 0.05*d1,
			"paper: trial 1 and 2 delays disagree (platoon %d %s: %.4f vs %.4f s)",
			delays[0][r].Platoon, delays[0][r].Vehicle, d1, d2)
	}
	for r := range tputs[0] {
		if r >= len(tputs[1]) {
			break
		}
		q := ratio(tputs[1][r].AvgMbps, tputs[0][r].AvgMbps)
		checkf(q >= 0.4 && q <= 0.6, "paper: trial 2 throughput is %.2f of trial 1's (platoon %d), want about half", q, r+1)
	}
	t1, t3 := delays[0][0], delays[2][0]
	checkf(t3.SteadyS < t1.SteadyS, "paper: trial 3 steady delay %.4f s not below trial 1's %.4f s", t3.SteadyS, t1.SteadyS)
	checkf(t3.FirstS < t1.FirstS, "paper: trial 3 initial delay %.4f s not below trial 1's %.4f s", t3.FirstS, t1.FirstS)
	return out
}

func (p *paper) layers(b *bench, m map[string]float64) {}

func (p *paper) close() {}
