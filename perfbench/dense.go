package main

import (
	"fmt"

	"vanetsim"
)

// denseVehicles and denseDuration put the dense highway in the
// post-brake regime: every lead brakes at the default 5 s, so half of
// the 10 simulated seconds is safety-stream contention.
const (
	denseVehicles = 240
	denseDuration = 10
)

// dense runs the 240-vehicle, four-lane 802.11 highway once per pass.
// Reading the result is a few field reads (what the CLI prints), not a
// call into the program, so it is checked but not timed.
type dense struct {
	seed  uint64
	first denseSummary // pass 0's summary; later passes must match
}

func newDense(seed uint64, _ string) workload { return &dense{seed: seed} }

func (d *dense) config() vanetsim.DenseHighwayConfig {
	cfg := vanetsim.DefaultDenseHighway(vanetsim.MAC80211, denseVehicles)
	cfg.Duration = denseDuration
	cfg.Seed = d.seed
	return cfg
}

// setup times building the dense world (a run that ends before any
// traffic).
func (d *dense) setup(b *bench) error {
	return timeBuilds(b, 31, 3, func() error {
		cfg := d.config()
		cfg.Duration = setupDuration
		if _, err := vanetsim.RunDenseHighway(cfg); err != nil {
			return fmt.Errorf("dense set-up: %w", err)
		}
		return nil
	})
}

// denseSummary is what the CLI prints of a dense run: how many
// followers heard the brake, the worst indication delay, and the
// traffic and collision counts.
type denseSummary struct {
	Followers, Notified        int
	Worst                      float64
	SafetySent, SafetyReceived int
	Collisions, RxCollided     int
}

func summarize(r *vanetsim.DenseHighwayResult) denseSummary {
	s := denseSummary{
		Followers:      len(r.Indications),
		SafetySent:     r.SafetySent,
		SafetyReceived: r.SafetyReceived,
		Collisions:     r.Collisions,
		RxCollided:     r.RxCollided,
	}
	for _, ind := range r.Indications {
		if ind.IndicationDelay >= 0 {
			s.Notified++
			s.Worst = max(s.Worst, float64(ind.IndicationDelay))
		}
	}
	return s
}

func (d *dense) pass(b *bench, i int) {
	trace := b.tr.id()
	traced := b.traced()
	cfg := d.config()
	cfg.Telemetry = traced
	var r *vanetsim.DenseHighwayResult
	el := b.opID(missOp, "RunDenseHighway", trace, trace, 0, func() error {
		var err error
		r, err = vanetsim.RunDenseHighway(cfg)
		return err
	})
	if r == nil {
		return
	}
	b.addSim(float64(cfg.Duration))
	if traced {
		b.observeSim(el, r.Telemetry.FormatText())
	}
	s := summarize(r)
	if i == 0 {
		d.first = s
	}
	b.check(denseProblem(s, d.first))
}

// denseProblem checks a dense summary: some follower must hear the
// brake, and every pass of a seed must read the same.
func denseProblem(s, first denseSummary) string {
	switch {
	case s.Notified == 0:
		return fmt.Sprintf("dense240: 0 of %d followers notified", s.Followers)
	case s != first:
		return fmt.Sprintf("dense240: summary %+v differs from the first pass's %+v", s, first)
	}
	return ""
}

// layers checks the profile against the ordering ROADMAP's pprof
// baseline shows on dense runs: the scheduler above the PHY, and the PHY
// above every other simulator module.
func (d *dense) layers(b *bench, m map[string]float64) {
	b.check(orderingProblem(m))
}

func orderingProblem(m map[string]float64) string {
	simS, phyS := m["sim.cpu_share"], m["phy.cpu_share"]
	if simS <= phyS {
		return fmt.Sprintf("dense240: sim.cpu_share %.3f not above phy.cpu_share %.3f", simS, phyS)
	}
	for _, mod := range simModules[2:] {
		if v := m[mod+".cpu_share"]; v >= phyS {
			return fmt.Sprintf("dense240: %s.cpu_share %.3f not below phy.cpu_share %.3f", mod, v, phyS)
		}
	}
	return ""
}

func (d *dense) close() {}
