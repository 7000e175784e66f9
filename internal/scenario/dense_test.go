package scenario_test

import (
	"testing"

	"vanetsim/internal/scenario"
)

func denseTestConfig(mac scenario.MACType, n int) scenario.DenseHighwayConfig {
	cfg := scenario.DefaultDenseHighway(mac, n)
	cfg.Lanes = 3
	cfg.BrakeAt = 3
	cfg.Duration = 15
	return cfg
}

func mustDense(t *testing.T, cfg scenario.DenseHighwayConfig) *scenario.DenseHighwayResult {
	t.Helper()
	r, err := scenario.RunDenseHighway(cfg)
	if err != nil {
		t.Fatalf("RunDenseHighway: %v", err)
	}
	return r
}

func TestDenseHighwaySmoke(t *testing.T) {
	r := mustDense(t, denseTestConfig(scenario.MAC80211, 60))
	if r.Platoons == 0 {
		t.Fatal("no platoons built")
	}
	if want := 60 - r.Platoons; len(r.Indications) != want {
		t.Fatalf("indications = %d, want one per follower (%d)", len(r.Indications), want)
	}
	if r.SafetySent == 0 || r.SafetyReceived == 0 {
		t.Fatalf("safety traffic missing: sent %d received %d", r.SafetySent, r.SafetyReceived)
	}
	if r.BeaconSent == 0 || r.BeaconReceived == 0 {
		t.Fatalf("beacon traffic missing: sent %d received %d", r.BeaconSent, r.BeaconReceived)
	}
	if r.Channel.Offered < r.Channel.Delivered {
		t.Fatalf("channel offered %d < delivered %d", r.Channel.Offered, r.Channel.Delivered)
	}
	notified := 0
	for _, ind := range r.Indications {
		if ind.IndicationDelay >= 0 {
			notified++
		}
	}
	if notified == 0 {
		t.Fatal("no follower ever received a brake indication")
	}
}

// TestDenseHighwayCulledMatchesScan is the determinism contract end to end:
// the spatial index changes who is iterated, never what is delivered, so a
// culled run and a full-scan run of the same config are indistinguishable
// in every simulation-visible output.
func TestDenseHighwayCulledMatchesScan(t *testing.T) {
	cfg := denseTestConfig(scenario.MAC80211, 45)
	culled := mustDense(t, cfg)
	cfg.DisableCulling = true
	scan := mustDense(t, cfg)

	if !culled.World.Channel.CullingEnabled() {
		t.Fatal("culled run did not enable the spatial index")
	}
	if scan.World.Channel.CullingEnabled() {
		t.Fatal("scan run unexpectedly enabled the spatial index")
	}
	if culled.Channel != scan.Channel {
		t.Fatalf("channel stats diverged: culled %+v vs scan %+v", culled.Channel, scan.Channel)
	}
	if culled.Collisions != scan.Collisions || culled.RxCollided != scan.RxCollided {
		t.Fatalf("collision outcomes diverged: culled (%d, rx %d) vs scan (%d, rx %d)",
			culled.Collisions, culled.RxCollided, scan.Collisions, scan.RxCollided)
	}
	if culled.SafetySent != scan.SafetySent || culled.SafetyReceived != scan.SafetyReceived ||
		culled.BeaconSent != scan.BeaconSent || culled.BeaconReceived != scan.BeaconReceived {
		t.Fatalf("traffic totals diverged: culled %+v vs scan %+v",
			[4]int{culled.SafetySent, culled.SafetyReceived, culled.BeaconSent, culled.BeaconReceived},
			[4]int{scan.SafetySent, scan.SafetyReceived, scan.BeaconSent, scan.BeaconReceived})
	}
	if len(culled.Indications) != len(scan.Indications) {
		t.Fatalf("indication counts diverged: %d vs %d", len(culled.Indications), len(scan.Indications))
	}
	for i := range culled.Indications {
		if culled.Indications[i] != scan.Indications[i] {
			t.Fatalf("indication %d diverged: culled %+v vs scan %+v",
				i, culled.Indications[i], scan.Indications[i])
		}
	}
}

func TestDenseHighwayDeterminism(t *testing.T) {
	a := mustDense(t, denseTestConfig(scenario.MACTDMA, 24))
	b := mustDense(t, denseTestConfig(scenario.MACTDMA, 24))
	if a.Collisions != b.Collisions || a.Channel != b.Channel ||
		a.SafetySent != b.SafetySent || a.SafetyReceived != b.SafetyReceived {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Channel, b.Channel)
	}
	for i := range a.Indications {
		if a.Indications[i] != b.Indications[i] {
			t.Fatalf("same seed diverged at indication %d: %+v vs %+v",
				i, a.Indications[i], b.Indications[i])
		}
	}
}

func TestDenseHighwayCleanUnderCheck(t *testing.T) {
	cfg := denseTestConfig(scenario.MAC80211, 30)
	cfg.Check = true
	r := mustDense(t, cfg)
	for _, v := range r.Violations {
		t.Errorf("%v", v.Error())
	}
}

func TestDenseHighwayConfigErrors(t *testing.T) {
	cases := []func(*scenario.DenseHighwayConfig){
		func(c *scenario.DenseHighwayConfig) { c.Vehicles = 1 },
		func(c *scenario.DenseHighwayConfig) { c.Lanes = 0 },
		func(c *scenario.DenseHighwayConfig) { c.PlatoonLen = 1 },
		func(c *scenario.DenseHighwayConfig) { c.BeaconFraction = 1.5 },
		func(c *scenario.DenseHighwayConfig) { c.BeaconJitter = 1 },
		func(c *scenario.DenseHighwayConfig) { c.BeaconJitter = -0.1 },
		func(c *scenario.DenseHighwayConfig) { c.Vehicles = 4; c.Lanes = 3 }, // a lane gets 1 vehicle
	}
	for i, mutate := range cases {
		cfg := denseTestConfig(scenario.MAC80211, 30)
		mutate(&cfg)
		if _, err := scenario.RunDenseHighway(cfg); err == nil {
			t.Errorf("case %d: invalid config did not return an error", i)
		}
	}
}

// TestDenseHighwayBeaconJitter pins the jitter knob's contract: a jittered
// run is deterministic (same seed, same run), actually changes the beacon
// timing relative to the lockstep default, and stays clean under the
// invariant checker.
func TestDenseHighwayBeaconJitter(t *testing.T) {
	base := func(jitter float64) scenario.DenseHighwayConfig {
		cfg := denseTestConfig(scenario.MAC80211, 45)
		cfg.BeaconJitter = jitter
		cfg.Check = true
		return cfg
	}
	lockstep := mustDense(t, base(0))
	a := mustDense(t, base(0.3))
	b := mustDense(t, base(0.3))
	for _, v := range a.Violations {
		t.Errorf("violation under jitter: %v", v.Error())
	}
	if a.Channel != b.Channel || a.BeaconSent != b.BeaconSent || a.BeaconReceived != b.BeaconReceived {
		t.Fatalf("jittered runs of the same seed diverged: %+v vs %+v", a.Channel, b.Channel)
	}
	if a.Channel == lockstep.Channel && a.BeaconSent == lockstep.BeaconSent {
		t.Fatal("30% interval jitter left the run identical to lockstep beaconing")
	}
}
