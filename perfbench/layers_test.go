package main

import (
	"testing"

	"vanetsim/internal/obs"
)

// telemetryText renders counters and gauges through the simulator's own
// exporter, so the parser is tested against the real text format.
func telemetryText(counters map[string]uint64, gauges map[string]float64) string {
	r := obs.NewRegistry()
	for name, v := range counters {
		r.Counter(name, "").Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name, "").Set(v)
	}
	r.Histogram("mac/dcf/retries_per_frame", "", []float64{0, 1}).Observe(1)
	return r.Snapshot().FormatText()
}

func TestTelemetryRatios(t *testing.T) {
	var c counts
	// An 802.11 run.
	c.add(telemetryText(map[string]uint64{
		"sched/events_executed": 2400,
		"sched/events_phy":      1500,
		"sched/events_mac":      600,
		"sched/events_routing":  40,
		"phy/tx_frames":         10,
		"phy/rx_ok":             300,
		"phy/rx_collided":       20,
		"phy/rx_captured":       5,
		"phy/rx_while_tx":       25,
		"phy/rx_below_thresh":   400,
		"phy/rx_aborted_by_tx":  50,
		"mac/dcf/tx_data":       12,
		"mac/dcf/retries_total": 2,
		"mac/dcf/drops":         1,
		"aodv/rreq_bytes":       48,
		"aodv/rrep_bytes":       44,
		"tcp/segments_sent":     9,
		"tcp/retransmits":       1,
		"ifq/dropped_total":     3,
	}, map[string]float64{"sched/max_pending": 36}))
	// A TDMA run.
	c.add(telemetryText(map[string]uint64{
		"sched/events_executed": 600,
		"sched/events_phy":      500,
		"sched/events_mac":      90,
		"phy/tx_frames":         10,
		"phy/rx_ok":             200,
		"mac/tdma/idle_slots":   7,
	}, map[string]float64{"sched/max_pending": 12}))

	m := c.metrics(0.5)
	for name, want := range map[string]float64{
		"sim.events":             3000,
		"sim.events_per_frame":   150,
		"sim.max_pending":        36,
		"sim.events_per_s":       6000,
		"phy.tx_frames":          20,
		"phy.arrivals":           1000,
		"phy.below_thresh_share": 0.4,
		"phy.events_per_frame":   100,
		"phy.rx_ok_share":        0.5,
		"mac80211.events":        600,
		"mac80211.retries":       2,
		"mac80211.drops":         1,
		"mactdma.idle_slots":     7,
		"aodv.events":            40,
		"aodv.control_bytes":     92,
		"tcp.segments_sent":      9,
		"tcp.retransmits":        1,
		"queue.drops":            3,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	m := counts{}.metrics(0)
	for _, name := range []string{"sim.events_per_frame", "sim.events_per_s", "phy.rx_ok_share", "phy.below_thresh_share"} {
		if m[name] != 0 {
			t.Errorf("%s = %v on empty counts, want 0", name, m[name])
		}
	}
}
