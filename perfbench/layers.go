package main

import (
	"strconv"
	"strings"
)

// counts sums the cross-layer telemetry of the simulations one traced
// pass ran. Every field comes from the counters and gauges the
// simulator already exports (the Telemetry snapshot's text form, which
// the service also embeds in artifacts), so the benchmark reads the
// paper workload, the dense highway and vanetsimd through one parser.
type counts struct {
	Events        float64 // sched/events_executed
	EventsPHY     float64 // sched/events_phy
	EventsDCF     float64 // sched/events_mac of 802.11 runs
	EventsTDMA    float64 // sched/events_mac of TDMA runs
	EventsRouting float64 // sched/events_routing
	MaxPending    float64 // largest sched/max_pending of any run
	TxFrames      float64
	// Arrivals sums the terminal receive outcomes the telemetry exports
	// (ok, collided, captured, while-transmitting, below threshold,
	// aborted by own transmission). Arrivals lost overlapping a locked
	// reception have no exported counter and are not included.
	Arrivals    float64
	RxOK        float64
	BelowThresh float64
	DCFRetries  float64
	DCFDrops    float64
	TDMAIdle    float64
	AODVBytes   float64 // RREQ + RREP + RERR + hello bytes
	TCPSegments float64
	TCPRetx     float64
	IfqDrops    float64
}

// parseTelemetry reads the counter and gauge sections of a snapshot's
// FormatText output into name → value (a gauge's current value).
func parseTelemetry(text string) map[string]float64 {
	out := make(map[string]float64)
	section := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "counter", "gauge", "histogram", "series":
			section = f[0]
			continue
		}
		if section != "counter" && section != "gauge" {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out
}

// add folds one run's telemetry text into the totals.
func (c *counts) add(text string) {
	m := parseTelemetry(text)
	c.Events += m["sched/events_executed"]
	c.EventsPHY += m["sched/events_phy"]
	if _, dcf := m["mac/dcf/tx_data"]; dcf {
		c.EventsDCF += m["sched/events_mac"]
	} else {
		c.EventsTDMA += m["sched/events_mac"]
	}
	c.EventsRouting += m["sched/events_routing"]
	if p := m["sched/max_pending"]; p > c.MaxPending {
		c.MaxPending = p
	}
	c.TxFrames += m["phy/tx_frames"]
	for _, k := range []string{"phy/rx_ok", "phy/rx_collided", "phy/rx_captured", "phy/rx_while_tx", "phy/rx_below_thresh", "phy/rx_aborted_by_tx"} {
		c.Arrivals += m[k]
	}
	c.RxOK += m["phy/rx_ok"]
	c.BelowThresh += m["phy/rx_below_thresh"]
	c.DCFRetries += m["mac/dcf/retries_total"]
	c.DCFDrops += m["mac/dcf/drops"]
	c.TDMAIdle += m["mac/tdma/idle_slots"]
	for _, k := range []string{"aodv/rreq_bytes", "aodv/rrep_bytes", "aodv/rerr_bytes", "aodv/hello_bytes"} {
		c.AODVBytes += m[k]
	}
	c.TCPSegments += m["tcp/segments_sent"]
	c.TCPRetx += m["tcp/retransmits"]
	c.IfqDrops += m["ifq/dropped_total"]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the telemetry-derived per-layer metrics. simWallS is
// the wall time spent inside simulating calls, the base of
// sim.events_per_s.
func (c counts) metrics(simWallS float64) map[string]float64 {
	return map[string]float64{
		"sim.events":             c.Events,
		"sim.events_per_frame":   ratio(c.Events, c.TxFrames),
		"sim.max_pending":        c.MaxPending,
		"sim.events_per_s":       ratio(c.Events, simWallS),
		"phy.tx_frames":          c.TxFrames,
		"phy.arrivals":           c.Arrivals,
		"phy.below_thresh_share": ratio(c.BelowThresh, c.Arrivals),
		"phy.events_per_frame":   ratio(c.EventsPHY, c.TxFrames),
		"phy.rx_ok_share":        ratio(c.RxOK, c.Arrivals),
		"mac80211.events":        c.EventsDCF,
		"mac80211.retries":       c.DCFRetries,
		"mac80211.drops":         c.DCFDrops,
		"mactdma.idle_slots":     c.TDMAIdle,
		"aodv.events":            c.EventsRouting,
		"aodv.control_bytes":     c.AODVBytes,
		"tcp.segments_sent":      c.TCPSegments,
		"tcp.retransmits":        c.TCPRetx,
		"queue.drops":            c.IfqDrops,
	}
}
