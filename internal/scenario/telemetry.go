package scenario

import (
	"vanetsim/internal/ebl"
	"vanetsim/internal/obs"
	"vanetsim/internal/sim"
)

// Telemetry instrumentation strategy: monotonic event counts are harvested
// once, after the run, from the Stats structs every layer already keeps —
// harvesting cannot perturb the simulation by construction. Only
// distributions and time series (which need to see individual events) use
// live instruments, and those are nil-safe no-ops when telemetry is off.

// DurationBuckets are the histogram bounds (seconds) shared by the latency
// instruments, spanning the microsecond MAC scale through the multi-second
// queueing plateau of the paper's delay figures.
var DurationBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30,
}

// RetryBuckets cover 802.11's retry counter (RetryLimit defaults keep it
// single-digit).
var RetryBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 7}

// occupancyBin is the IFQ occupancy time-series resolution, matching the
// paper's 0.5 s throughput record interval.
const occupancyBin = sim.Time(0.5)

// liveInstruments holds the event-level instruments a world wires into its
// stacks. Every field is a nil-safe no-op when telemetry is disabled, so
// the wiring is unconditional and only the queue decorator is gated.
type liveInstruments struct {
	dcfBackoffWait *obs.Histogram
	dcfRetries     *obs.Histogram
	dcfService     *obs.Histogram
	tdmaSlotWait   *obs.Histogram
	ifqOccupancy   *obs.Gauge
	ifqEnqueued    *obs.Counter
	ifqOccSeries   *obs.Series
}

func newLiveInstruments(r *obs.Registry, mac MACType) liveInstruments {
	li := liveInstruments{
		ifqOccupancy: r.Gauge("ifq/occupancy_pkts",
			"interface-queue occupancy across all nodes"),
		ifqEnqueued: r.Counter("ifq/enqueued_total",
			"packets accepted by interface queues"),
		ifqOccSeries: r.Series("ifq/occupancy_series",
			"time-binned interface-queue occupancy", occupancyBin),
	}
	// Only the active MAC's instruments are registered, so a DCF run's
	// report carries no empty TDMA histogram and vice versa.
	switch mac {
	case MACTDMA:
		li.tdmaSlotWait = r.Histogram("mac/tdma/slot_wait_s",
			"head-of-line wait for the node's own TDMA slot", DurationBuckets)
	case MAC80211:
		li.dcfBackoffWait = r.Histogram("mac/dcf/backoff_wait_s",
			"time spent in backoff before each transmission attempt", DurationBuckets)
		li.dcfRetries = r.Histogram("mac/dcf/retries_per_frame",
			"retransmission attempts per completed frame", RetryBuckets)
		li.dcfService = r.Histogram("mac/dcf/service_time_s",
			"head-of-line time from Poke to MAC completion", DurationBuckets)
	}
	return li
}

// HarvestTelemetry folds every layer's post-run statistics and the
// scheduler's execution profile into the world's registry and returns the
// snapshot. comms lists the platoon TCP endpoints to summarise. It returns
// nil when telemetry is disabled. The snapshot is a pure function of the
// run: no host-clock value flows into it, so the same seed produces
// byte-identical reports on any machine (host-clock cost lives on the
// result structs' WallSeconds fields instead).
func (w *World) HarvestTelemetry(comms ...*ebl.PlatoonComms) *obs.Snapshot {
	r := w.Obs
	if !r.Enabled() {
		return nil
	}

	add := func(name, help string, n int) {
		if n < 0 {
			n = 0
		}
		r.Counter(name, help).Add(uint64(n))
	}

	// PHY, summed over every attached radio.
	for _, n := range w.Nodes {
		ps := n.Radio.Stats()
		add("phy/tx_frames", "frames transmitted by radios", ps.TxFrames)
		add("phy/rx_ok", "frames delivered intact", ps.RxOK)
		add("phy/rx_collided", "frames corrupted by collision", ps.RxCollided)
		add("phy/rx_captured", "interferers suppressed by capture", ps.RxCaptured)
		add("phy/rx_while_tx", "arrivals lost to half-duplex transmission", ps.RxWhileTx)
		add("phy/rx_below_thresh", "arrivals below the receive threshold", ps.RxBelowThresh)
		add("phy/rx_aborted_by_tx", "in-progress receptions destroyed by own transmission", ps.RxAbortedByTx)

		add("ifq/dropped_total", "packets dropped by interface queues", n.Ifq.Drops())

		ns := n.Net.Stats()
		add("net/sent", "locally originated packets handed to routing", ns.Sent)
		add("net/delivered", "packets delivered to a local port", ns.Delivered)
		add("net/no_port", "local deliveries with no bound handler", ns.NoPort)

		as := n.AODV.Stats()
		add("aodv/rreq_originated", "route requests originated", as.RREQOriginated)
		add("aodv/rreq_forwarded", "route requests rebroadcast", as.RREQForwarded)
		add("aodv/rreq_stale", "route requests discarded for outliving the dedup window", as.RREQStale)
		add("aodv/rrep_originated", "route replies originated", as.RREPOriginated)
		add("aodv/rrep_forwarded", "route replies forwarded", as.RREPForwarded)
		add("aodv/rerr_sent", "route errors sent", as.RERRSent)
		add("aodv/hellos_sent", "hello beacons sent", as.HellosSent)
		add("aodv/rreq_bytes", "bytes of RREQ traffic offered to the stack", as.RREQBytes)
		add("aodv/rrep_bytes", "bytes of RREP traffic offered to the stack", as.RREPBytes)
		add("aodv/rerr_bytes", "bytes of RERR traffic offered to the stack", as.RERRBytes)
		add("aodv/hello_bytes", "bytes of hello traffic offered to the stack", as.HelloBytes)
		add("aodv/data_no_route", "data packets lacking a route", as.DataNoRoute)
		add("aodv/buffered_dropped", "buffered packets abandoned after failed discovery", as.BufferedDropped)
		add("aodv/link_breaks", "MAC-reported link failures", as.LinkBreaks)

		switch {
		case n.TDMA != nil:
			ms := n.TDMA.Stats()
			add("mac/tdma/tx_data", "frames transmitted", ms.TxData)
			add("mac/tdma/rx_delivered", "frames delivered upward", ms.RxDelivered)
			add("mac/tdma/rx_corrupted", "collision-damaged frames discarded", ms.RxCorrupted)
			add("mac/tdma/rx_filtered", "overheard frames addressed elsewhere", ms.RxFiltered)
			add("mac/tdma/idle_slots", "own slots that began with an empty queue", ms.IdleSlots)
		case n.DCF != nil:
			ms := n.DCF.Stats()
			add("mac/dcf/tx_data", "data transmissions including retries", ms.TxData)
			add("mac/dcf/tx_ack", "acknowledgements sent", ms.TxAck)
			add("mac/dcf/tx_rts", "RTS frames sent", ms.TxRTS)
			add("mac/dcf/tx_cts", "CTS responses sent", ms.TxCTS)
			add("mac/dcf/retries_total", "retransmission attempts", ms.Retries)
			add("mac/dcf/drops", "frames dropped after the retry limit", ms.Drops)
			add("mac/dcf/rx_delivered", "frames delivered upward", ms.RxDelivered)
			add("mac/dcf/rx_dup", "duplicate data frames suppressed", ms.RxDup)
			add("mac/dcf/rx_corrupted", "collision-damaged frames discarded", ms.RxCorrupted)
		}
	}

	// Transport, summed over every EBL flow.
	for _, pc := range comms {
		for _, f := range pc.Flows() {
			ts := f.Sender.Stats()
			add("tcp/segments_sent", "first transmissions of TCP segments", ts.SegmentsSent)
			add("tcp/retransmits", "TCP retransmissions", ts.Retransmits)
			add("tcp/timeouts", "TCP retransmission timeouts", ts.Timeouts)
			add("tcp/fast_retransmits", "TCP fast retransmits", ts.FastRetransmits)
			add("tcp/acks_received", "acknowledgements received by senders", ts.AcksReceived)
			add("tcp/dup_acks", "duplicate acknowledgements received", ts.DupAcks)
		}
	}

	// Fault layer — registered only when a plan is active, so an unfaulted
	// run's telemetry export is byte-identical to one built without the
	// fault package at all.
	if w.cfg.Faults.Enabled() {
		var rxOut, txOut, imp int
		for _, n := range w.Nodes {
			ps := n.Radio.Stats()
			rxOut += ps.RxDroppedOutage
			txOut += ps.TxSuppressedOutage
			imp += ps.RxImpaired
		}
		add("fault/rx_impaired", "intact receptions destroyed by error models", imp)
		add("fault/rx_dropped_outage", "arrivals and in-progress receptions lost to radio outages", rxOut)
		add("fault/tx_suppressed_outage", "transmissions suppressed while a radio was down", txOut)
		fs := w.FaultStats()
		add("fault/rx_dropped_bernoulli", "frames destroyed by the Bernoulli error model", fs.DroppedBernoulli)
		add("fault/rx_dropped_burst", "frames destroyed by Gilbert–Elliott bursts", fs.DroppedBurst)
		add("fault/rx_dropped_data_frames", "destroyed frames carrying transport or application data", fs.DroppedData)
		add("fault/burst_transitions", "Gilbert–Elliott state flips across all links", fs.BurstTransitions)
		if w.shadow != nil {
			r.Counter("fault/shadow_samples", "log-normal shadowing draws").Add(w.shadow.Samples())
		}
		r.Gauge("fault/outage_seconds", "scheduled radio-down time within the run").
			Set(w.cfg.Faults.OutageSeconds(w.Sched.Now()))
	}

	// Scheduler execution profile.
	s := w.Sched
	r.Counter("sched/events_executed", "events fired by the scheduler").Add(s.Executed())
	for k, n := range s.ExecutedByKind() {
		if n == 0 {
			continue
		}
		r.Counter("sched/events_"+kindSlug(sim.EventKind(k)),
			"events fired, by scheduling layer").Add(n)
	}
	r.Gauge("sched/max_pending", "pending-heap high-water mark").
		Set(float64(s.MaxPending()))

	r.Gauge("run/sim_seconds", "simulated time covered by the run").
		Set(float64(s.Now()))

	return r.Snapshot()
}

// kindSlug lower-cases an EventKind for metric names.
func kindSlug(k sim.EventKind) string {
	switch k {
	case sim.KindPHY:
		return "phy"
	case sim.KindMAC:
		return "mac"
	case sim.KindRouting:
		return "routing"
	case sim.KindTransport:
		return "transport"
	case sim.KindApp:
		return "app"
	case sim.KindMobility:
		return "mobility"
	case sim.KindObs:
		return "obs"
	default:
		return "other"
	}
}
