package scenario

import (
	"fmt"

	"vanetsim/internal/check"
	"vanetsim/internal/ebl"
)

// AuditInvariants runs the end-of-run conservation audits against the
// world's invariant registry and returns every violation recorded during
// the run (seam-time checks included). It is a no-op returning nil when
// checking is disabled. comms are the EBL applications whose transport
// counters should be audited.
//
// The audits are pure observations of counters the simulation maintains
// anyway, so calling (or not calling) this never changes a run's outputs.
func (w *World) AuditInvariants(comms ...*ebl.PlatoonComms) []check.Violation {
	if w.check == nil {
		return nil
	}
	now := w.Sched.Now()

	// PHY conservation: every first-bit arrival a radio was offered must
	// end in exactly one terminal counter, or still be locked in flight at
	// the end of the run.
	for _, r := range w.Channel.Radios() {
		st := r.Stats()
		inFlight := 0
		if r.ReceptionInProgress() {
			inFlight = 1
		}
		terminal := st.RxOK + st.RxCollided + st.RxImpaired + st.RxCaptured +
			st.RxOverlapLost + st.RxWhileTx + st.RxBelowThresh +
			st.RxDroppedOutage + st.RxAbortedByTx
		if st.RxArrivals != terminal+inFlight {
			w.check.Violationf(now, "phy", "rx_conservation",
				"radio %v: %d arrivals != %d accounted (ok %d, collided %d, impaired %d, captured %d, overlap %d, while-tx %d, weak %d, outage %d, aborted %d, in-flight %d)",
				r.ID(), st.RxArrivals, terminal+inFlight,
				st.RxOK, st.RxCollided, st.RxImpaired, st.RxCaptured,
				st.RxOverlapLost, st.RxWhileTx, st.RxBelowThresh,
				st.RxDroppedOutage, st.RxAbortedByTx, inFlight)
		}
	}

	// Channel conservation: every fired arrival event was either
	// frequency-filtered or offered to its destination radio, and no more
	// events fired than were scheduled (the difference is still on the air).
	cs := w.Channel.Stats()
	sumArrivals := 0
	for _, r := range w.Channel.Radios() {
		sumArrivals += r.Stats().RxArrivals
	}
	if cs.Delivered != cs.FilteredFreq+sumArrivals {
		w.check.Violationf(now, "phy", "channel_conservation",
			"channel delivered %d arrivals but radios saw %d and %d were frequency-filtered",
			cs.Delivered, sumArrivals, cs.FilteredFreq)
	}
	if cs.Offered < cs.Delivered {
		w.check.Violationf(now, "phy", "channel_conservation",
			"channel delivered %d arrivals but only %d were offered", cs.Delivered, cs.Offered)
	}

	// Interface-queue conservation per node.
	for _, lq := range w.chkQueues {
		lq.q.Audit(w.check, now, fmt.Sprintf("node %v", lq.id))
	}

	// TCP accounting. Equalities on transmit counts are unsound here —
	// AODV salvage legally duplicates MAC-level deliveries — so only the
	// direction-safe inequalities are audited.
	for _, pc := range comms {
		if pc == nil {
			continue
		}
		for _, f := range pc.Flows() {
			snd, snk := f.Sender.Stats(), f.Sink.Stats()
			unique := snk.SegmentsReceived - snk.Duplicates
			if unique < 0 || unique > snd.SegmentsSent {
				w.check.Violationf(now, "tcp", "segment_conservation",
					"flow to %v: %d unique segments received (recv %d, dup %d) vs %d sent",
					f.Receiver, unique, snk.SegmentsReceived, snk.Duplicates, snd.SegmentsSent)
			}
			if ha := f.Sender.HighestAcked(); ha > unique {
				w.check.Violationf(now, "tcp", "segment_conservation",
					"flow to %v: %d segments acknowledged but only %d unique deliveries",
					f.Receiver, ha, unique)
			}
			if out := f.Sender.Outstanding(); out < 0 {
				w.check.Violationf(now, "tcp", "segment_conservation",
					"flow to %v: negative outstanding window %d", f.Receiver, out)
			}
			if bl := f.Sender.Backlog(); bl < 0 {
				w.check.Violationf(now, "tcp", "segment_conservation",
					"flow to %v: negative backlog %d bytes", f.Receiver, bl)
			}
		}
		// The metrics layer must never have refused a delivery sample.
		if rej := pc.Throughput().Rejected(); rej > 0 {
			w.check.Violationf(now, "ebl", "metric_sample",
				"throughput sampler rejected %d samples", rej)
		}
	}

	return w.check.Violations()
}
