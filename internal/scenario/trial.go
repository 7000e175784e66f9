package scenario

import (
	"fmt"
	"time"

	"vanetsim/internal/anim"
	"vanetsim/internal/check"
	"vanetsim/internal/ebl"
	"vanetsim/internal/fault"
	"vanetsim/internal/geom"
	"vanetsim/internal/metrics"
	"vanetsim/internal/mobility"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
	"vanetsim/internal/trace"
)

// TrialConfig describes one run of the paper's intersection scenario. The
// fixed parameters (drop-tail priority ifq, AODV, 50 mph) and the variable
// ones (MAC type, packet size) match §III.A.
type TrialConfig struct {
	Name       string
	MAC        MACType
	PacketSize int // bytes per brake-status packet

	// Scenario geometry and choreography.
	SpeedMS      float64   // cruise speed (paper: 22.4 m/s = 50 mph)
	SpacingM     float64   // inter-vehicle separation (paper: 25 m)
	ApproachM    float64   // platoon 1's initial distance from the intersection
	Duration     sim.Time  // simulated time
	PlatoonSize  int       // vehicles per platoon (paper: 3)
	DepartDistM  float64   // how far platoon 2 drives away
	RateBps      float64   // offered CBR load per flow
	TDMARateBps  float64   // TDMA radio bit rate (calibration: 1 Mb/s)
	QueueCap     int       // interface queue length (ns-2 default: 50)
	Queue        QueueType // interface queue flavour (default: PriQueue)
	TCPWindow    float64   // TCP max congestion window in segments (0 = ns-2 default 20)
	ThroughputBn sim.Time  // throughput record interval
	Seed         uint64
	SINRPhy      bool // aggregate-interference PHY instead of pairwise capture
	CollectTrace bool // also record an agent-level trace
	// Telemetry enables the cross-layer observability registry; the
	// snapshot lands on TrialResult.Telemetry. Observation-only: the same
	// seed yields identical traces and figures with it on or off.
	Telemetry bool
	// AnimInterval enables position recording (the Nam-animator role)
	// with the given sample period; 0 disables it.
	AnimInterval sim.Time
	// Check arms the runtime invariant checker: layer seams audit packet
	// conservation, slot exclusivity, route sanity and event monotonicity,
	// and the violations land on TrialResult.Violations. Observation-only:
	// the same seed yields identical outputs with it on or off. The
	// `checkall` build tag forces it on regardless of this field.
	Check bool
	// Spans arms causal per-packet span tracing: every datagram's lifecycle
	// (emit, queue, MAC wait, airtime, loss or delivery) lands on
	// TrialResult.Spans in scheduler order. Observation-only: the same seed
	// yields identical traces and figures with it on or off.
	Spans bool
	// Faults is the impairment recipe (packet/bit error models, bursty
	// loss, shadowing, scheduled outages). The zero value injects nothing:
	// an unfaulted run is byte-identical with or without this field.
	Faults fault.Plan
}

// defaultTrial fills the fixed parameters shared by all three trials.
func defaultTrial(name string, mac MACType, pktSize int) TrialConfig {
	return TrialConfig{
		Name:        name,
		MAC:         mac,
		PacketSize:  pktSize,
		SpeedMS:     ebl.MPHToMS(50), // 22.4 m/s
		SpacingM:    25,
		ApproachM:   448, // 20 s of travel at 22.4 m/s
		Duration:    200,
		PlatoonSize: 3,
		// Far enough that platoon 2 is still driving when the run ends, so
		// it stays silent after departing, as in the paper's figures.
		DepartDistM:  5000,
		RateBps:      1.4e6,
		TDMARateBps:  1e6,
		QueueCap:     50,
		Queue:        QueuePri,
		ThroughputBn: 0.5,
		Seed:         1,
	}
}

// Trial1 is the paper's base trial: TDMA MAC, 1,000-byte packets.
func Trial1() TrialConfig { return defaultTrial("trial1", MACTDMA, 1000) }

// Trial2 varies packet size: TDMA MAC, 500-byte packets.
func Trial2() TrialConfig { return defaultTrial("trial2", MACTDMA, 500) }

// Trial3 varies the MAC: 802.11, 1,000-byte packets.
func Trial3() TrialConfig { return defaultTrial("trial3", MAC80211, 1000) }

// PlatoonResult exposes one platoon's mobility, application, and
// measurements after a run.
type PlatoonResult struct {
	Platoon *mobility.Platoon
	Comms   *ebl.PlatoonComms
}

// MiddleDelays returns the delay series of the flow to the middle vehicle.
func (p *PlatoonResult) MiddleDelays() *metrics.DelaySeries {
	return p.Comms.Flows()[0].Delays
}

// TrailingDelays returns the delay series of the flow to the trailing
// vehicle.
func (p *PlatoonResult) TrailingDelays() *metrics.DelaySeries {
	flows := p.Comms.Flows()
	return flows[len(flows)-1].Delays
}

// AllDelays returns every flow's delays concatenated in arrival order per
// flow (middle first) — used for platoon-level delay summaries.
func (p *PlatoonResult) AllDelays() []*metrics.DelaySeries {
	out := make([]*metrics.DelaySeries, 0, len(p.Comms.Flows()))
	for _, f := range p.Comms.Flows() {
		out = append(out, f.Delays)
	}
	return out
}

// Throughput returns the platoon-aggregate throughput sampler.
func (p *PlatoonResult) Throughput() *metrics.Throughput { return p.Comms.Throughput() }

// TrialResult is everything a trial run produced.
type TrialResult struct {
	Config   TrialConfig
	World    *World
	Platoon1 *PlatoonResult
	Platoon2 *PlatoonResult
	Trace    []trace.Record // nil unless CollectTrace
	Anim     *anim.Recorder // nil unless AnimInterval > 0
	// Telemetry is the cross-layer metrics snapshot (nil unless
	// Config.Telemetry).
	Telemetry *obs.Snapshot
	// Violations are the invariant violations recorded during a checked run
	// (nil unless checking was armed; empty means the run was clean).
	Violations []check.Violation
	// Spans is the causal per-packet event stream in scheduler order (nil
	// unless Config.Spans).
	Spans []span.Event
	// WallSeconds is the host wall-clock cost of the run. It is the only
	// host-dependent field and feeds no simulation output.
	WallSeconds float64
}

// RunTrial executes the paper's scenario under cfg and returns the
// measurements.
//
// Choreography (paper Figs. 1–2): platoon 2 sits stopped at the
// intersection, communicating, while platoon 1 approaches vertically at
// cruise speed. When platoon 1 reaches the intersection it halts and
// begins communicating; platoon 2 simultaneously departs horizontally and
// stops communicating.
func RunTrial(cfg TrialConfig) *TrialResult {
	if cfg.PlatoonSize < 2 {
		panic("scenario: platoon needs a lead and at least one follower")
	}
	stack := DefaultStackConfig(cfg.MAC)
	stack.QueueCap = cfg.QueueCap
	stack.Queue = cfg.Queue
	if cfg.TDMARateBps > 0 {
		stack.TDMA.DataRateBps = cfg.TDMARateBps
	}
	stack.Radio.SINRMode = cfg.SINRPhy
	stack.Faults = cfg.Faults
	if cfg.Telemetry {
		stack.Obs = obs.NewRegistry()
	}
	if cfg.Check || check.ForceAll {
		stack.Check = check.New()
	}
	if cfg.Spans {
		stack.Spans = span.NewRecorder()
	}
	w := NewWorld(stack, cfg.Seed)
	s := w.Sched
	wallStart := time.Now()

	// Platoon 1 approaches the intersection from the south in its own
	// lane (x = 5 m), lead first.
	p1Start := geom.V(5, -cfg.ApproachM)
	p1 := mobility.NewPlatoon(s, 0, cfg.PlatoonSize, p1Start, geom.V(0, 1), cfg.SpacingM)
	// Platoon 2 sits at the intersection heading east.
	first2 := packet.NodeID(cfg.PlatoonSize)
	p2 := mobility.NewPlatoon(s, first2, cfg.PlatoonSize, geom.V(0, 0), geom.V(1, 0), cfg.SpacingM)

	// Stacks. TDMA slot order is node-ID order, as in ns-2.
	addStacks := func(p *mobility.Platoon) []*netlayer.Net {
		nets := make([]*netlayer.Net, 0, p.Len())
		for _, v := range p.Vehicles() {
			v := v
			n := w.AddVehicleNode(v)
			nets = append(nets, n.Net)
		}
		return nets
	}
	nets1 := addStacks(p1)
	nets2 := addStacks(p2)

	// Start platoon 1 moving *before* wiring comms so its application
	// correctly begins silent.
	p1.SetDest(geom.V(5, 0), cfg.SpeedMS)

	var tracer *trace.Collector
	if cfg.CollectTrace {
		tracer = trace.NewCollector(nil)
	}
	comms := func(p *mobility.Platoon, nets []*netlayer.Net, basePort int) *ebl.PlatoonComms {
		c := ebl.DefaultCommsConfig()
		c.PacketSize = cfg.PacketSize
		c.RateBps = cfg.RateBps
		c.BasePort = basePort
		c.ThroughputBin = cfg.ThroughputBn
		c.Obs = stack.Obs
		c.Spans = stack.Spans
		if stack.Check != nil {
			c.Check = check.NewEnvelope(stack.Check, envelopeRate(stack))
		}
		if cfg.TCPWindow > 0 {
			c.TCP.MaxCwnd = cfg.TCPWindow
		}
		return ebl.NewPlatoonComms(s, p, nets, w.PF, c, tracer)
	}
	comms1 := comms(p1, nets1, 1000)
	comms2 := comms(p2, nets2, 2000)

	var rec *anim.Recorder
	if cfg.AnimInterval > 0 {
		rec = anim.NewRecorder(s, cfg.AnimInterval)
		for _, v := range append(append([]*mobility.Vehicle{}, p1.Vehicles()...), p2.Vehicles()...) {
			rec.Track(v.ID(), v.Position)
		}
		rec.Start(cfg.Duration)
	}

	// When platoon 1 halts at the intersection, platoon 2 departs.
	p1.Lead().Subscribe(func(e mobility.Event) {
		if e.Type == mobility.EventStopped {
			p2.SetDest(geom.V(cfg.DepartDistM, 0), cfg.SpeedMS)
		}
	})

	// Epoch batching drains each equal-timestamp cohort in one structural
	// heap repair — byte-for-byte the execution RunUntil produces.
	s.RunEpochs(cfg.Duration)

	res := &TrialResult{
		Config:   cfg,
		World:    w,
		Platoon1: &PlatoonResult{Platoon: p1, Comms: comms1},
		Platoon2: &PlatoonResult{Platoon: p2, Comms: comms2},
	}
	if tracer != nil {
		res.Trace = tracer.Records()
	}
	res.Anim = rec
	res.Telemetry = w.HarvestTelemetry(comms1, comms2)
	res.Violations = w.AuditInvariants(comms1, comms2)
	res.Spans = stack.Spans.Events()
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res
}

// envelopeRate picks the radio bit rate the EBL delay envelope is checked
// against: the active MAC's data rate.
func envelopeRate(stack StackConfig) float64 {
	if stack.MAC == MAC80211 {
		return stack.DCF.DataRateBps
	}
	return stack.TDMA.DataRateBps
}

// String summarises the configuration.
func (c TrialConfig) String() string {
	return fmt.Sprintf("%s{mac=%v pkt=%dB}", c.Name, c.MAC, c.PacketSize)
}
