package scenario

import (
	"fmt"
	"time"

	"vanetsim/internal/app"
	"vanetsim/internal/check"
	"vanetsim/internal/ebl"
	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// DenseHighwayConfig describes the scaling scenario: a multi-lane highway
// carrying hundreds to thousands of vehicles organised into per-lane
// platoons, under a heterogeneous traffic mix — periodic beacon datagrams
// from a configurable fraction of vehicles plus event-triggered safety
// streams from each platoon lead to its near followers once it brakes.
// It is the workload the channel's spatial-index culling exists for: at
// 25 m spacing a transmitter's carrier-sense disc holds a few dozen
// radios regardless of how many thousands share the road.
type DenseHighwayConfig struct {
	MAC        MACType
	Vehicles   int     // total vehicle count across all lanes
	Lanes      int     // parallel lanes along +x
	PlatoonLen int     // vehicles per platoon (last platoon per lane may be shorter)
	SpacingM   float64 // intra-platoon following distance
	GapM       float64 // extra gap between consecutive platoons in a lane
	LaneWidthM float64
	SpeedMS    float64
	DecelMS2   float64
	CarLengthM float64

	// SafetyDepth is how many of each platoon's nearest followers receive
	// the lead's brake-triggered safety stream; 0 or negative means every
	// follower. Followers beyond the depth get no indication and brake
	// only by luck — their collisions measure the coverage gap.
	SafetyDepth int
	PacketSize  int     // safety segment payload bytes
	RateBps     float64 // safety stream offered rate per flow

	// BeaconFraction of vehicles (deterministically every k-th by ID)
	// source periodic beacon datagrams to the vehicle directly ahead in
	// their lane (the lane's front vehicle beacons backward), with start
	// phases staggered by the run's forked RNG so the load spreads over
	// the beacon interval instead of arriving in lockstep.
	BeaconFraction float64
	BeaconSize     int
	BeaconRateBps  float64
	// BeaconJitter desynchronises the beacon sources' send intervals: each
	// source's interval is scaled by a deterministic per-vehicle factor in
	// [1-BeaconJitter, 1+BeaconJitter), drawn from the run seed's
	// dense/beacon stream. 0 (the default) keeps every source on the exact
	// nominal interval — and, drawing nothing extra, keeps the run
	// byte-identical to configs predating the knob. Must be in [0, 1).
	BeaconJitter float64

	TDMARateBps float64  // TDMA radio rate override (0 = package default)
	ReactionS   sim.Time // driver reaction after the indication arrives
	BrakeAt     sim.Time // when every platoon lead brakes
	Duration    sim.Time
	QueueCap    int
	Seed        uint64
	Telemetry   bool // collect a cross-layer metrics snapshot
	Check       bool // arm the runtime invariant checker (observation-only)
	Spans       bool // arm causal span tracing (observation-only)
	// DisableCulling runs the same workload on the channel's full-receiver
	// scan, for culled-vs-scan equivalence tests and scaling benchmarks.
	DisableCulling bool
}

// DefaultDenseHighway returns an n-vehicle four-lane run on the given MAC:
// 25 m platoons of ten, every follower covered by its lead's safety
// stream, and a quarter of the fleet beaconing at 10 Hz.
func DefaultDenseHighway(mac MACType, n int) DenseHighwayConfig {
	return DenseHighwayConfig{
		MAC:            mac,
		Vehicles:       n,
		Lanes:          4,
		PlatoonLen:     10,
		SpacingM:       25,
		GapM:           50,
		LaneWidthM:     3.7,
		SpeedMS:        ebl.MPHToMS(50),
		DecelMS2:       6,
		CarLengthM:     4.5,
		SafetyDepth:    0, // all followers
		PacketSize:     500,
		RateBps:        200e3,
		BeaconFraction: 0.25,
		BeaconSize:     200,
		BeaconRateBps:  1.6e3, // 200 B at 1 Hz
		TDMARateBps:    1e6,
		ReactionS:      0.7,
		BrakeAt:        5,
		Duration:       30,
		QueueCap:       50,
		Seed:           1,
	}
}

// DenseHighwayResult is a completed dense-highway run.
type DenseHighwayResult struct {
	Config DenseHighwayConfig
	World  *World
	// Indications holds one entry per follower of every platoon, in
	// vehicle-ID order. Followers outside the safety depth report
	// IndicationDelay = -1 (never notified).
	Indications []BrakeIndication
	Collisions  int // rear-end collisions, counted per lane ordering
	Platoons    int

	// Traffic-mix delivery totals.
	SafetySent, SafetyReceived int
	BeaconSent, BeaconReceived int
	// RxCollided sums frames delivered corrupted across every radio — the
	// medium-contention signal that grows with density.
	RxCollided int
	Channel    phy.ChannelStats

	// Telemetry is the metrics snapshot (nil unless Config.Telemetry).
	Telemetry *obs.Snapshot
	// Violations are the invariant violations of a checked run (nil unless
	// checking was armed; empty means clean).
	Violations []check.Violation
	// Spans is the causal per-packet event stream (nil unless Config.Spans).
	Spans []span.Event
	// WallSeconds is the host wall-clock cost of the run (host-dependent,
	// never feeds simulation output).
	WallSeconds float64
}

// densePlatoon is one platoon's wiring during a dense run.
type densePlatoon struct {
	platoon *mobility.Platoon
	lane    int
	comms   *ebl.PlatoonComms
}

// RunDenseHighway executes the dense multi-lane scaling scenario.
func RunDenseHighway(cfg DenseHighwayConfig) (*DenseHighwayResult, error) {
	switch {
	case cfg.Vehicles < 2:
		return nil, fmt.Errorf("scenario: dense highway needs at least two vehicles, got %d", cfg.Vehicles)
	case cfg.Lanes < 1:
		return nil, fmt.Errorf("scenario: dense highway needs at least one lane, got %d", cfg.Lanes)
	case cfg.PlatoonLen < 2:
		return nil, fmt.Errorf("scenario: dense highway needs platoons of at least two, got %d", cfg.PlatoonLen)
	case cfg.BeaconFraction < 0 || cfg.BeaconFraction > 1:
		return nil, fmt.Errorf("scenario: beacon fraction must be in [0,1], got %v", cfg.BeaconFraction)
	case cfg.BeaconJitter < 0 || cfg.BeaconJitter >= 1:
		return nil, fmt.Errorf("scenario: beacon jitter must be in [0,1), got %v", cfg.BeaconJitter)
	}
	stack := DefaultStackConfig(cfg.MAC)
	stack.QueueCap = cfg.QueueCap
	stack.DisableCulling = cfg.DisableCulling
	if cfg.TDMARateBps > 0 {
		stack.TDMA.DataRateBps = cfg.TDMARateBps
	}
	// Every flow in this scenario targets a direct neighbor (platoon
	// members sit well inside radio range), so discovery opens with the
	// RFC 3561 TTL_START=1 ring: the destination answers the first hop and
	// no one rebroadcasts. The default five-hop opening ring would blanket
	// the fleet — ~45 in-range rebroadcasters per flood — and at TDMA's
	// ~81 network-wide slots/s the floods alone would exceed the entire
	// slot budget of the run. The expanding ring still reaches farther
	// destinations if a scenario variant ever needs them.
	if stack.AODV.TTLStart > 1 {
		stack.AODV.TTLStart = 1
	}
	if cfg.MAC == MACTDMA {
		// AODV's default traversal estimate assumes a millisecond MAC. A
		// TDMA frame spans one slot per vehicle, so at dense fleet sizes a
		// single hop takes seconds; left alone, the ring-search timeout
		// (2·TTL·traversal) expires before any RREP can physically return
		// and routing never converges. Scale the discovery timers to the
		// frame, and the flood lifetime with them.
		frame := stack.TDMA.SlotDuration() * sim.Time(cfg.Vehicles)
		if frame > stack.AODV.NodeTraversalTime {
			stack.AODV.NodeTraversalTime = frame
		}
		if t := 3 * frame; t > stack.AODV.BcastIDSave {
			stack.AODV.BcastIDSave = t
		}
	}
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

	// Lay the fleet out lane by lane, each lane a chain of platoons along
	// +x with the lead of the first platoon at the front. A remainder of
	// one vehicle folds into the lane's last platoon (platoons need two).
	perLane := cfg.Vehicles / cfg.Lanes
	extra := cfg.Vehicles % cfg.Lanes
	var (
		platoons  []*densePlatoon
		nodeOf    = make(map[packet.NodeID]*Node, cfg.Vehicles)
		vehicleOf = make(map[packet.NodeID]*mobility.Vehicle, cfg.Vehicles)
		laneOrder = make([][]*mobility.Vehicle, cfg.Lanes) // front to back
		nextID    packet.NodeID
		frontX    = float64(cfg.Vehicles) * (cfg.SpacingM + cfg.GapM) // room to brake at positive x
	)
	for lane := 0; lane < cfg.Lanes; lane++ {
		count := perLane
		if lane < extra {
			count++
		}
		y := float64(lane) * cfg.LaneWidthM
		backX := frontX
		for count >= 2 {
			size := cfg.PlatoonLen
			if count < 2*cfg.PlatoonLen && count > cfg.PlatoonLen {
				// Splitting would leave a sub-two remainder platoon only if
				// count-PlatoonLen < 2; fold such a remainder in instead.
				if count-cfg.PlatoonLen < 2 {
					size = count
				}
			} else if count <= cfg.PlatoonLen {
				size = count
			}
			p := mobility.NewPlatoon(s, nextID, size, geom.V(backX, y), geom.V(1, 0), cfg.SpacingM)
			nextID += packet.NodeID(size)
			backX -= float64(size)*cfg.SpacingM + cfg.GapM
			dp := &densePlatoon{platoon: p, lane: lane}
			platoons = append(platoons, dp)
			for _, v := range p.Vehicles() {
				nodeOf[v.ID()] = w.AddVehicleNode(v)
				vehicleOf[v.ID()] = v
				laneOrder[lane] = append(laneOrder[lane], v)
			}
			count -= size
		}
		if count == 1 {
			// A lane with a single leftover vehicle (tiny totals): park it
			// as a stackless obstacle is overkill — drop it from the run.
			return nil, fmt.Errorf("scenario: lane %d left with a single vehicle; pick Vehicles/Lanes >= 2", lane)
		}
	}

	// Cruise before wiring comms: a freshly built platoon is stopped, and
	// stopped means Communicating() — comms built first would start their
	// flows at t=0 and the orphan head-of-window segments would wedge
	// every TCP window until their multi-second queue residency ends.
	for _, dp := range platoons {
		dp.platoon.SetDest(geom.V(1e7, float64(dp.lane)*cfg.LaneWidthM), cfg.SpeedMS)
	}

	// Safety streams: each platoon runs the EBL lead-to-followers comms
	// stack — TCP flows that transmit only while the lead brakes. TCP's
	// window keeps the interface queues shallow enough for AODV discovery
	// to complete even when the TDMA frame stretches across hundreds of
	// slots; one-shot datagram streams at these fleet sizes just bury the
	// control traffic and nothing ever gets through. Flows beyond
	// SafetyDepth are muted right after every (re)start, so uncovered
	// followers stay dark.
	firstAt := make(map[packet.NodeID]sim.Time, cfg.Vehicles)
	for _, dp := range platoons {
		c := ebl.DefaultCommsConfig()
		c.PacketSize = cfg.PacketSize
		c.RateBps = cfg.RateBps
		c.Obs = stack.Obs
		c.Spans = stack.Spans
		if stack.Check != nil {
			c.Check = check.NewEnvelope(stack.Check, envelopeRate(stack))
		}
		nets := make([]*netlayer.Net, 0, dp.platoon.Len())
		for _, v := range dp.platoon.Vehicles() {
			nets = append(nets, nodeOf[v.ID()].Net)
		}
		dp.comms = ebl.NewPlatoonComms(s, dp.platoon, nets, w.PF, c, nil)
		depth := cfg.SafetyDepth
		if depth <= 0 || depth > len(dp.comms.Flows()) {
			depth = len(dp.comms.Flows())
		}
		if muted := dp.comms.Flows()[depth:]; len(muted) > 0 {
			// Subscribed after NewPlatoonComms's own sync hook, so this
			// runs after the comms stack has (re)started its flows.
			dp.platoon.Lead().Subscribe(func(mobility.Event) {
				for _, f := range muted {
					f.CBR.Stop()
					f.Sender.ClearBacklog()
				}
			})
		}
		dp.comms.OnDeliver(func(f *ebl.Flow, _ *packet.Packet, at sim.Time) {
			if at < cfg.BrakeAt {
				return
			}
			if _, seen := firstAt[f.Receiver]; seen {
				return
			}
			firstAt[f.Receiver] = at
			fv := vehicleOf[f.Receiver]
			s.Schedule(cfg.ReactionS, func() { fv.Brake(cfg.DecelMS2) })
		})
	}

	// Beacon mix: every k-th vehicle unicasts periodic beacons to the
	// vehicle directly ahead in its lane (the lane's front vehicle beacons
	// backward), with a deterministic RNG-staggered start phase. Adjacent
	// targets keep every destination one hop away and spread the
	// route-discovery answering load across the fleet — aiming everything
	// at the platoon leads starves their slots for the safety streams.
	var beaconSources []*app.UDPSource
	var beaconSinks []*app.UDPSink
	if cfg.BeaconFraction > 0 {
		stride := int(1/cfg.BeaconFraction + 0.5)
		if stride < 1 {
			stride = 1
		}
		rng := w.RNG.Fork("dense/beacon")
		beaconPort := 20000
		interval := sim.Time(float64(cfg.BeaconSize) * 8 / cfg.BeaconRateBps)
		for lane := range laneOrder {
			for i, v := range laneOrder[lane] {
				if int(v.ID())%stride != 0 {
					continue
				}
				var dst packet.NodeID
				if i > 0 {
					dst = laneOrder[lane][i-1].ID()
				} else {
					dst = laneOrder[lane][i+1].ID()
				}
				src := app.NewUDPSource(s, nodeOf[v.ID()].Net, w.PF, beaconPort, dst, beaconPort+1, packet.TypeCBR)
				sink := app.NewUDPSink(s, nodeOf[dst].Net, beaconPort+1)
				sink.SetSpans(stack.Spans)
				beaconPort += 2
				rate := cfg.BeaconRateBps
				if cfg.BeaconJitter > 0 {
					// Per-vehicle interval scale in [1-j, 1+j), as an extra
					// draw taken only when jitter is on so the zero-jitter
					// stream — and with it the pinned goldens — is untouched.
					rate = cfg.BeaconRateBps / (1 + cfg.BeaconJitter*(2*rng.Float64()-1))
				}
				gen := app.NewCBR(s, src, cfg.BeaconSize, rate)
				phase := sim.Time(rng.Float64() * float64(interval))
				s.At(phase, gen.Start)
				beaconSources = append(beaconSources, src)
				beaconSinks = append(beaconSinks, sink)
			}
		}
	}

	// Brake every lead simultaneously — the highway-wide emergency stop
	// whose notification latency the run measures.
	s.At(cfg.BrakeAt, func() {
		for _, dp := range platoons {
			dp.platoon.Lead().Brake(cfg.DecelMS2)
		}
	})
	// Epoch batching drains each equal-timestamp cohort in one structural
	// heap repair — byte-for-byte the execution RunUntil produces.
	s.RunEpochs(cfg.Duration)

	res := &DenseHighwayResult{Config: cfg, World: w, Platoons: len(platoons)}
	for _, dp := range platoons {
		vehicles := dp.platoon.Vehicles()
		for i := 1; i < len(vehicles); i++ {
			v := vehicles[i]
			ind := BrakeIndication{Vehicle: v.ID()}
			if at, ok := firstAt[v.ID()]; ok {
				ind.IndicationDelay = at - cfg.BrakeAt
				ind.DistanceBlind = cfg.SpeedMS * float64(ind.IndicationDelay+cfg.ReactionS)
			} else {
				ind.IndicationDelay = -1 // outside safety depth, or never reached
				ind.DistanceBlind = cfg.SpeedMS * float64(cfg.Duration-cfg.BrakeAt)
			}
			res.Indications = append(res.Indications, ind)
		}
	}
	// Gaps and collisions follow lane order, crossing platoon boundaries:
	// a platoon tail can be overrun by the next platoon's lead too.
	indOf := make(map[packet.NodeID]int, len(res.Indications))
	for j := range res.Indications {
		indOf[res.Indications[j].Vehicle] = j
	}
	for lane := range laneOrder {
		for i := 1; i < len(laneOrder[lane]); i++ {
			v, ahead := laneOrder[lane][i], laneOrder[lane][i-1]
			along := ahead.Position().Sub(v.Position()).Dot(geom.V(1, 0))
			gap := along - cfg.CarLengthM
			if gap <= 0 {
				res.Collisions++
			}
			if j, ok := indOf[v.ID()]; ok {
				res.Indications[j].FinalGap = gap
				res.Indications[j].Collided = gap <= 0
			}
		}
	}
	allComms := make([]*ebl.PlatoonComms, 0, len(platoons))
	for _, dp := range platoons {
		allComms = append(allComms, dp.comms)
		for _, f := range dp.comms.Flows() {
			res.SafetySent += f.Sender.Stats().SegmentsSent
			res.SafetyReceived += f.Delays.Len()
		}
	}
	for _, src := range beaconSources {
		res.BeaconSent += src.Sent()
	}
	for _, sink := range beaconSinks {
		res.BeaconReceived += sink.Received()
	}
	for _, n := range w.Nodes {
		res.RxCollided += n.Radio.Stats().RxCollided
	}
	res.Channel = w.Channel.Stats()
	res.Telemetry = w.HarvestTelemetry(allComms...)
	res.Violations = w.AuditInvariants(allComms...)
	res.Spans = stack.Spans.Events()
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}
