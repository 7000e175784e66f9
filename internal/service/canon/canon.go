// Package canon canonicalises vanetsimd's JSON scenario requests and
// derives their content hash — the key of the service's result cache.
//
// Every run in this repository is a deterministic pure function of its
// configuration: the same canonical config always produces the same
// result bytes, at any worker count. The cache key must therefore depend
// on exactly the semantic configuration and nothing else.
// Canonicalisation enforces that in three steps:
//
//  1. Decode the request JSON into typed structs, so field order in the
//     wire form is irrelevant.
//  2. Apply every default (preset trials, dense-highway defaults, the
//     paper's degradation grid) before hashing, so an elided field and
//     an explicitly spelled-out default hash identically.
//  3. Encode the fully resolved configuration in a fixed field order
//     (AppendBinary) and hash that — never the incoming JSON bytes.
//
// Execution-only knobs (the spatial-culling toggle, trace and span
// recording, animation sampling) are deliberately excluded from the
// canonical form: they are proven byte-identical on output, so they must
// not split the cache.
//
// The hash hot path is allocation-free: AppendBinary appends into a
// caller-reused buffer with strconv appenders, and sha256.Sum256 runs
// without heap allocation (BenchmarkCanonicalHash pins 0 allocs/op).
package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"vanetsim/internal/fault"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
)

// Version tags the canonical encoding and the artifact schema derived
// from it. Bumping it invalidates every cached result, which is exactly
// what a change to either the encoding or the report rendering needs.
const Version = "vanetsimd/v1"

// Request is the wire form of one simulation request. Exactly one of
// the kind-specific payloads must be set, matching Kind.
type Request struct {
	Kind        string              `json:"kind"` // "trial", "dense", "degradation" or "replication"
	Trial       *TrialRequest       `json:"trial,omitempty"`
	Dense       *DenseRequest       `json:"dense,omitempty"`
	Degradation *DegradationRequest `json:"degradation,omitempty"`
	Replication *ReplicationRequest `json:"replication,omitempty"`
}

// TrialRequest asks for one run of the paper's intersection scenario.
// Trial 1–3 select the paper's presets; 0 builds a custom configuration
// from MAC and Packet (which are only valid with Trial = 0, exactly as
// cmd/vanetsim's -mac/-packet flags pair with -trial 0).
type TrialRequest struct {
	Trial     int           `json:"trial"`
	MAC       string        `json:"mac,omitempty"`
	Packet    int           `json:"packet,omitempty"`
	DurationS float64       `json:"duration_s,omitempty"` // 0 = paper default
	Seed      uint64        `json:"seed,omitempty"`       // 0 = default
	Faults    *FaultRequest `json:"faults,omitempty"`
	Telemetry bool          `json:"telemetry,omitempty"` // include telemetry in the artifact
	Check     bool          `json:"check,omitempty"`     // arm the invariant checker
}

// FaultRequest is a trial's impairment recipe (the -loss/-ber/
// -burst-loss/-shadow/-outage flag family as JSON).
type FaultRequest struct {
	Loss      float64         `json:"loss,omitempty"`
	BER       float64         `json:"ber,omitempty"`
	BurstLoss float64         `json:"burst_loss,omitempty"`
	BurstLen  float64         `json:"burst_len,omitempty"` // 0 = default 4
	ShadowDB  float64         `json:"shadow_db,omitempty"`
	Outages   []OutageRequest `json:"outages,omitempty"`
}

// OutageRequest schedules one node's radio off the air.
type OutageRequest struct {
	Node      int     `json:"node"`
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
}

// DenseRequest asks for one run of the dense multi-lane highway
// scenario. Zero fields take DefaultDenseHighway's values;
// BeaconFraction is a pointer because an explicit 0 (no beacons) is
// semantically different from "use the 0.25 default".
type DenseRequest struct {
	Vehicles       int      `json:"vehicles"`
	MAC            string   `json:"mac,omitempty"`
	Lanes          int      `json:"lanes,omitempty"`
	PlatoonLen     int      `json:"platoon_len,omitempty"`
	BeaconFraction *float64 `json:"beacon_fraction,omitempty"`
	BeaconJitter   float64  `json:"beacon_jitter,omitempty"`
	SafetyDepth    int      `json:"safety_depth,omitempty"`
	DurationS      float64  `json:"duration_s,omitempty"`
	Seed           uint64   `json:"seed,omitempty"`
	Telemetry      bool     `json:"telemetry,omitempty"`
	Check          bool     `json:"check,omitempty"`
}

// ReplicationRequest asks for an adaptive-precision replication study:
// the base trial re-run under deterministically derived seeds until
// every headline metric's 95% CI relative half-width is at most
// Tolerance, or the MaxReps budget is exhausted ("give me this answer
// to ±2%"). The base trial's seed roots the derived seed stream; its
// telemetry flag must be off (a study has no single telemetry
// snapshot), while check applies to every replication.
type ReplicationRequest struct {
	Trial     *TrialRequest `json:"trial"`
	Tolerance float64       `json:"tolerance"`          // relative half-width, e.g. 0.05 = ±5%
	MinReps   int           `json:"min_reps,omitempty"` // 0 = 4; at least 2
	MaxReps   int           `json:"max_reps,omitempty"` // 0 = 64
}

// DegradationRequest asks for the fault-degradation sweep: the base
// trial on MAC swept across LossProbs (default: the paper grid).
type DegradationRequest struct {
	MAC       string         `json:"mac,omitempty"`
	LossProbs []float64      `json:"loss_probs,omitempty"`
	BurstLen  float64        `json:"burst_len,omitempty"` // <= 1 = independent losses
	ShadowDB  float64        `json:"shadow_db,omitempty"`
	Outage    *OutageRequest `json:"outage,omitempty"`
	DurationS float64        `json:"duration_s,omitempty"` // 0 = default 80
	Seed      uint64         `json:"seed,omitempty"`
	Check     bool           `json:"check,omitempty"`
}

// Decode reads one Request from r, rejecting unknown fields and
// trailing garbage.
func Decode(r io.Reader) (Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("canon: decode request: %w", err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("canon: trailing data after request object")
	}
	return req, nil
}

// Request kinds, as they appear on the wire and in Canonical.Kind.
const (
	KindTrial       = "trial"
	KindDense       = "dense"
	KindDegradation = "degradation"
	KindReplication = "replication"
)

// ReplicationSpec is the fully resolved adaptive-precision study: the
// base trial (whose Seed roots the derived seed stream) plus the
// stopping parameters. Batch size and worker count are execution-only
// (the study is byte-identical at any value) and deliberately absent.
type ReplicationSpec struct {
	Base      scenario.TrialConfig
	Tolerance float64
	MinReps   int
	MaxReps   int
}

// DegradationSpec is the fully resolved degradation sweep.
type DegradationSpec struct {
	Base      scenario.TrialConfig // Telemetry forced on (the sweep reads fault counters)
	LossProbs []float64
	BurstLen  float64
	ShadowDB  float64
	Outage    fault.Outage // Duration 0 = none
}

// Plan builds one sweep point's impairment recipe, mirroring the
// DegradationConfig.plan rules of the root package: BurstLen > 1
// selects Gilbert–Elliott bursts, otherwise independent Bernoulli
// losses; the outage (if any) applies verbatim at every point.
func (s DegradationSpec) Plan(lossProb float64) fault.Plan {
	p := fault.Plan{ShadowSigmaDB: s.ShadowDB}
	if s.BurstLen > 1 {
		p.Burst = fault.Burst(lossProb, s.BurstLen)
	} else {
		p.Bernoulli = fault.Bernoulli{LossProb: lossProb}
	}
	if s.Outage.Duration > 0 {
		p.Outages = []fault.Outage{s.Outage}
	}
	return p
}

// Canonical is a fully resolved request: defaults applied, fields
// validated, execution-only knobs zeroed. Exactly one of Trial, Dense,
// Deg is meaningful, selected by Kind.
type Canonical struct {
	Kind  string
	Trial scenario.TrialConfig
	Dense scenario.DenseHighwayConfig
	Deg   DegradationSpec
	Rep   ReplicationSpec

	req Request // normalized wire form (defaults made explicit)
}

// Cost is a request's admission-control weight, judged against the
// server's per-job budgets before the job is queued.
type Cost struct {
	SimSeconds float64 // total simulated seconds across all runs
	Vehicles   int     // largest single-run fleet size
	Runs       int     // independent simulation runs
}

// Canonicalize validates req, applies every default, and returns the
// canonical form. All errors are client errors (bad requests).
func Canonicalize(req Request) (*Canonical, error) {
	kinds := 0
	for _, set := range []bool{req.Trial != nil, req.Dense != nil, req.Degradation != nil, req.Replication != nil} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		return nil, fmt.Errorf("canon: request sets %d kind payloads, want exactly one", kinds)
	}
	switch req.Kind {
	case "trial":
		if req.Trial == nil {
			return nil, fmt.Errorf(`canon: kind "trial" needs a "trial" payload`)
		}
		return canonTrial(*req.Trial)
	case "dense":
		if req.Dense == nil {
			return nil, fmt.Errorf(`canon: kind "dense" needs a "dense" payload`)
		}
		return canonDense(*req.Dense)
	case "degradation":
		if req.Degradation == nil {
			return nil, fmt.Errorf(`canon: kind "degradation" needs a "degradation" payload`)
		}
		return canonDegradation(*req.Degradation)
	case "replication":
		if req.Replication == nil {
			return nil, fmt.Errorf(`canon: kind "replication" needs a "replication" payload`)
		}
		return canonReplication(*req.Replication)
	case "":
		return nil, fmt.Errorf(`canon: missing "kind" (want "trial", "dense", "degradation" or "replication")`)
	default:
		return nil, fmt.Errorf("canon: unknown kind %q", req.Kind)
	}
}

// ParseMAC resolves the wire MAC names shared with the CLI flags; the
// empty string is TDMA (the paper's base MAC).
func ParseMAC(s string) (scenario.MACType, error) {
	switch strings.ToLower(s) {
	case "", "tdma":
		return scenario.MACTDMA, nil
	case "802.11", "dcf", "80211":
		return scenario.MAC80211, nil
	default:
		return 0, fmt.Errorf("canon: unknown MAC %q", s)
	}
}

// macName is the canonical wire spelling of a MAC type.
func macName(m scenario.MACType) string {
	if m == scenario.MAC80211 {
		return "802.11"
	}
	return "tdma"
}

// finite rejects NaN and infinities, which would make a run
// canonicalise but never behave.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("canon: %s = %v is not finite", name, v)
	}
	return nil
}

// duration resolves an optional duration override against a default,
// rejecting non-finite and negative values.
func duration(name string, overrideS float64, def sim.Time) (sim.Time, error) {
	if err := finite(name, overrideS); err != nil {
		return 0, err
	}
	if overrideS < 0 {
		return 0, fmt.Errorf("canon: %s = %v is negative", name, overrideS)
	}
	if overrideS == 0 {
		return def, nil
	}
	return sim.Time(overrideS), nil
}

// canonFaults resolves an optional impairment recipe. Outages are
// sorted by (node, start, duration): their order never changes the
// plan's semantics, so two spellings of the same plan hash identically.
func canonFaults(fr *FaultRequest) (fault.Plan, *FaultRequest, error) {
	if fr == nil {
		return fault.Plan{}, nil, nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"faults.loss", fr.Loss}, {"faults.ber", fr.BER},
		{"faults.burst_loss", fr.BurstLoss}, {"faults.burst_len", fr.BurstLen},
		{"faults.shadow_db", fr.ShadowDB},
	} {
		if err := finite(f.name, f.v); err != nil {
			return fault.Plan{}, nil, err
		}
	}
	norm := FaultRequest{
		Loss: fr.Loss, BER: fr.BER,
		BurstLoss: fr.BurstLoss, BurstLen: fr.BurstLen, ShadowDB: fr.ShadowDB,
	}
	if fr.BurstLoss > 0 && norm.BurstLen == 0 {
		norm.BurstLen = 4 // the -burst-len default
	}
	if norm.BurstLoss == 0 {
		norm.BurstLen = 0 // inert without a burst model; don't split the form
	}
	if fr.BurstLoss < 0 || fr.BurstLoss > 1 {
		return fault.Plan{}, nil, fmt.Errorf("canon: faults.burst_loss = %v outside [0, 1]", fr.BurstLoss)
	}
	plan := fault.Plan{
		Bernoulli:     fault.Bernoulli{LossProb: fr.Loss, BitErrorRate: fr.BER},
		ShadowSigmaDB: fr.ShadowDB,
	}
	if norm.BurstLoss > 0 {
		plan.Burst = fault.Burst(norm.BurstLoss, norm.BurstLen)
	}
	for i, o := range fr.Outages {
		fo, err := canonOutage(fmt.Sprintf("faults.outages[%d]", i), o)
		if err != nil {
			return fault.Plan{}, nil, err
		}
		plan.Outages = append(plan.Outages, fo)
	}
	sort.Slice(plan.Outages, func(i, j int) bool {
		a, b := plan.Outages[i], plan.Outages[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Duration < b.Duration
	})
	if err := plan.Validate(); err != nil {
		return fault.Plan{}, nil, fmt.Errorf("canon: %w", err)
	}
	for _, o := range plan.Outages {
		norm.Outages = append(norm.Outages, OutageRequest{
			Node: int(o.Node), StartS: float64(o.Start), DurationS: float64(o.Duration),
		})
	}
	if norm.Loss == 0 && norm.BER == 0 && norm.BurstLoss == 0 &&
		norm.ShadowDB == 0 && len(norm.Outages) == 0 {
		return plan, nil, nil
	}
	return plan, &norm, nil
}

func canonOutage(name string, o OutageRequest) (fault.Outage, error) {
	if err := finite(name+".start_s", o.StartS); err != nil {
		return fault.Outage{}, err
	}
	if err := finite(name+".duration_s", o.DurationS); err != nil {
		return fault.Outage{}, err
	}
	if o.Node < 0 || o.StartS < 0 || o.DurationS <= 0 {
		return fault.Outage{}, fmt.Errorf("canon: %s needs node >= 0, start_s >= 0, duration_s > 0", name)
	}
	return fault.Outage{
		Node:     packet.NodeID(o.Node),
		Start:    sim.Time(o.StartS),
		Duration: sim.Time(o.DurationS),
	}, nil
}

func canonTrial(tr TrialRequest) (*Canonical, error) {
	var cfg scenario.TrialConfig
	switch tr.Trial {
	case 1:
		cfg = scenario.Trial1()
	case 2:
		cfg = scenario.Trial2()
	case 3:
		cfg = scenario.Trial3()
	case 0:
		cfg = scenario.Trial1()
		cfg.Name = "custom"
		mac, err := ParseMAC(tr.MAC)
		if err != nil {
			return nil, err
		}
		cfg.MAC = mac
		if tr.Packet != 0 {
			if tr.Packet < 1 {
				return nil, fmt.Errorf("canon: packet = %d must be positive", tr.Packet)
			}
			cfg.PacketSize = tr.Packet
		}
	default:
		return nil, fmt.Errorf("canon: unknown trial %d (want 1..3, or 0 for custom)", tr.Trial)
	}
	if tr.Trial != 0 && (tr.MAC != "" || tr.Packet != 0) {
		return nil, fmt.Errorf("canon: mac/packet overrides need trial = 0 (trial %d fixes both)", tr.Trial)
	}
	d, err := duration("duration_s", tr.DurationS, cfg.Duration)
	if err != nil {
		return nil, err
	}
	cfg.Duration = d
	if tr.Seed != 0 {
		cfg.Seed = tr.Seed
	}
	plan, normFaults, err := canonFaults(tr.Faults)
	if err != nil {
		return nil, err
	}
	cfg.Faults = plan
	cfg.Telemetry = tr.Telemetry
	cfg.Check = tr.Check
	// Execution-only knobs stay zero: they never change result bytes.
	cfg.CollectTrace = false
	cfg.Spans = false
	cfg.AnimInterval = 0

	c := &Canonical{Kind: "trial", Trial: cfg}
	norm := TrialRequest{
		Trial:     tr.Trial,
		DurationS: float64(cfg.Duration),
		Seed:      cfg.Seed,
		Faults:    normFaults,
		Telemetry: cfg.Telemetry,
		Check:     cfg.Check,
	}
	if tr.Trial == 0 {
		norm.MAC = macName(cfg.MAC)
		norm.Packet = cfg.PacketSize
	}
	c.req = Request{Kind: "trial", Trial: &norm}
	return c, nil
}

func canonDense(dr DenseRequest) (*Canonical, error) {
	mac, err := ParseMAC(dr.MAC)
	if err != nil {
		return nil, err
	}
	if dr.Vehicles < 2 {
		return nil, fmt.Errorf("canon: dense.vehicles = %d needs at least 2", dr.Vehicles)
	}
	cfg := scenario.DefaultDenseHighway(mac, dr.Vehicles)
	if dr.Lanes != 0 {
		if dr.Lanes < 1 {
			return nil, fmt.Errorf("canon: dense.lanes = %d needs at least 1", dr.Lanes)
		}
		cfg.Lanes = dr.Lanes
	}
	if dr.PlatoonLen != 0 {
		if dr.PlatoonLen < 2 {
			return nil, fmt.Errorf("canon: dense.platoon_len = %d needs at least 2", dr.PlatoonLen)
		}
		cfg.PlatoonLen = dr.PlatoonLen
	}
	if dr.BeaconFraction != nil {
		if err := finite("dense.beacon_fraction", *dr.BeaconFraction); err != nil {
			return nil, err
		}
		if *dr.BeaconFraction < 0 || *dr.BeaconFraction > 1 {
			return nil, fmt.Errorf("canon: dense.beacon_fraction = %v outside [0, 1]", *dr.BeaconFraction)
		}
		cfg.BeaconFraction = *dr.BeaconFraction
	}
	if err := finite("dense.beacon_jitter", dr.BeaconJitter); err != nil {
		return nil, err
	}
	if dr.BeaconJitter < 0 || dr.BeaconJitter >= 1 {
		return nil, fmt.Errorf("canon: dense.beacon_jitter = %v outside [0, 1)", dr.BeaconJitter)
	}
	cfg.BeaconJitter = dr.BeaconJitter
	if dr.SafetyDepth < 0 {
		return nil, fmt.Errorf("canon: dense.safety_depth = %d is negative", dr.SafetyDepth)
	}
	cfg.SafetyDepth = dr.SafetyDepth
	d, err := duration("dense.duration_s", dr.DurationS, cfg.Duration)
	if err != nil {
		return nil, err
	}
	cfg.Duration = d
	if dr.Seed != 0 {
		cfg.Seed = dr.Seed
	}
	cfg.Telemetry = dr.Telemetry
	cfg.Check = dr.Check
	// Execution-only knobs stay zero (culling is proven byte-identical on
	// output, so it must not split the cache).
	cfg.DisableCulling = false
	cfg.Spans = false

	frac := cfg.BeaconFraction
	c := &Canonical{Kind: "dense", Dense: cfg}
	c.req = Request{Kind: "dense", Dense: &DenseRequest{
		Vehicles:       cfg.Vehicles,
		MAC:            macName(cfg.MAC),
		Lanes:          cfg.Lanes,
		PlatoonLen:     cfg.PlatoonLen,
		BeaconFraction: &frac,
		BeaconJitter:   cfg.BeaconJitter,
		SafetyDepth:    cfg.SafetyDepth,
		DurationS:      float64(cfg.Duration),
		Seed:           cfg.Seed,
		Telemetry:      cfg.Telemetry,
		Check:          cfg.Check,
	}}
	return c, nil
}

func canonDegradation(gr DegradationRequest) (*Canonical, error) {
	mac, err := ParseMAC(gr.MAC)
	if err != nil {
		return nil, err
	}
	base := scenario.Trial1()
	if mac == scenario.MAC80211 {
		base = scenario.Trial3()
	}
	d, err := duration("degradation.duration_s", gr.DurationS, 80)
	if err != nil {
		return nil, err
	}
	base.Duration = d
	if gr.Seed != 0 {
		base.Seed = gr.Seed
	}
	base.Telemetry = true // the sweep reads fault counters
	base.Check = gr.Check

	spec := DegradationSpec{Base: base, BurstLen: gr.BurstLen, ShadowDB: gr.ShadowDB}
	if err := finite("degradation.burst_len", gr.BurstLen); err != nil {
		return nil, err
	}
	if gr.BurstLen < 0 {
		return nil, fmt.Errorf("canon: degradation.burst_len = %v is negative", gr.BurstLen)
	}
	if err := finite("degradation.shadow_db", gr.ShadowDB); err != nil {
		return nil, err
	}
	if gr.ShadowDB < 0 {
		return nil, fmt.Errorf("canon: degradation.shadow_db = %v is negative", gr.ShadowDB)
	}
	if len(gr.LossProbs) == 0 {
		// The paper grid, as in DefaultDegradation.
		spec.LossProbs = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3}
	} else {
		for i, p := range gr.LossProbs {
			if err := finite(fmt.Sprintf("degradation.loss_probs[%d]", i), p); err != nil {
				return nil, err
			}
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("canon: degradation.loss_probs[%d] = %v outside [0, 1]", i, p)
			}
		}
		spec.LossProbs = append([]float64(nil), gr.LossProbs...)
	}
	if gr.Outage != nil {
		spec.Outage, err = canonOutage("degradation.outage", *gr.Outage)
		if err != nil {
			return nil, err
		}
	}

	c := &Canonical{Kind: "degradation", Deg: spec}
	norm := DegradationRequest{
		MAC:       macName(mac),
		LossProbs: spec.LossProbs,
		BurstLen:  spec.BurstLen,
		ShadowDB:  spec.ShadowDB,
		DurationS: float64(base.Duration),
		Seed:      base.Seed,
		Check:     base.Check,
	}
	if spec.Outage.Duration > 0 {
		norm.Outage = &OutageRequest{
			Node:      int(spec.Outage.Node),
			StartS:    float64(spec.Outage.Start),
			DurationS: float64(spec.Outage.Duration),
		}
	}
	c.req = Request{Kind: "degradation", Degradation: &norm}
	return c, nil
}

func canonReplication(rr ReplicationRequest) (*Canonical, error) {
	if rr.Trial == nil {
		return nil, fmt.Errorf(`canon: replication needs a "trial" base config`)
	}
	if rr.Trial.Telemetry {
		return nil, fmt.Errorf("canon: replication.trial.telemetry is not supported (a study has no single telemetry snapshot)")
	}
	base, err := canonTrial(*rr.Trial)
	if err != nil {
		return nil, err
	}
	if err := finite("replication.tolerance", rr.Tolerance); err != nil {
		return nil, err
	}
	// The open interval catches the classic unit mistake of sending 5
	// for ±5% (tolerances are relative fractions, not percentages).
	if rr.Tolerance <= 0 || rr.Tolerance >= 1 {
		return nil, fmt.Errorf("canon: replication.tolerance = %v outside (0, 1) — a relative half-width fraction, e.g. 0.05 for ±5%%", rr.Tolerance)
	}
	minReps := rr.MinReps
	if minReps == 0 {
		minReps = 4
	}
	if minReps < 2 {
		return nil, fmt.Errorf("canon: replication.min_reps = %d needs at least 2 (no interval exists on fewer)", rr.MinReps)
	}
	maxReps := rr.MaxReps
	if maxReps == 0 {
		maxReps = 64
	}
	if maxReps < minReps {
		return nil, fmt.Errorf("canon: replication.max_reps = %d below min_reps %d", maxReps, minReps)
	}
	c := &Canonical{Kind: "replication", Rep: ReplicationSpec{
		Base:      base.Trial,
		Tolerance: rr.Tolerance,
		MinReps:   minReps,
		MaxReps:   maxReps,
	}}
	c.req = Request{Kind: "replication", Replication: &ReplicationRequest{
		Trial:     base.req.Trial,
		Tolerance: rr.Tolerance,
		MinReps:   minReps,
		MaxReps:   maxReps,
	}}
	return c, nil
}

// Request returns the normalized wire form: every default explicit,
// canonical MAC spellings, outages sorted. Canonicalising it again
// yields a byte-identical canonical encoding (the fuzz round trip).
func (c *Canonical) Request() Request { return c.req }

// Cost returns the request's admission-control weight.
func (c *Canonical) Cost() Cost {
	switch c.Kind {
	case "trial":
		return Cost{
			SimSeconds: float64(c.Trial.Duration),
			Vehicles:   2 * c.Trial.PlatoonSize,
			Runs:       1,
		}
	case "dense":
		return Cost{
			SimSeconds: float64(c.Dense.Duration),
			Vehicles:   c.Dense.Vehicles,
			Runs:       1,
		}
	case "replication":
		// Admission control must budget for the worst case: the full
		// replication budget, even though a converging study stops early.
		return Cost{
			SimSeconds: float64(c.Rep.Base.Duration) * float64(c.Rep.MaxReps),
			Vehicles:   2 * c.Rep.Base.PlatoonSize,
			Runs:       c.Rep.MaxReps,
		}
	default:
		n := len(c.Deg.LossProbs)
		return Cost{
			SimSeconds: float64(c.Deg.Base.Duration) * float64(n),
			Vehicles:   2 * c.Deg.Base.PlatoonSize,
			Runs:       n,
		}
	}
}

// Hash is a canonical request's content address.
type Hash [sha256.Size]byte

// String returns the lowercase hex form — the cache key and URL token.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the lowercase-hex form back into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != hex.EncodedLen(len(h)) {
		return h, fmt.Errorf("canon: hash %q has length %d, want %d", s, len(s), hex.EncodedLen(len(h)))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("canon: hash %q: %w", s, err)
	}
	return h, nil
}

// Hash returns the content address of the canonical form.
func (c *Canonical) Hash() Hash {
	var buf [1024]byte
	return sha256.Sum256(c.AppendBinary(buf[:0]))
}

// RepEntryHash returns the content address of ONE replication of a
// replication study: the study's base trial with its seed replaced by
// the derived per-replication seed. The entry key deliberately excludes
// the study parameters (tolerance, min/max reps) — a replication's
// measurements depend only on (config, seed) — so a tighter-tolerance
// resubmission addresses the very same entries and re-runs only the
// additional replications. Observation-only knobs (telemetry, check)
// are zeroed too: a checked study and an unchecked one measure the same
// numbers, so they share entries.
func (c *Canonical) RepEntryHash(seed uint64) Hash {
	t := c.Rep.Base
	t.Seed = seed
	t.Telemetry = false
	t.Check = false
	var buf [1024]byte
	dst := append(buf[:0], Version...)
	dst = append(dst, '\n')
	dst = appendStr(dst, "kind", "replication-entry")
	dst = appendTrial(dst, &t)
	return sha256.Sum256(dst)
}

// AppendBinary appends the canonical encoding to dst and returns the
// extended slice. The encoding is versioned key=value lines in a fixed
// field order; it allocates nothing beyond dst growth, so reusing dst
// across calls makes the hash hot path allocation-free.
func (c *Canonical) AppendBinary(dst []byte) []byte {
	dst = append(dst, Version...)
	dst = append(dst, '\n')
	dst = appendStr(dst, "kind", c.Kind)
	switch c.Kind {
	case "trial":
		dst = appendTrial(dst, &c.Trial)
	case "dense":
		dst = appendDense(dst, &c.Dense)
	case "replication":
		dst = appendTrial(dst, &c.Rep.Base)
		dst = appendFloat(dst, "rep.tolerance", c.Rep.Tolerance)
		dst = appendInt(dst, "rep.min_reps", c.Rep.MinReps)
		dst = appendInt(dst, "rep.max_reps", c.Rep.MaxReps)
	case "degradation":
		dst = appendStr(dst, "deg.mac", macName(c.Deg.Base.MAC))
		dst = appendTrial(dst, &c.Deg.Base)
		dst = append(dst, "deg.loss_probs="...)
		for i, p := range c.Deg.LossProbs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, p, 'g', -1, 64)
		}
		dst = append(dst, '\n')
		dst = appendFloat(dst, "deg.burst_len", c.Deg.BurstLen)
		dst = appendFloat(dst, "deg.shadow_db", c.Deg.ShadowDB)
		dst = appendOutage(dst, "deg.outage", c.Deg.Outage)
	}
	return dst
}

func appendTrial(dst []byte, t *scenario.TrialConfig) []byte {
	dst = appendStr(dst, "name", t.Name)
	dst = appendStr(dst, "mac", macName(t.MAC))
	dst = appendInt(dst, "packet", t.PacketSize)
	dst = appendFloat(dst, "speed_ms", t.SpeedMS)
	dst = appendFloat(dst, "spacing_m", t.SpacingM)
	dst = appendFloat(dst, "approach_m", t.ApproachM)
	dst = appendFloat(dst, "duration_s", float64(t.Duration))
	dst = appendInt(dst, "platoon", t.PlatoonSize)
	dst = appendFloat(dst, "depart_m", t.DepartDistM)
	dst = appendFloat(dst, "rate_bps", t.RateBps)
	dst = appendFloat(dst, "tdma_rate_bps", t.TDMARateBps)
	dst = appendInt(dst, "queue_cap", t.QueueCap)
	dst = appendInt(dst, "queue", int(t.Queue))
	dst = appendFloat(dst, "tcp_window", t.TCPWindow)
	dst = appendFloat(dst, "tput_bin_s", float64(t.ThroughputBn))
	dst = appendUint(dst, "seed", t.Seed)
	dst = appendBool(dst, "sinr", t.SINRPhy)
	dst = appendBool(dst, "telemetry", t.Telemetry)
	dst = appendBool(dst, "check", t.Check)
	dst = appendFloat(dst, "fault.loss", t.Faults.Bernoulli.LossProb)
	dst = appendFloat(dst, "fault.ber", t.Faults.Bernoulli.BitErrorRate)
	dst = appendFloat(dst, "fault.burst_pgb", t.Faults.Burst.PGoodBad)
	dst = appendFloat(dst, "fault.burst_pbg", t.Faults.Burst.PBadGood)
	dst = appendFloat(dst, "fault.burst_lg", t.Faults.Burst.LossGood)
	dst = appendFloat(dst, "fault.burst_lb", t.Faults.Burst.LossBad)
	dst = appendFloat(dst, "fault.shadow_db", t.Faults.ShadowSigmaDB)
	for _, o := range t.Faults.Outages {
		dst = appendOutage(dst, "fault.outage", o)
	}
	return dst
}

func appendDense(dst []byte, d *scenario.DenseHighwayConfig) []byte {
	dst = appendStr(dst, "mac", macName(d.MAC))
	dst = appendInt(dst, "vehicles", d.Vehicles)
	dst = appendInt(dst, "lanes", d.Lanes)
	dst = appendInt(dst, "platoon_len", d.PlatoonLen)
	dst = appendFloat(dst, "spacing_m", d.SpacingM)
	dst = appendFloat(dst, "gap_m", d.GapM)
	dst = appendFloat(dst, "lane_width_m", d.LaneWidthM)
	dst = appendFloat(dst, "speed_ms", d.SpeedMS)
	dst = appendFloat(dst, "decel_ms2", d.DecelMS2)
	dst = appendFloat(dst, "car_len_m", d.CarLengthM)
	dst = appendInt(dst, "safety_depth", d.SafetyDepth)
	dst = appendInt(dst, "packet", d.PacketSize)
	dst = appendFloat(dst, "rate_bps", d.RateBps)
	dst = appendFloat(dst, "beacon_fraction", d.BeaconFraction)
	dst = appendInt(dst, "beacon_size", d.BeaconSize)
	dst = appendFloat(dst, "beacon_rate_bps", d.BeaconRateBps)
	dst = appendFloat(dst, "beacon_jitter", d.BeaconJitter)
	dst = appendFloat(dst, "tdma_rate_bps", d.TDMARateBps)
	dst = appendFloat(dst, "reaction_s", float64(d.ReactionS))
	dst = appendFloat(dst, "brake_at_s", float64(d.BrakeAt))
	dst = appendFloat(dst, "duration_s", float64(d.Duration))
	dst = appendInt(dst, "queue_cap", d.QueueCap)
	dst = appendUint(dst, "seed", d.Seed)
	dst = appendBool(dst, "telemetry", d.Telemetry)
	dst = appendBool(dst, "check", d.Check)
	return dst
}

func appendOutage(dst []byte, key string, o fault.Outage) []byte {
	if o.Duration <= 0 {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = strconv.AppendInt(dst, int64(o.Node), 10)
	dst = append(dst, ':')
	dst = strconv.AppendFloat(dst, float64(o.Start), 'g', -1, 64)
	dst = append(dst, ':')
	dst = strconv.AppendFloat(dst, float64(o.Duration), 'g', -1, 64)
	return append(dst, '\n')
}

func appendStr(dst []byte, key, v string) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = append(dst, v...)
	return append(dst, '\n')
}

func appendInt(dst []byte, key string, v int) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = strconv.AppendInt(dst, int64(v), 10)
	return append(dst, '\n')
}

func appendUint(dst []byte, key string, v uint64) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = strconv.AppendUint(dst, v, 10)
	return append(dst, '\n')
}

func appendFloat(dst []byte, key string, v float64) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '\n')
}

func appendBool(dst []byte, key string, v bool) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = strconv.AppendBool(dst, v)
	return append(dst, '\n')
}
