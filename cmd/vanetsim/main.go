// Command vanetsim runs one trial of the paper's Extended Brake Lights
// scenario and prints its statistics tables, a figure as CSV or an ASCII
// plot, or an ns-2-style trace for offline analysis with ebltrace.
//
// Examples:
//
//	vanetsim -trial 1                 # trial 1 tables
//	vanetsim -trial 3 -ascii Fig11    # trial 3 delay curve in the terminal
//	vanetsim -trial 2 -csv Fig10      # figure data as CSV on stdout
//	vanetsim -trial 1 -trace t1.tr    # write an agent-level trace file
//	vanetsim -mac 802.11 -packet 500  # a configuration the paper didn't run
//	vanetsim -trial 3 -stats          # tables plus the telemetry summary
//	vanetsim -trial 1 -stats-json m.ndjson  # machine-readable run report
//	vanetsim -trial 1 -spans s.ndjson # causal per-packet span events
//	vanetsim -trial 3 -spans-chrome s.json  # the same, for chrome://tracing
//
// Fault injection (deterministic, seedable; see README "Fault injection"):
//
//	vanetsim -trial 1 -loss 0.05              # 5% independent frame loss
//	vanetsim -trial 1 -ber 1e-6               # per-bit error rate
//	vanetsim -trial 3 -burst-loss 0.1 -burst-len 4  # bursty Gilbert–Elliott loss
//	vanetsim -trial 1 -shadow 6               # 6 dB log-normal shadowing
//	vanetsim -trial 1 -outage 1:22:5 -outage 4:10:3  # radios down (node:start:dur)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vanetsim"
	"vanetsim/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vanetsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("vanetsim", flag.ContinueOnError)
	var (
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this path")
		trial    = fs.Int("trial", 1, "paper trial to run (1, 2 or 3); 0 to build from -mac/-packet")
		macName  = fs.String("mac", "tdma", "MAC type for -trial 0: tdma or 802.11")
		pktSize  = fs.Int("packet", 1000, "packet size in bytes for -trial 0")
		duration = fs.Float64("duration", 0, "override simulated seconds (0 = paper default)")
		seed     = fs.Uint64("seed", 0, "override RNG seed (0 = default)")
		csvFig   = fs.String("csv", "", "print one figure as CSV (Fig5..Fig15)")
		asciiFig = fs.String("ascii", "", "print one figure as an ASCII plot (Fig5..Fig15)")
		traceOut = fs.String("trace", "", "write an agent-level trace file to this path")
		animate  = fs.Bool("anim", false, "play an ASCII animation of vehicle motion (nam's role)")
		stats    = fs.Bool("stats", false, "print the cross-layer telemetry summary after the run")
		checkInv = fs.Bool("check", false, "arm the runtime invariant checker; non-zero exit on any violation")
		spansOut = fs.String("spans", "", "write causal per-packet span events as NDJSON to this path")
		spansChr = fs.String("spans-chrome", "", "write span events as Chrome trace-event JSON to this path")
		statsJSN = fs.String("stats-json", "", "write run telemetry as NDJSON to this path")
		statsPrm = fs.String("stats-prom", "", "write run telemetry in Prometheus text format to this path")
		dense    = fs.Int("dense", 0, "run the dense multi-lane highway with this many vehicles (200–2000 typical) instead of a paper trial")
		lanes    = fs.Int("lanes", 4, "lane count for -dense")
		platoon  = fs.Int("platoon-len", 10, "vehicles per platoon for -dense")
		beaconFr = fs.Float64("beacon-frac", 0.25, "fraction of vehicles sourcing beacon traffic for -dense")
		beaconJt = fs.Float64("beacon-jitter", 0, "per-vehicle beacon-interval jitter fraction in [0,1) for -dense (0 = lockstep intervals)")
		safDepth = fs.Int("safety-depth", 0, "followers per platoon on the lead's safety stream for -dense (0 = all)")
		noCull   = fs.Bool("no-culling", false, "disable spatial-index neighbor culling (full receiver scan) for -dense")
		loss     = fs.Float64("loss", 0, "independent per-frame loss probability")
		ber      = fs.Float64("ber", 0, "independent per-bit error rate")
		burstP   = fs.Float64("burst-loss", 0, "stationary loss probability of the bursty (Gilbert–Elliott) model")
		burstLen = fs.Float64("burst-len", 4, "mean burst length in frames for -burst-loss")
		shadow   = fs.Float64("shadow", 0, "log-normal shadowing standard deviation in dB")
		outages  outageList
	)
	fs.Var(&outages, "outage", "radio outage as node:start:duration seconds (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); err == nil {
			err = e
		}
	}()

	if *dense > 0 {
		mac := vanetsim.MACTDMA
		switch strings.ToLower(*macName) {
		case "tdma":
		case "802.11", "dcf", "80211":
			mac = vanetsim.MAC80211
		default:
			return fmt.Errorf("unknown MAC %q", *macName)
		}
		dcfg := vanetsim.DefaultDenseHighway(mac, *dense)
		dcfg.Lanes = *lanes
		dcfg.PlatoonLen = *platoon
		dcfg.BeaconFraction = *beaconFr
		dcfg.BeaconJitter = *beaconJt
		dcfg.SafetyDepth = *safDepth
		dcfg.DisableCulling = *noCull
		dcfg.Telemetry = *stats || *statsJSN != "" || *statsPrm != ""
		dcfg.Check = *checkInv
		if *duration > 0 {
			dcfg.Duration = vanetsim.Seconds(*duration)
		}
		if *seed != 0 {
			dcfg.Seed = *seed
		}
		return runDense(dcfg, *stats, *statsJSN, *statsPrm, out)
	}

	var cfg vanetsim.TrialConfig
	switch *trial {
	case 1:
		cfg = vanetsim.Trial1()
	case 2:
		cfg = vanetsim.Trial2()
	case 3:
		cfg = vanetsim.Trial3()
	case 0:
		cfg = vanetsim.Trial1()
		cfg.Name = "custom"
		cfg.PacketSize = *pktSize
		switch strings.ToLower(*macName) {
		case "tdma":
			cfg.MAC = vanetsim.MACTDMA
		case "802.11", "dcf", "80211":
			cfg.MAC = vanetsim.MAC80211
		default:
			return fmt.Errorf("unknown MAC %q", *macName)
		}
	default:
		return fmt.Errorf("unknown trial %d", *trial)
	}
	if *duration > 0 {
		cfg.Duration = vanetsim.Seconds(*duration)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.CollectTrace = *traceOut != ""
	cfg.Telemetry = *stats || *statsJSN != "" || *statsPrm != ""
	cfg.Check = *checkInv
	cfg.Spans = *spansOut != "" || *spansChr != ""
	if *burstP < 0 || *burstP > 1 {
		return fmt.Errorf("-burst-loss %v outside [0, 1]", *burstP)
	}
	cfg.Faults = vanetsim.FaultPlan{
		Bernoulli:     vanetsim.FaultBernoulli{LossProb: *loss, BitErrorRate: *ber},
		Burst:         vanetsim.BurstFault(*burstP, *burstLen),
		ShadowSigmaDB: *shadow,
		Outages:       outages,
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if *animate {
		cfg.AnimInterval = 2 // seconds per frame
	}

	r := vanetsim.RunTrial(cfg)
	if *checkInv {
		if n := len(r.Violations); n > 0 {
			for i, v := range r.Violations {
				fmt.Fprintln(os.Stderr, "vanetsim:", v.Error())
				for _, line := range v.Trail {
					fmt.Fprintln(os.Stderr, "vanetsim:   trail:", line)
				}
				if i == 9 && n > 10 {
					fmt.Fprintf(os.Stderr, "vanetsim: ... and %d more\n", n-10)
					break
				}
			}
			return fmt.Errorf("%d invariant violation(s)", n)
		}
		fmt.Fprintf(out, "invariant check: clean (%s)\n", cfg.Name)
	}

	// emitStats closes out every output mode: exporter files always, the
	// text summary only on -stats.
	emitStats := func() error {
		if r.Telemetry == nil {
			return nil
		}
		if *statsJSN != "" {
			if err := writeSnapshot(*statsJSN, r.Telemetry.NDJSON); err != nil {
				return err
			}
		}
		if *statsPrm != "" {
			if err := writeSnapshot(*statsPrm, r.Telemetry.Prometheus); err != nil {
				return err
			}
		}
		if *stats {
			fmt.Fprintln(out, "\nTelemetry:")
			fmt.Fprint(out, r.Telemetry.FormatText())
		}
		return nil
	}

	if *traceOut != "" {
		if err := vanetsim.WriteTrace(*traceOut, r); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace records to %s\n", len(r.Trace), *traceOut)
	}
	if *spansOut != "" {
		if err := vanetsim.WriteSpans(*spansOut, r.Spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d span events to %s\n", len(r.Spans), *spansOut)
	}
	if *spansChr != "" {
		if err := vanetsim.WriteSpansChrome(*spansChr, r.Spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d span events (chrome trace) to %s\n", len(r.Spans), *spansChr)
	}

	if *csvFig != "" {
		f, err := figureByName(r, *csvFig)
		if err != nil {
			return err
		}
		fmt.Fprint(out, f.CSV())
		return emitStats()
	}
	if *asciiFig != "" {
		f, err := figureByName(r, *asciiFig)
		if err != nil {
			return err
		}
		fmt.Fprint(out, f.ASCII(70, 16))
		return emitStats()
	}

	if *animate && r.Anim != nil {
		vp := r.Anim.AutoViewport(30)
		if err := r.Anim.Play(out, vp, 72, 18, 2); err != nil {
			return err
		}
		fmt.Fprint(out, r.Anim.Legend())
		return emitStats()
	}

	fmt.Fprintf(out, "%v — %s MAC, %d-byte packets, %.0f s simulated\n\n",
		cfg.Name, cfg.MAC, cfg.PacketSize, float64(cfg.Duration))
	fmt.Fprintln(out, "One-way delay (per receiving vehicle):")
	fmt.Fprint(out, vanetsim.FormatDelayTable(vanetsim.DelayTable(r)))
	fmt.Fprintln(out, "\nThroughput (per platoon, 95% batch-means CI):")
	fmt.Fprint(out, vanetsim.FormatThroughputTable(vanetsim.ThroughputTable(r)))
	fmt.Fprintln(out, "\nStopping-distance analysis (initial packet, platoon 1):")
	fmt.Fprint(out, vanetsim.FormatStoppingTable(vanetsim.StoppingTable(r)))
	return emitStats()
}

// runDense executes and summarises the dense multi-lane scaling scenario.
func runDense(cfg vanetsim.DenseHighwayConfig, stats bool, statsJSON, statsProm string, out io.Writer) error {
	r, err := vanetsim.RunDenseHighway(cfg)
	if err != nil {
		return err
	}
	if cfg.Check {
		if n := len(r.Violations); n > 0 {
			for _, v := range r.Violations {
				fmt.Fprintln(os.Stderr, "vanetsim:", v.Error())
			}
			return fmt.Errorf("%d invariant violation(s)", n)
		}
		fmt.Fprintln(out, "invariant check: clean (dense highway)")
	}
	culling := "culled"
	if cfg.DisableCulling {
		culling = "full scan"
	}
	fmt.Fprintf(out, "dense highway — %v MAC, %d vehicles, %d lanes, %d platoons (%s), %.0f s simulated in %.2f s wall\n\n",
		cfg.MAC, cfg.Vehicles, cfg.Lanes, r.Platoons, culling, float64(cfg.Duration), r.WallSeconds)
	notified, worst := 0, vanetsim.Seconds(0)
	for _, ind := range r.Indications {
		if ind.IndicationDelay >= 0 {
			notified++
			if ind.IndicationDelay > worst {
				worst = ind.IndicationDelay
			}
		}
	}
	fmt.Fprintf(out, "brake indications: %d/%d followers notified, worst delay %.4f s\n",
		notified, len(r.Indications), float64(worst))
	fmt.Fprintf(out, "collisions: %d rear-end, %d corrupted frames (MAC contention)\n", r.Collisions, r.RxCollided)
	safetyPct, beaconPct := 0.0, 0.0
	if r.SafetySent > 0 {
		safetyPct = 100 * float64(r.SafetyReceived) / float64(r.SafetySent)
	}
	if r.BeaconSent > 0 {
		beaconPct = 100 * float64(r.BeaconReceived) / float64(r.BeaconSent)
	}
	fmt.Fprintf(out, "safety traffic: %d sent, %d delivered (%.1f%%)\n", r.SafetySent, r.SafetyReceived, safetyPct)
	fmt.Fprintf(out, "beacon traffic: %d sent, %d delivered (%.1f%%)\n", r.BeaconSent, r.BeaconReceived, beaconPct)
	fmt.Fprintf(out, "channel: %d arrivals offered, %d delivered, %d frequency-filtered\n",
		r.Channel.Offered, r.Channel.Delivered, r.Channel.FilteredFreq)
	if r.Telemetry != nil {
		if statsJSON != "" {
			if err := writeSnapshot(statsJSON, r.Telemetry.NDJSON); err != nil {
				return err
			}
		}
		if statsProm != "" {
			if err := writeSnapshot(statsProm, r.Telemetry.Prometheus); err != nil {
				return err
			}
		}
		if stats {
			fmt.Fprintln(out, "\nTelemetry:")
			fmt.Fprint(out, r.Telemetry.FormatText())
		}
	}
	return nil
}

// outageList collects repeated -outage flags.
type outageList []vanetsim.FaultOutage

func (l *outageList) String() string {
	var parts []string
	for _, o := range *l {
		parts = append(parts, fmt.Sprintf("%v:%g:%g", o.Node, float64(o.Start), float64(o.Duration)))
	}
	return strings.Join(parts, ",")
}

func (l *outageList) Set(s string) error {
	o, err := vanetsim.ParseFaultOutage(s)
	if err != nil {
		return err
	}
	*l = append(*l, o)
	return nil
}

// writeSnapshot streams one telemetry export format to path.
func writeSnapshot(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figureByName resolves "Fig5".."Fig15" against the trial the figure
// belongs to (any trial's result can render any figure id; the caller is
// responsible for pairing them the way the paper does).
func figureByName(r *vanetsim.TrialResult, name string) (vanetsim.Figure, error) {
	figs := map[string]func(*vanetsim.TrialResult) vanetsim.Figure{
		"fig5": vanetsim.Fig5, "fig6": vanetsim.Fig6, "fig7": vanetsim.Fig7,
		"fig8": vanetsim.Fig8, "fig9": vanetsim.Fig9, "fig10": vanetsim.Fig10,
		"fig11": vanetsim.Fig11, "fig12": vanetsim.Fig12, "fig13": vanetsim.Fig13,
		"fig14": vanetsim.Fig14, "fig15": vanetsim.Fig15,
	}
	fn, ok := figs[strings.ToLower(name)]
	if !ok {
		return vanetsim.Figure{}, fmt.Errorf("unknown figure %q (want Fig5..Fig15)", name)
	}
	return fn(r), nil
}
