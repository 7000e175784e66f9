package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"vanetsim"
)

func paperRows(d1, d2, d3, steady3, first3, tp1, tp2 float64) ([3][]vanetsim.DelayRow, [3][]vanetsim.ThroughputRow) {
	row := func(avg, steady, first float64) []vanetsim.DelayRow {
		return []vanetsim.DelayRow{{Platoon: 1, Vehicle: "middle", AvgS: avg, SteadyS: steady, FirstS: first}}
	}
	tput := func(v float64) []vanetsim.ThroughputRow { return []vanetsim.ThroughputRow{{AvgMbps: v}} }
	return [3][]vanetsim.DelayRow{row(d1, 2.94, 0.16), row(d2, 2.94, 0.16), row(d3, steady3, first3)},
		[3][]vanetsim.ThroughputRow{tput(tp1), tput(tp2), tput(2.5)}
}

func failures(problems []string) []string {
	var out []string
	for _, p := range problems {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func TestPaperShape(t *testing.T) {
	digests := [3]string{"a", "b", "c"}
	d, tp := paperRows(2.89, 2.88, 0.0014, 0.0014, 0.004, 0.0976, 0.0488)
	if f := failures(paperProblems(5, digests, digests, d, tp)); len(f) > 0 {
		t.Errorf("paper shape flagged: %v", f)
	}
	for name, c := range map[string][7]float64{
		"trial 2 delay disagrees":   {2.89, 2.2, 0.0014, 0.0014, 0.004, 0.0976, 0.0488},
		"trial 2 throughput equal":  {2.89, 2.88, 0.0014, 0.0014, 0.004, 0.0976, 0.0976},
		"802.11 steady not faster":  {2.89, 2.88, 0.0014, 3.1, 0.004, 0.0976, 0.0488},
		"802.11 initial not faster": {2.89, 2.88, 0.0014, 0.0014, 0.2, 0.0976, 0.0488},
	} {
		d, tp := paperRows(c[0], c[1], c[2], c[3], c[4], c[5], c[6])
		if f := failures(paperProblems(5, digests, digests, d, tp)); len(f) != 1 {
			t.Errorf("%s: %d failures %v, want 1", name, len(f), f)
		}
	}
	if f := failures(paperProblems(5, digests, [3]string{"a", "x", "c"}, d, tp)); len(f) != 1 {
		t.Errorf("tables differing between passes: %v", f)
	}
	if f := failures(paperProblems(1, digests, digests, d, tp)); len(f) != 3 {
		t.Errorf("seed-1 digest mismatch: %d failures, want 3", len(f))
	}
}

func TestDenseChecks(t *testing.T) {
	s := denseSummary{Followers: 216, Notified: 200}
	if p := denseProblem(s, s); p != "" {
		t.Errorf("healthy summary flagged: %s", p)
	}
	if denseProblem(denseSummary{Followers: 216}, denseSummary{Followers: 216}) == "" {
		t.Error("no follower notified, not flagged")
	}
	if denseProblem(s, denseSummary{Followers: 216, Notified: 199}) == "" {
		t.Error("summary differing between passes, not flagged")
	}
}

func TestLayerOrdering(t *testing.T) {
	m := map[string]float64{"sim.cpu_share": 0.54, "phy.cpu_share": 0.17, "mobility.cpu_share": 0.05, "runtime.cpu_share": 0.3}
	if p := orderingProblem(m); p != "" {
		t.Errorf("ROADMAP ordering flagged: %s", p)
	}
	m["mobility.cpu_share"] = 0.2
	if orderingProblem(m) == "" {
		t.Error("mobility above phy, not flagged")
	}
	m["mobility.cpu_share"], m["phy.cpu_share"] = 0.05, 0.6
	if orderingProblem(m) == "" {
		t.Error("phy above sim, not flagged")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the command
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s:\n json %v\n code %v", c.kind, got, want)
		}
	}
}

// Every alias names end-to-end metrics, and an aliased metric repeats
// its source in its own unit.
func TestAliases(t *testing.T) {
	known := make(map[string]bool)
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for w, alias := range aliases {
		if workloads[w] == nil {
			t.Errorf("aliases for unknown workload %q", w)
		}
		for name, src := range alias {
			if !known[name] || !known[src] || alias[src] != "" {
				t.Errorf("%s: alias %s → %s", w, name, src)
			}
		}
	}
	v := map[string]float64{"wall_s": 4.5, "hit_p50_ms": 120}
	applyAliases(v, map[string]string{"miss_p50_ms": "wall_s", "restudy_s": "hit_p50_ms", "study_s": "wall_s"})
	for name, want := range map[string]float64{"miss_p50_ms": 4500, "restudy_s": 0.12, "study_s": 4.5} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
