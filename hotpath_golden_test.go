// Golden determinism gate for hot-path optimisation work: the discrete-event
// core, the PHY, and the trace codec may get faster, but they may not change
// a single output byte. The golden file pins SHA-256 digests of the trace,
// a figure CSV, the delay table, and the (host-clock-filtered) telemetry
// NDJSON for one TDMA and one 802.11 run; it was generated before the PR 3
// optimisations and must keep matching after them.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestHotPathDeterminismGolden -update-golden .
package vanetsim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanetsim"
	"vanetsim/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/determinism_golden.json")

const goldenPath = "testdata/determinism_golden.json"

// goldenDigests pins one configuration's output bytes.
type goldenDigests struct {
	Trace      string `json:"trace_sha256"`
	FigureCSV  string `json:"figure_csv_sha256"`
	DelayTable string `json:"delay_table_sha256"`
	Telemetry  string `json:"telemetry_ndjson_sha256"`
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// filteredNDJSON renders the telemetry snapshot with the host-clock
// gauges (run/wall_*) removed: they are legitimately non-deterministic,
// and simulation behaviour never reads them.
func filteredNDJSON(t *testing.T, snap *vanetsim.Telemetry) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := snap.NDJSON(&raw); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := bufio.NewScanner(&raw)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"run/wall`) {
			continue
		}
		out.Write(sc.Bytes())
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func runGoldenCase(t *testing.T, cfg vanetsim.TrialConfig, fig func(*vanetsim.TrialResult) vanetsim.Figure) goldenDigests {
	t.Helper()
	cfg.Duration = vanetsim.Seconds(30)
	cfg.CollectTrace = true
	cfg.Telemetry = true
	// The invariant checker must observe without perturbing: digests are
	// pinned with it armed, so any behavioural leak fails the gate.
	cfg.Check = true
	r := vanetsim.RunTrial(cfg)
	if n := len(r.Violations); n > 0 {
		t.Fatalf("%d invariant violation(s), first: %v", n, r.Violations[0].Error())
	}

	var tr bytes.Buffer
	if err := trace.WriteAll(&tr, r.Trace); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	return goldenDigests{
		Trace:      sha(tr.Bytes()),
		FigureCSV:  sha([]byte(fig(r).CSV())),
		DelayTable: sha([]byte(vanetsim.FormatDelayTable(vanetsim.DelayTable(r)))),
		Telemetry:  sha(filteredNDJSON(t, r.Telemetry)),
	}
}

// checkGolden compares got against the pinned digests, or — under
// -update-golden — merges got into the golden file, leaving keys owned by
// other tests untouched.
func checkGolden(t *testing.T, got map[string]goldenDigests) {
	t.Helper()
	if *updateGolden {
		merged := map[string]goldenDigests{}
		if raw, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(raw, &merged); err != nil {
				t.Fatal(err)
			}
		}
		for name, g := range got {
			merged[name] = g
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", goldenPath, len(merged))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file (run with -update-golden)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: output digests changed:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

func TestHotPathDeterminismGolden(t *testing.T) {
	checkGolden(t, map[string]goldenDigests{
		"trial1-tdma":  runGoldenCase(t, vanetsim.Trial1(), vanetsim.Fig5),
		"trial3-80211": runGoldenCase(t, vanetsim.Trial3(), vanetsim.Fig11),
	})
}
