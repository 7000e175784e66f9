package canon

import (
	"bytes"
	"reflect"
	"testing"

	"vanetsim/internal/fault"
	"vanetsim/internal/scenario"
)

// executionOnly names the config fields the cache key deliberately omits:
// each only chooses how a run executes or what it records on the side,
// and is proven byte-identical on the artifact, so it must not split the
// cache. Every other exported field must reach the canonical encoding.
var executionOnly = map[string]bool{
	"TrialConfig.CollectTrace":          true,
	"TrialConfig.AnimInterval":          true,
	"TrialConfig.Spans":                 true,
	"DenseHighwayConfig.Spans":          true,
	"DenseHighwayConfig.DisableCulling": true,
}

// TestCacheKeyCoversEveryField mutates every exported field of the trial
// and dense-highway configs, recursing into the fault plan, and requires
// the canonical encoding to change — unless the field is on the
// execution-only list, in which case it must not change. A field added to
// either config without an encoding line (or a list entry) fails here
// instead of silently aliasing two different runs to one cache entry.
func TestCacheKeyCoversEveryField(t *testing.T) {
	trial := scenario.Trial1()
	// One live outage, so the slice's element fields are reachable.
	trial.Faults.Outages = []fault.Outage{{Node: 1, Start: 2, Duration: 3}}
	seen := map[string]bool{}
	checkKeyFields(t, "TrialConfig", reflect.ValueOf(&trial).Elem(),
		func() []byte { return appendTrial(nil, &trial) }, seen)

	dense := scenario.DefaultDenseHighway(scenario.MAC80211, 240)
	checkKeyFields(t, "DenseHighwayConfig", reflect.ValueOf(&dense).Elem(),
		func() []byte { return appendDense(nil, &dense) }, seen)

	for name := range executionOnly {
		if !seen[name] {
			t.Errorf("execution-only entry %s names no config field", name)
		}
	}
}

// checkKeyFields walks v's exported fields under path, mutating each leaf
// in place, comparing encode() against the unmutated encoding, and
// restoring it.
func checkKeyFields(t *testing.T, path string, v reflect.Value, encode func() []byte, seen map[string]bool) {
	t.Helper()
	base := encode()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		name := path + "." + sf.Name
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			checkKeyFields(t, name, f, encode, seen)
			continue
		case reflect.Slice:
			if f.Len() == 0 {
				t.Fatalf("%s: empty slice in the base config; seed one element", name)
			}
			checkKeyFields(t, name+"[0]", f.Index(0), encode, seen)
			continue
		}
		seen[name] = true
		old := reflect.ValueOf(f.Interface())
		mutate(t, name, f)
		changed := !bytes.Equal(encode(), base)
		f.Set(old)
		switch {
		case executionOnly[name] && changed:
			t.Errorf("%s is listed execution-only but changes the cache key", name)
		case !executionOnly[name] && !changed:
			t.Errorf("%s does not reach the cache key: encode it (and bump Version) or list it execution-only", name)
		}
	}
}

// mutate moves a scalar field to a different value of its kind.
func mutate(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		t.Fatalf("%s: no mutation for kind %v; extend mutate", name, f.Kind())
	}
}
