package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// opClass sorts a workload's operations for the latency metrics: a miss
// runs a simulation, a hit answers from a result that already exists,
// and a study operation is timed by its caller as a study.
type opClass int

const (
	missOp opClass = iota
	hitOp
	studyOp
)

// bench accumulates one run's observations. Service clients record
// from two goroutines, so every mutation takes mu.
type bench struct {
	mu sync.Mutex
	// tr is non-nil only during the traced pass; observations made then
	// feed the per-layer metrics, never the end-to-end ones.
	tr *tracer

	hits, misses      []float64 // ms
	studies, restudys []float64 // s
	passes            []float64 // wall s
	heapPeaks         []float64 // MB
	setups            []float64 // s
	simS              float64   // simulated seconds over untraced passes
	ops               int       // completed operations over untraced passes

	attempted, failed int
	failures          []string

	// Traced-pass observations.
	tel       counts
	simWallS  float64 // wall seconds inside simulating calls
	analysisS float64 // wall seconds inside analysis calls
}

// traced reports whether the current pass is the traced one.
func (b *bench) traced() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tr != nil
}

// fail records a failed operation or correctness check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check, failing it when problem is not "".
func (b *bench) check(problem string) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if problem != "" {
		b.fail("%s", problem)
	}
}

// op times one operation of a workload. Untraced, its latency joins the
// class's samples; traced, it becomes a span under parent. An error
// counts the operation as failed. It returns the elapsed time.
func (b *bench) op(class opClass, name string, trace, parent int64, f func() error) time.Duration {
	return b.opID(class, name, trace, b.tr.id(), parent, f)
}

// opID is op with a span ID allocated by the caller, for operations
// whose inner calls record child spans.
func (b *bench) opID(class opClass, name string, trace, id, parent int64, f func() error) time.Duration {
	start := time.Now()
	err := f()
	end := time.Now()
	d := end.Sub(start)
	b.mu.Lock()
	b.attempted++
	if b.tr != nil {
		b.tr.add(trace, id, parent, name, start, end)
	} else {
		b.ops++
		switch ms := float64(d) / 1e6; class {
		case hitOp:
			b.hits = append(b.hits, ms)
		case missOp:
			b.misses = append(b.misses, ms)
		}
	}
	b.mu.Unlock()
	if err != nil {
		b.fail("%s: %v", name, err)
	}
	return d
}

// resetSamples drops the latency samples of set-up operations, which
// are checked but not part of the measured passes.
func (b *bench) resetSamples() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hits, b.misses, b.ops, b.simS = nil, nil, 0, 0
}

// addSim credits simulated seconds to the untraced throughput total.
func (b *bench) addSim(s float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		b.simS += s
	}
}

// study records a study and its re-analysis (untraced passes only).
func (b *bench) study(studyS, restudyS float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		b.studies = append(b.studies, studyS)
		b.restudys = append(b.restudys, restudyS)
	}
}

// observeSim records, on the traced pass only, the wall time of one
// simulating call and the run's telemetry text.
func (b *bench) observeSim(d time.Duration, telemetry string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr != nil {
		b.simWallS += d.Seconds()
		b.tel.add(telemetry)
	}
}

// observeAnalysis records, on the traced pass only, time spent in the
// analysis calls.
func (b *bench) observeAnalysis(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr != nil {
		b.analysisS += d.Seconds()
	}
}

// tracer keeps client-side spans in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one client-side span: a call into a public function or one
// HTTP request. Spans of one pass share Trace; Parent links a call to
// the pass or request that caused it.
type spanRec struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span ID (0 from a nil tracer).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(trace, id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapWatch samples the live-object heap every couple of milliseconds
// and keeps the peak since the last take.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(heapNow())
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	v := heapNow()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and restarts the
// window at the current heap size.
func (h *heapWatch) take() float64 {
	h.observe()
	return float64(h.peak.Swap(heapNow())) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}
