package sim

import (
	"testing"
	"testing/quick"
)

// epochTrace is everything observable about an execution: which events
// fired in what order, every clock advance the step hook saw, and the
// scheduler's final profile. Two engines are equivalent iff their traces
// are identical.
type epochTrace struct {
	fired    []int
	hops     []Time // (from, to) pairs, flattened
	executed uint64
	now      Time
	pending  int
}

func (a epochTrace) equal(b epochTrace) bool {
	if a.executed != b.executed || a.now != b.now || a.pending != b.pending {
		return false
	}
	if len(a.fired) != len(b.fired) || len(a.hops) != len(b.hops) {
		return false
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			return false
		}
	}
	for i := range a.hops {
		if a.hops[i] != b.hops[i] {
			return false
		}
	}
	return true
}

// epochOp is one quick-generated scheduling operation. Delay is quantized
// hard so many events collide on the same timestamp; Chain makes the
// callback schedule a follow-up (possibly zero-delay, i.e. same epoch);
// CancelVictim makes the callback cancel an earlier-scheduled timer, which
// inside a fat epoch exercises cancellation of already-batched nodes.
type epochOp struct {
	Delay        uint8
	Chain        uint8
	CancelVictim uint8
}

// runEpochProgram executes the op program on one scheduler, driven either
// by the serial Step loop or by DrainEpoch, and returns the trace.
func runEpochProgram(ops []epochOp, drain bool) epochTrace {
	s := New()
	var tr epochTrace
	s.SetStepHook(func(from, to Time) { tr.hops = append(tr.hops, from, to) })
	timers := make([]Timer, len(ops))
	for i, o := range ops {
		i, o := i, o
		at := Time(o.Delay%16) / 4
		timers[i] = s.Schedule(at, func() {
			tr.fired = append(tr.fired, i)
			if o.CancelVictim != 0 {
				timers[int(o.CancelVictim)%len(ops)].Cancel()
			}
			if o.Chain%3 == 0 && o.Chain != 0 {
				chained := i + len(ops)
				s.Schedule(Time(o.Chain%4)/4, func() {
					tr.fired = append(tr.fired, chained)
				})
			}
		})
	}
	if drain {
		for s.DrainEpoch() > 0 {
		}
	} else {
		for s.Step() {
		}
	}
	tr.executed = s.Executed()
	tr.now = s.Now()
	tr.pending = s.Pending()
	return tr
}

// TestDrainEpochMatchesStepLoop is the epoch-engine property test: on
// arbitrary programs of colliding timestamps, same-timestamp chained
// reschedules, and mid-epoch cancellations, DrainEpoch must produce the
// exact execution trace of the serial pop loop — same firing order, same
// clock hops, same profile.
func TestDrainEpochMatchesStepLoop(t *testing.T) {
	f := func(ops []epochOp) bool {
		if len(ops) == 0 {
			return true
		}
		return runEpochProgram(ops, false).equal(runEpochProgram(ops, true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainEpochCancelInsideBatch pins the semantics the property test
// relies on: a callback cancelling a later event in the same epoch
// prevents it from firing, exactly as the serial loop would, and the
// cancelled node's storage is recycled safely afterwards.
func TestDrainEpochCancelInsideBatch(t *testing.T) {
	s := New()
	var fired []string
	var victim Timer
	s.Schedule(1, func() {
		fired = append(fired, "killer")
		victim.Cancel()
	})
	victim = s.Schedule(1, func() { fired = append(fired, "victim") })
	s.Schedule(1, func() { fired = append(fired, "bystander") })
	if n := s.DrainEpoch(); n != 2 {
		t.Fatalf("DrainEpoch fired %d, want 2", n)
	}
	if len(fired) != 2 || fired[0] != "killer" || fired[1] != "bystander" {
		t.Fatalf("fired %v, want [killer bystander]", fired)
	}
	if victim.Active() {
		t.Fatal("cancelled batched timer still active")
	}
	// The recycled node must be a clean tenancy for the next event.
	ok := false
	s.Schedule(1, func() { ok = true })
	s.Run()
	if !ok {
		t.Fatal("node recycled from a batch-cancelled timer did not fire")
	}
}

// TestDrainEpochStopMidBatch checks Stop's contract under batching: events
// of the epoch not yet fired when a callback stops the scheduler remain
// pending, in order, and fire on a later resume.
func TestDrainEpochStopMidBatch(t *testing.T) {
	s := New()
	var fired []int
	for i := 0; i < 8; i++ {
		i := i
		s.Schedule(2, func() {
			fired = append(fired, i)
			if i == 2 {
				s.Stop()
			}
		})
	}
	s.DrainEpoch()
	if len(fired) != 3 {
		t.Fatalf("fired %d events before stop, want 3", len(fired))
	}
	if s.Pending() != 5 {
		t.Fatalf("pending after stop = %d, want 5", s.Pending())
	}
	// A fresh scheduler run (stopped is sticky) is out of scope; verify
	// the survivors kept their order by inspecting via the serial loop.
	s.stopped = false
	for s.Step() {
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("order broken across stop/resume: %v", fired)
		}
	}
	if len(fired) != 8 {
		t.Fatalf("fired %d total, want 8", len(fired))
	}
}

// TestDrainEpochSameTimestampChain checks that zero-delay reschedules made
// by epoch callbacks join the same epoch, after every already-batched
// event, in scheduling order — the serial FIFO contract.
func TestDrainEpochSameTimestampChain(t *testing.T) {
	s := New()
	var fired []int
	s.Schedule(1, func() {
		fired = append(fired, 0)
		s.Schedule(0, func() { fired = append(fired, 10) })
	})
	s.Schedule(1, func() { fired = append(fired, 1) })
	if n := s.DrainEpoch(); n != 3 {
		t.Fatalf("DrainEpoch fired %d, want 3", n)
	}
	want := []int{0, 1, 10}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if s.Now() != 1 {
		t.Fatalf("clock = %v, want 1", s.Now())
	}
}

// TestRunEpochsMatchesRunUntil drives the batched deadline loop against
// RunUntil on randomized programs cut at an arbitrary deadline.
func TestRunEpochsMatchesRunUntil(t *testing.T) {
	f := func(ops []epochOp, deadline8 uint8) bool {
		if len(ops) == 0 {
			return true
		}
		deadline := Time(deadline8%20) / 8
		run := func(batched bool) epochTrace {
			s := New()
			var tr epochTrace
			timers := make([]Timer, len(ops))
			for i, o := range ops {
				i, o := i, o
				timers[i] = s.Schedule(Time(o.Delay%16)/4, func() {
					tr.fired = append(tr.fired, i)
					if o.CancelVictim != 0 {
						timers[int(o.CancelVictim)%len(ops)].Cancel()
					}
				})
			}
			if batched {
				s.RunEpochs(deadline)
			} else {
				s.RunUntil(deadline)
			}
			tr.executed = s.Executed()
			tr.now = s.Now()
			tr.pending = s.Pending()
			return tr
		}
		return run(false).equal(run(true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
