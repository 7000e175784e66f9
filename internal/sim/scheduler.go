// Package sim provides the deterministic discrete-event core that every
// other subsystem of the simulator is built on: a virtual clock, an event
// scheduler with cancellable timers, and a reproducible random number
// generator.
//
// The engine is single-threaded by design. Determinism — the property that
// the same seed and the same scenario produce the same trace, bit for bit —
// is what makes the reproduction of the paper's figures meaningful, so the
// scheduler breaks ties between simultaneous events by scheduling order
// (FIFO) rather than by map iteration or goroutine interleaving.
//
// The scheduler is also the simulator's hottest loop: every frame, timer,
// and mobility manoeuvre passes through it several times. It therefore
// avoids container/heap's interface boxing with an inlined concrete
// min-heap, and recycles event nodes through a per-scheduler free list so
// steady-state scheduling performs no heap allocation at all. Timer
// handles are generation-checked values: a handle kept past its event's
// firing (or cancellation) goes permanently inert, even after the
// underlying node has been recycled for a new event.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since the start of the run.
//
// A float64 carries 53 bits of mantissa: at nanosecond granularity this is
// exact past 10^6 simulated seconds, far beyond any scenario in this
// repository. This mirrors ns-2, which the paper used, and keeps arithmetic
// with physical quantities (metres, metres/second) direct.
type Time float64

// Common durations, usable as Time deltas.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Seconds returns the time as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time with microsecond precision, e.g. "12.000350s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)) }

// Forever is a time later than any event a scenario can schedule. It is the
// natural "no deadline" sentinel for RunUntil.
const Forever = Time(math.MaxFloat64)

// EventKind classifies a scheduled event by the stack layer that created
// it, for scheduler profiling. Tagging is optional: events scheduled via
// the plain Schedule/At are KindOther.
type EventKind uint8

// Event kinds, one per instrumented layer.
const (
	KindOther EventKind = iota
	KindPHY
	KindMAC
	KindRouting
	KindTransport
	KindApp
	KindMobility
	KindObs // measurement/recording machinery (animation, samplers)

	numKinds
)

var kindNames = [numKinds]string{
	"other", "phy", "mac", "routing", "transport", "app", "mobility", "obs",
}

// String returns the kind's profile label.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// timerNode is the scheduler-owned state of one scheduled event. Nodes are
// recycled through the owning scheduler's free list; gen distinguishes the
// node's current tenancy from stale Timer handles issued for earlier ones.
type timerNode struct {
	at    Time
	seq   uint64
	fn    func()    // nil when fnArg carries the callback
	fnArg func(any) // argument-taking callback, avoids per-event closures
	arg   any
	owner *Scheduler
	gen   uint64
	kind  EventKind
	index int // position in the heap, -1 while free
}

// Timer is a handle to a scheduled event. It is a small value: copy it
// freely. The zero value is inert — Cancel is a no-op and Active reports
// false — so a struct field of type Timer needs no initialisation and can
// be reset by assigning Timer{}. A handle kept after its event fired or
// was cancelled is equally inert: the scheduler recycles event storage,
// and the handle's generation check makes stale use safe.
type Timer struct {
	n   *timerNode
	gen uint64
	at  Time
}

// Cancel prevents the timer from firing and removes it from the pending
// heap immediately (O(log n) via the maintained heap index), so cancelled
// timers do not linger until their deadline. Cancelling an already-fired,
// already-cancelled, or zero-value timer is a no-op.
func (t Timer) Cancel() {
	n := t.n
	if n == nil || n.gen != t.gen {
		return
	}
	n.owner.remove(n)
}

// Postpone moves a pending timer's deadline later, in place, and returns
// the replacement handle with ok true. It consumes a fresh sequence
// number, so the firing order is exactly what Cancel followed by
// re-scheduling the same callback at the new time would produce — but the
// node is repositioned inside its heap instead of being removed and
// re-inserted, which is markedly cheaper for the extend-busy pattern where
// a deadline is pushed back many times per firing. Unlike the
// cancel-and-reschedule it replaces, outstanding copies of the old handle
// stay valid and refer to the postponed event.
//
// Postpone declines (ok false, timer untouched) when the event already
// fired or was cancelled, when at precedes the current deadline, or when
// the node is temporarily outside its heap mid-DrainEpoch; the caller then
// falls back to Cancel plus a fresh schedule.
func (t Timer) Postpone(at Time) (Timer, bool) {
	n := t.n
	if n == nil || n.gen != t.gen || n.index < 0 || at < n.at || math.IsNaN(float64(at)) {
		return t, false
	}
	s := n.owner
	n.at = at
	n.seq = s.seq
	s.seq++
	e := heapEntry{at: at, seq: n.seq, n: n}
	switch {
	case n.index&farBit != 0:
		// Already in the far heap; the key only grew, so sift down.
		i := n.index &^ farBit
		s.far[i] = e
		tierSiftDown(s.far, farBit, i)
	case n.index&soonBit != 0:
		// In the soon heap: sift down in place, or move outward when the
		// new deadline crossed the soon horizon.
		i := n.index &^ soonBit
		if at <= s.soonHorizon {
			s.soon[i] = e
			tierSiftDown(s.soon, soonBit, i)
		} else {
			tierRemoveAt(&s.soon, soonBit, i)
			j := len(s.far)
			n.index = farBit | j
			s.far = append(s.far, e)
			tierSiftUp(s.far, farBit, j)
		}
	case at <= s.horizon:
		// Stays in the near heap; the key only grew, so sift down.
		i := n.index
		s.heap[i] = e
		s.siftDown(i)
	default:
		// Crossed the horizon: detach from near, insert into soon or far.
		i := n.index
		h := s.heap
		last := len(h) - 1
		moved := h[last]
		h[last] = heapEntry{}
		s.heap = h[:last]
		if i != last {
			s.heap[i] = moved
			moved.n.index = i
			s.siftDown(i)
			if moved.n.index == i {
				s.siftUp(i)
			}
		}
		if at <= s.soonHorizon {
			j := len(s.soon)
			n.index = soonBit | j
			s.soon = append(s.soon, e)
			tierSiftUp(s.soon, soonBit, j)
		} else {
			j := len(s.far)
			n.index = farBit | j
			s.far = append(s.far, e)
			tierSiftUp(s.far, farBit, j)
		}
	}
	return Timer{n: n, gen: n.gen, at: at}, true
}

// Active reports whether the timer is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool { return t.n != nil && t.n.gen == t.gen }

// When returns the simulated time the timer is (or was) set to fire. The
// zero value reports 0.
func (t Timer) When() Time { return t.at }

// Scheduler is the discrete-event executive: it owns the virtual clock and
// the pending-event queue. The zero value is a ready-to-use scheduler at
// time 0.
type Scheduler struct {
	now         Time
	seq         uint64
	heap        []heapEntry  // near heap: pending events with at <= horizon
	soon        []heapEntry  // soon heap: horizon < at <= soonHorizon
	far         []heapEntry  // far heap: pending events with at > soonHorizon
	horizon     Time         // near/soon split point, monotone
	soonHorizon Time         // soon/far split point, monotone, >= horizon
	free        []*timerNode // recycled nodes, LIFO
	stopped     bool

	executed   uint64           // number of events fired, for instrumentation
	byKind     [numKinds]uint64 // events fired, split by EventKind
	maxPending int              // pending-heap high-water mark

	// stepHook, when non-nil, observes every clock advance just before it
	// happens (from current time to the firing event's time). It exists for
	// the runtime invariant checker; the disabled state costs Step one nil
	// comparison.
	stepHook func(from, to Time)

	// batch is DrainEpoch's reusable scratch (see epoch.go).
	batch batchState

	// mig is prime's reusable migration scratch.
	mig migScratch
}

// migScratch holds drainTier's reusable state so steady-state horizon
// migration allocates nothing.
type migScratch struct {
	ents   []heapEntry // the migrating batch, in BFS collection order
	holes  []int       // BFS queue, then: vacated source positions
	filled []int       // hole indices that received a tail entry
}

// SetStepHook installs an observer called on every Step with the clock's
// current and next value, before the advance. Pass nil to remove it. The
// hook must not schedule or cancel events.
func (s *Scheduler) SetStepHook(fn func(from, to Time)) { s.stepHook = fn }

// New returns a scheduler with its clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of events fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// ExecutedByKind returns per-kind fired-event counts, indexed by
// EventKind (length numKinds; use EventKind.String for labels).
func (s *Scheduler) ExecutedByKind() []uint64 {
	out := make([]uint64, numKinds)
	copy(out, s.byKind[:])
	return out
}

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return len(s.heap) + len(s.soon) + len(s.far) }

// MaxPending returns the pending-heap high-water mark: the largest number
// of simultaneously scheduled events seen so far.
func (s *Scheduler) MaxPending() int { return s.maxPending }

// Schedule runs fn after delay of simulated time and returns a cancellable
// handle. A zero delay schedules fn at the current time, after all events
// already scheduled for that time (FIFO tie-break). Schedule panics on a
// negative delay or NaN: scheduling into the past is always a simulator
// bug, and silently clamping it would hide causality violations.
func (s *Scheduler) Schedule(delay Time, fn func()) Timer {
	return s.ScheduleKind(KindOther, delay, fn)
}

// ScheduleKind is Schedule with an EventKind tag for scheduler profiling.
func (s *Scheduler) ScheduleKind(kind EventKind, delay Time, fn func()) Timer {
	if delay < 0 || math.IsNaN(float64(delay)) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	return s.AtKind(kind, s.now+delay, fn)
}

// ScheduleArgKind schedules fn(arg) after delay. Passing the argument
// through the scheduler lets hot paths reuse one long-lived callback
// instead of allocating a capturing closure per event; arg is typically a
// pooled struct pointer, which boxes into the any without allocating.
func (s *Scheduler) ScheduleArgKind(kind EventKind, delay Time, fn func(any), arg any) Timer {
	if delay < 0 || math.IsNaN(float64(delay)) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	if fn == nil {
		panic("sim: At with nil func")
	}
	return s.insert(kind, s.now+delay, nil, fn, arg)
}

// At runs fn at absolute simulated time t. It panics if t is in the past.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.AtKind(KindOther, t, fn)
}

// AtKind is At with an EventKind tag for scheduler profiling.
func (s *Scheduler) AtKind(kind EventKind, t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil func")
	}
	return s.insert(kind, t, fn, nil, nil)
}

// insert allocates (or recycles) a node, pushes it, and issues its handle.
func (s *Scheduler) insert(kind EventKind, t Time, fn func(), fnArg func(any), arg any) Timer {
	if t < s.now || math.IsNaN(float64(t)) {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, s.now))
	}
	var n *timerNode
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		n = &timerNode{owner: s}
	}
	n.at, n.seq, n.fn, n.fnArg, n.arg, n.kind = t, s.seq, fn, fnArg, arg, kind
	s.seq++
	s.push(n)
	if p := len(s.heap) + len(s.soon) + len(s.far); p > s.maxPending {
		s.maxPending = p
	}
	return Timer{n: n, gen: n.gen, at: t}
}

// release retires a fired or cancelled node: its generation bump turns all
// outstanding handles inert, and the callback references are dropped so the
// free list pins no closures or arguments.
func (s *Scheduler) release(n *timerNode) {
	n.gen++
	n.fn = nil
	n.fnArg = nil
	n.arg = nil
	n.index = indexFree
	s.free = append(s.free, n)
}

// Step fires the single earliest pending event. It returns false if no
// events remain or the scheduler has been stopped.
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	if len(s.heap) == 0 {
		s.prime()
		if len(s.heap) == 0 {
			return false
		}
	}
	// fireNode captures the callback and recycles the node before invoking
	// it, so a callback that immediately reschedules reuses this node's
	// storage.
	s.fireNode(s.popMin())
	return true
}

// Run fires events until none remain or Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline (if the run wasn't stopped early). Events scheduled
// after the deadline remain pending.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		if s.stopped {
			return
		}
		if len(s.heap) == 0 {
			s.prime()
		}
		if len(s.heap) == 0 || s.heap[0].at > deadline {
			break
		}
		s.fireNode(s.popMin())
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
// Pending events are kept; a stopped scheduler fires nothing further.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// The pending queue is a trio of hand-inlined binary min-heaps on
// (at, seq): the earliest deadline wins, equal deadlines fire in
// scheduling order. Heap entries carry the (at, seq) key inline next to
// the node pointer, so the sift loops compare keys without dereferencing
// nodes — on a heap of many thousands of pending events every such
// dereference is a likely cache miss, and the sift comparison is the
// scheduler's single hottest load. (A 4-ary layout was tried here and
// lost: the bottom-up pop below costs one comparison per level, so halving
// the levels while tripling the per-level comparisons is a net slowdown
// once keys are inline.) The sift loops move a hole instead of swapping,
// and node.index is maintained throughout so Cancel can remove from the
// middle in O(log n).
//
// The heaps split the queue at two moving horizons. Wireless workloads
// are sharply trimodal: the bulk of events are first-bit arrivals due
// within a couple of microseconds (propagation delay), MAC timers and
// frame-end events sit tens of microseconds to a millisecond out, and
// application/routing timers sit tens of milliseconds or seconds out. One
// combined heap forces every arrival to sift through thousands of
// far-future timers. The near heap holds events with at <= horizon and
// serves every pop; the soon heap holds (horizon, soonHorizon]; the far
// heap holds the rest. When the near heap drains, prime advances the
// horizon just past the soon heap's minimum (capped at soonHorizon) and
// migrates what now falls inside; when the soon heap drains too,
// primeSoon first refills it the same way from the far heap. The middle
// tier is what keeps migration cheap: the per-event churn of MAC-scale
// timers sifts through a heap holding only the next soonWindow of work —
// small enough to stay cache-resident — while the thousands of pending
// application timers are disturbed only once per soonWindow. Every pop
// still returns the global (at, seq) minimum — soon and far entries are
// strictly later than the horizon and so than every near entry — and
// equal keys never straddle a split, so the fired order is
// byte-identical to the single heap's.

// nearWindow is how far past the soon heap's minimum the horizon jumps
// on each prime: wide enough to keep a batch of in-flight arrivals near,
// narrow enough that the near heap stays small.
const nearWindow = 8 * Microsecond

// soonWindow is how far past the far heap's minimum the soon horizon
// jumps when the soon heap refills: wide enough to absorb the MAC/frame
// timer churn between refills, narrow enough that the soon heap stays a
// small fraction of the pending set.
const soonWindow = 8 * Millisecond

// farBit and soonBit mark node.index values that point into the far and
// soon heaps. Positions within any heap stay well below either bit, and
// the sentinel values used by DrainEpoch (indexFree and friends) stay
// negative.
const (
	farBit  = 1 << 30
	soonBit = 1 << 29
)

// heapEntry is one pending-queue slot: the ordering key, duplicated from
// the node, plus the node itself.
type heapEntry struct {
	at  Time
	seq uint64
	n   *timerNode
}

// lessEntry orders a before b by (at, seq).
func lessEntry(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push routes n into the near, soon, or far heap by its deadline.
func (s *Scheduler) push(n *timerNode) {
	e := heapEntry{at: n.at, seq: n.seq, n: n}
	switch {
	case n.at <= s.horizon:
		n.index = len(s.heap)
		s.heap = append(s.heap, e)
		s.siftUp(n.index)
	case n.at <= s.soonHorizon:
		i := len(s.soon)
		n.index = soonBit | i
		s.soon = append(s.soon, e)
		tierSiftUp(s.soon, soonBit, i)
	default:
		i := len(s.far)
		n.index = farBit | i
		s.far = append(s.far, e)
		tierSiftUp(s.far, farBit, i)
	}
}

// prime refills an empty near heap from the soon heap: the horizon
// advances to just past the soon minimum (never backwards, so the outer
// heaps' at > horizon invariant is preserved; never past soonHorizon, so
// the far heap's at > horizon invariant is preserved too) and every soon
// entry now at or below it migrates. When the soon heap is empty it is
// first refilled from the far heap. A no-op while the near heap has
// events.
func (s *Scheduler) prime() {
	if len(s.heap) != 0 {
		return
	}
	if len(s.soon) == 0 {
		s.primeSoon()
		if len(s.soon) == 0 {
			return
		}
	}
	h := s.soon[0].at + nearWindow
	if h > s.soonHorizon {
		h = s.soonHorizon
	}
	if h > s.horizon {
		s.horizon = h
	}
	// The near heap is empty here, so the migrated batch builds it with
	// one Floyd pass instead of a siftUp per entry.
	s.drainTier(&s.soon, soonBit, s.horizon)
	for _, e := range s.mig.ents {
		e.n.index = len(s.heap)
		s.heap = append(s.heap, e)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// primeSoon refills an empty soon heap from the far heap, advancing the
// soon horizon to just past the far minimum.
func (s *Scheduler) primeSoon() {
	if len(s.far) == 0 {
		return
	}
	if h := s.far[0].at + soonWindow; h > s.soonHorizon {
		s.soonHorizon = h
	}
	s.drainTier(&s.far, farBit, s.soonHorizon)
	for _, e := range s.mig.ents {
		e.n.index = soonBit | len(s.soon)
		s.soon = append(s.soon, e)
	}
	for i := len(s.soon)/2 - 1; i >= 0; i-- {
		tierSiftDown(s.soon, soonBit, i)
	}
}

// drainTier lifts every entry of the tier heap *hp with at <= limit into
// s.mig.ents (overwriting the previous batch) and repairs the heap with
// one structural pass. The lifted set is up-closed — a lifted entry's
// parent is no later, so it is lifted too — which makes this exactly
// peelCohort's repair with a threshold in place of the equal-timestamp
// test: refill the vacated subtree from the tail, then Floyd-sift the
// refilled positions deepest-first. Lifting k entries this way costs
// O(k) collection plus the repair, where popping them one by one would
// cost a full root-to-leaf sift through the whole tier each.
func (s *Scheduler) drainTier(hp *[]heapEntry, tag int, limit Time) {
	m := &s.mig
	m.ents = m.ents[:0]
	h := *hp
	if len(h) == 0 || h[0].at > limit {
		return
	}
	m.holes = m.holes[:0]
	m.holes = append(m.holes, 0)
	for qi := 0; qi < len(m.holes); qi++ {
		i := m.holes[qi]
		m.ents = append(m.ents, h[i])
		h[i].n.index = indexMigrating
		if l := 2*i + 1; l < len(h) && h[l].at <= limit {
			m.holes = append(m.holes, l)
		}
		if r := 2*i + 2; r < len(h) && h[r].at <= limit {
			m.holes = append(m.holes, r)
		}
	}
	// A slot is dead — lifted, or the source of an earlier move — exactly
	// when its node's index disagrees with its position (see peelCohort).
	last := len(h) - 1
	m.filled = m.filled[:0]
	for _, i := range m.holes {
		for last >= 0 && h[last].n.index != tag|last {
			last--
		}
		if i >= last {
			break
		}
		h[i] = h[last]
		h[i].n.index = tag | i
		last--
		m.filled = append(m.filled, i)
	}
	for last >= 0 && h[last].n.index != tag|last {
		last--
	}
	*hp = h[:last+1]
	for j := len(m.filled) - 1; j >= 0; j-- {
		tierSiftDown(h[:last+1], tag, m.filled[j])
	}
}

// popMin removes and returns the earliest node, repairing bottom-up
// (Wegener's heapsort variant): the root hole is filled by promoting the
// min-child chain to the bottom — one comparison per level instead of the
// classic siftDown's two — and the detached tail element is re-inserted at
// the bottom hole with siftUp. Tail slots hold heap-bottom material, so
// the siftUp almost always stops immediately, roughly halving the
// comparisons on the scheduler's single hottest operation.
func (s *Scheduler) popMin() *timerNode {
	h := s.heap
	n := h[0].n
	last := len(h) - 1
	tail := h[last]
	h[last] = heapEntry{}
	s.heap = h[:last]
	if last == 0 {
		return n
	}
	h = s.heap
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		j := l
		if r := l + 1; r < last && lessEntry(h[r], h[l]) {
			j = r
		}
		c := h[j]
		h[i] = c
		c.n.index = i
		i = j
	}
	h[i] = tail
	tail.n.index = i
	s.siftUp(i)
	return n
}

// remove deletes n from an arbitrary heap position and releases it.
func (s *Scheduler) remove(n *timerNode) {
	if n.index < 0 {
		// The node is out of the heap inside a DrainEpoch batch. Mark it
		// cancelled so the batch skips it; the batch owns retirement, so
		// the node must not reach the free list (and thus a new tenancy)
		// while the batch still points at it.
		n.gen++
		n.fn = nil
		n.fnArg = nil
		n.arg = nil
		n.index = indexCancelled
		return
	}
	if n.index&farBit != 0 {
		tierRemoveAt(&s.far, farBit, n.index&^farBit)
		s.release(n)
		return
	}
	if n.index&soonBit != 0 {
		tierRemoveAt(&s.soon, soonBit, n.index&^soonBit)
		s.release(n)
		return
	}
	i := n.index
	h := s.heap
	last := len(h) - 1
	moved := h[last]
	h[last] = heapEntry{}
	s.heap = h[:last]
	if i != last {
		s.heap[i] = moved
		moved.n.index = i
		s.siftDown(i)
		if moved.n.index == i {
			s.siftUp(i)
		}
	}
	s.release(n)
}

// siftUp moves the entry at j toward the root until its parent is earlier.
func (s *Scheduler) siftUp(j int) {
	h := s.heap
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !lessEntry(e, p) {
			break
		}
		h[j] = p
		p.n.index = j
		j = i
	}
	h[j] = e
	e.n.index = j
}

// The outer heaps' operations mirror the near heap's with tag-marked
// indices (soonBit or farBit). They see only inserts, cancels, and the
// prime migrations — never the per-event pop traffic — so a plain
// top-down pop suffices.

// tierRemoveAt deletes the entry at position i of the tier heap *hp.
func tierRemoveAt(hp *[]heapEntry, tag, i int) {
	h := *hp
	last := len(h) - 1
	moved := h[last]
	h[last] = heapEntry{}
	*hp = h[:last]
	if i != last {
		h = h[:last]
		h[i] = moved
		moved.n.index = tag | i
		tierSiftDown(h, tag, i)
		if moved.n.index == tag|i {
			tierSiftUp(h, tag, i)
		}
	}
}

// tierSiftUp moves the tier entry at j toward the root until its parent
// is earlier.
func tierSiftUp(h []heapEntry, tag, j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !lessEntry(e, p) {
			break
		}
		h[j] = p
		p.n.index = tag | j
		j = i
	}
	h[j] = e
	e.n.index = tag | j
}

// tierSiftDown moves the tier entry at i toward the leaves until both
// children are later.
func tierSiftDown(h []heapEntry, tag, i int) {
	e := h[i]
	size := len(h)
	for {
		l := 2*i + 1
		if l >= size {
			break
		}
		j := l
		if r := l + 1; r < size && lessEntry(h[r], h[l]) {
			j = r
		}
		c := h[j]
		if !lessEntry(c, e) {
			break
		}
		h[i] = c
		c.n.index = tag | i
		i = j
	}
	h[i] = e
	e.n.index = tag | i
}

// siftDown moves the entry at i toward the leaves until both children are
// later.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	e := h[i]
	size := len(h)
	for {
		l := 2*i + 1
		if l >= size {
			break
		}
		j := l
		if r := l + 1; r < size && lessEntry(h[r], h[l]) {
			j = r
		}
		c := h[j]
		if !lessEntry(c, e) {
			break
		}
		h[i] = c
		c.n.index = i
		i = j
	}
	h[i] = e
	e.n.index = i
}
