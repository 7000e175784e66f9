package sim

import "slices"

// Epoch draining: a batch alternative to the Step pop loop for the common
// discrete-event pattern where many events share one timestamp (TDMA slot
// boundaries, beacon phases). The serial loop pays a full root-to-leaf
// siftDown per pop; DrainEpoch instead peels the whole equal-timestamp
// cohort off the heap in one structural repair and fires it from a flat
// slice.
//
// The peel exploits a property of the (at, seq) min-heap: every node whose
// timestamp equals the minimum has a parent with the same timestamp (the
// parent is no later, and nothing is earlier), so the cohort is a subtree
// hanging from the root. Collecting it is a bounded BFS, and after the
// matching nodes are lifted out the vacated positions are exactly that
// subtree — refilling them from the tail and running Floyd's sift-down
// pass over the refilled positions (deepest first) restores the invariant
// without touching any undisturbed branch.
//
// Execution order is the scheduler's documented contract, unchanged: equal
// timestamps fire in scheduling order (seq). Events scheduled *during* the
// batch for the same timestamp carry higher sequence numbers than every
// batched event, so draining again after the batch preserves exactly the
// serial loop's order. The property test in epoch_test.go pins this
// equivalence on randomized workloads.

// batchState holds DrainEpoch's reusable scratch so steady-state draining
// allocates nothing.
type batchState struct {
	nodes  []*timerNode // the cohort, in BFS collection order
	keys   []uint64     // seq<<batchIdxBits | collection index, sorted to fire
	holes  []int        // BFS queue, then: heap indices vacated by the cohort
	filled []int        // hole indices that received a tail node
}

// batchIdxBits is the width of the collection-index field packed into the
// low bits of a firing key. Sorting bare uint64s keeps the order pass free
// of pointer shuffling (and so of GC write barriers) and of comparison
// closures; the seq field above the index preserves exact FIFO order for
// any cohort smaller than 2^20 events and any run shorter than 2^44
// events. Cohorts past that fall back to a comparison sort.
const batchIdxBits = 20

// Node index sentinels while a node is out of the heap but not yet retired.
const (
	indexFree      = -1 // on the free list (set by release)
	indexBatched   = -2 // lifted into a DrainEpoch batch, will fire
	indexCancelled = -3 // cancelled while batched, must not fire
	indexMigrating = -4 // mid-flight inside drainTier, reassigned before it returns
)

// DrainEpoch fires every pending event scheduled for the earliest pending
// timestamp — including events that callbacks schedule for that same
// timestamp while the epoch runs — and returns the number fired. The
// execution sequence (order, clock values, step-hook observations,
// profiling counters) is identical to calling Step in a loop; only the
// heap traffic differs. It returns 0 if nothing is pending or the
// scheduler is stopped. Like Step, it must not be called from inside an
// event callback.
func (s *Scheduler) DrainEpoch() int {
	if s.stopped {
		return 0
	}
	if len(s.heap) == 0 {
		s.prime()
		if len(s.heap) == 0 {
			return 0
		}
	}
	// No re-prime inside the loop: soon- and far-heap events are strictly
	// later than the horizon, hence than t0, so the epoch lives entirely
	// in the near heap.
	t0 := s.heap[0].at
	total := 0
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at == t0 {
		total += s.drainCohort(t0)
	}
	return total
}

// RunEpochs fires events in epoch batches until none remain at or before
// deadline, then advances the clock to the deadline — byte-for-byte the
// execution RunUntil produces, batched.
func (s *Scheduler) RunEpochs(deadline Time) {
	for !s.stopped {
		if len(s.heap) == 0 {
			s.prime()
		}
		if len(s.heap) == 0 || s.heap[0].at > deadline {
			break
		}
		s.drainCohort(s.heap[0].at)
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// peelThreshold is how many events of an epoch fire through plain pops
// before the batch peel takes over. Small cohorts thereby cost exactly
// what the serial loop costs — the peel's fixed overhead only buys its
// keep once a timestamp is shared by many tens of events.
const peelThreshold = 16

// drainCohort fires events scheduled for t0 — at least one, at most all
// currently pending — in sequence order. t0 must equal s.heap[0].at.
// Events that callbacks add for t0 are picked up either by the peel
// (which re-reads the heap) or by the caller's re-drain loop; either way
// they carry higher sequence numbers than everything already pending, so
// serial order is preserved.
func (s *Scheduler) drainCohort(t0 Time) int {
	for fired := 0; ; {
		if len(s.heap) == 0 || s.heap[0].at != t0 || s.stopped {
			return fired
		}
		if fired >= peelThreshold {
			return fired + s.peelCohort(t0)
		}
		s.fireNode(s.popMin())
		fired++
	}
}

// peelCohort lifts the whole equal-timestamp subtree out of the heap in
// one structural repair and fires it from a flat batch. t0 must equal
// s.heap[0].at.
func (s *Scheduler) peelCohort(t0 Time) int {
	h := s.heap

	// Collect the cohort breadth-first, using b.holes as the BFS queue.
	// BFS of a heap subtree emits indices in ascending order (children of
	// earlier parents precede children of later parents, and a parent
	// always precedes its children), so the vacated positions come out
	// pre-sorted for the refill below.
	b := &s.batch
	b.nodes, b.holes = b.nodes[:0], b.holes[:0]
	b.holes = append(b.holes, 0)
	for qi := 0; qi < len(b.holes); qi++ {
		i := b.holes[qi]
		b.nodes = append(b.nodes, h[i].n)
		h[i].n.index = indexBatched
		if l := 2*i + 1; l < len(h) && h[l].at == t0 {
			b.holes = append(b.holes, l)
		}
		if r := 2*i + 2; r < len(h) && h[r].at == t0 {
			b.holes = append(b.holes, r)
		}
	}

	// Refill the vacated subtree from the heap tail. Holes are filled in
	// ascending index order so that when the tail runs out, every hole at
	// or past the shrunken end simply falls off. A slot is dead — a hole,
	// or the source of an earlier move — exactly when its node's index
	// disagrees with its position, so no nil-marking pass (and none of its
	// GC write-barrier traffic) is needed. The Floyd pass then runs
	// deepest-first over the refilled positions: each refilled node's
	// in-range ancestors are themselves refilled holes (the cohort is
	// up-closed), so sifting in descending index order re-establishes the
	// invariant exactly as build-heap would.
	last := len(h) - 1
	b.filled = b.filled[:0]
	for _, i := range b.holes {
		for last >= 0 && h[last].n.index != last {
			last--
		}
		if i >= last {
			break
		}
		h[i] = h[last]
		h[i].n.index = i
		last--
		b.filled = append(b.filled, i)
	}
	for last >= 0 && h[last].n.index != last {
		last--
	}
	s.heap = h[:last+1]
	for j := len(b.filled) - 1; j >= 0; j-- {
		s.siftDown(b.filled[j])
	}

	// The cohort fires in sequence order — equal timestamps make seq the
	// whole key, so sorting the packed keys is sorting by seq.
	nodes := b.nodes
	b.keys = b.keys[:0]
	if len(nodes) < 1<<batchIdxBits && s.seq < 1<<(64-batchIdxBits) {
		for bi, n := range nodes {
			b.keys = append(b.keys, n.seq<<batchIdxBits|uint64(bi))
		}
		slices.Sort(b.keys)
	} else {
		// A cohort too large (or a run too long) for packed keys: sort
		// node pointers directly. Never reached by the repo's scenarios.
		slices.SortFunc(nodes, func(a, c *timerNode) int {
			if a.seq < c.seq {
				return -1
			}
			return 1
		})
		for bi := range nodes {
			b.keys = append(b.keys, uint64(bi))
		}
	}

	fired := 0
	for ki := 0; ki < len(b.keys); ki++ {
		n := nodes[b.keys[ki]&(1<<batchIdxBits-1)]
		if n.index == indexCancelled {
			// Cancelled by an earlier callback in this batch: retire the
			// node now that the batch no longer needs it.
			n.index = indexFree
			s.free = append(s.free, n)
			continue
		}
		if s.stopped {
			// Stop keeps pending events pending: return the unfired tail
			// to the heap. Sequence numbers are preserved, so relative
			// order survives the round trip.
			for _, key := range b.keys[ki:] {
				m := nodes[key&(1<<batchIdxBits-1)]
				if m.index == indexCancelled {
					m.index = indexFree
					s.free = append(s.free, m)
					continue
				}
				s.push(m)
			}
			break
		}
		if s.stepHook != nil {
			s.stepHook(s.now, n.at)
		}
		s.now = n.at
		s.executed++
		s.byKind[n.kind]++
		fn, fnArg, arg := n.fn, n.fnArg, n.arg
		s.release(n)
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
		fired++
	}
	// Scratch pointers left in the backing array pin nothing extra: timer
	// nodes live for the scheduler's lifetime through the free list.
	b.nodes = b.nodes[:0]
	return fired
}

// fireNode advances the clock to n and invokes its callback — the body of
// Step, shared with the thin-epoch fast path.
func (s *Scheduler) fireNode(n *timerNode) {
	if s.stepHook != nil {
		s.stepHook(s.now, n.at)
	}
	s.now = n.at
	s.executed++
	s.byKind[n.kind]++
	fn, fnArg, arg := n.fn, n.fnArg, n.arg
	s.release(n)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
}
