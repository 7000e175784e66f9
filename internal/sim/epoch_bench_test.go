package sim

import "testing"

// The epoch benchmarks compare DrainEpoch against the serial Step loop on
// the two regimes that matter: fat epochs (many events per timestamp —
// TDMA slot boundaries, phase-aligned beacons), where the batch peel is
// the point, and thin epochs (every timestamp unique — the
// asynchronous 802.11 arrival stream), where DrainEpoch must not regress
// past its single-node fast path.

// benchLoad schedules waves×perWave events; each callback reschedules
// itself `rounds` times so the heap stays at steady-state occupancy, the
// regime the dense scenarios run in.
func benchLoad(s *Scheduler, waves, perWave, rounds int, spread Time) {
	var fn func(any)
	fn = func(a any) {
		r := a.(int)
		if r > 0 {
			s.ScheduleArgKind(KindPHY, Time(1)+spread*Time(s.Executed()%7), fn, r-1)
		}
	}
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			s.ScheduleArgKind(KindPHY, Time(w)+spread*Time(i%7), fn, rounds)
		}
	}
}

func runEpochBench(b *testing.B, perWave int, spread Time) {
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			benchLoad(s, 8, perWave, 6, spread)
			for s.Step() {
			}
		}
	})
	b.Run("drain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			benchLoad(s, 8, perWave, 6, spread)
			for s.DrainEpoch() > 0 {
			}
		}
	})
}

// BenchmarkEpochFat: 512 events per timestamp, all colliding.
func BenchmarkEpochFat(b *testing.B) { runEpochBench(b, 512, 0) }

// BenchmarkEpochMixed: clusters of ~73 events per timestamp.
func BenchmarkEpochMixed(b *testing.B) { runEpochBench(b, 512, Microsecond) }

// BenchmarkEpochThin: effectively unique timestamps — the fast path.
func BenchmarkEpochThin(b *testing.B) { runEpochBench(b, 512, 0.01) }
