package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput: one
// event scheduling its successor, the simulator's inner-loop cost
// floor.
func BenchmarkEventThroughput(b *testing.B) {
	var e Engine
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	e.Run(nil)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineStep is the benchmark-regression harness's headline
// number (BENCH_pr3.json, CI bench-smoke): a steady-state mix of
// near-horizon delays feeding Step, with allocations reported. The
// budget is 0 allocs/op — enforced hard by TestZeroAllocSteadyState.
// The closure case drives plain At/After; the desc case drives the
// descriptor dispatch the simulated machine runs on.
func BenchmarkEngineStep(b *testing.B) {
	delays := [8]Cycle{1, 2, 3, 5, 8, 13, 21, 34}
	b.Run("closure", func(b *testing.B) {
		var e Engine
		n := 0
		var tick func()
		tick = func() {
			if n < b.N {
				e.After(delays[n&7], tick)
				n++
			}
		}
		// Keep a few events in flight so Step exercises bucket scans,
		// not just the trivial one-event queue.
		for i := 0; i < 4; i++ {
			e.At(Cycle(i), tick)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for e.Step() {
		}
		if n != b.N {
			b.Fatalf("ran %d events, want %d", n, b.N)
		}
	})
	b.Run("desc", func(b *testing.B) {
		var e Engine
		n := 0
		e.Handle(CompCPU, func(d *EventDesc) {
			if n < b.N {
				next := *d
				next.A = uint64(n)
				e.AfterEvent(delays[n&7], next)
				n++
			}
		})
		for i := 0; i < 4; i++ {
			e.AtEvent(Cycle(i), EventDesc{Comp: CompCPU, Kind: 1, Unit: int32(i)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for e.Step() {
		}
		if n != b.N {
			b.Fatalf("ran %d events, want %d", n, b.N)
		}
	})
}

// TestZeroAllocSteadyState pins the tentpole guarantee: once the node
// pool is warm, a schedule+execute round trip (a schedule followed by
// the Step that runs it) performs zero heap allocations — for
// near-horizon delays, same-cycle events, and far-future delays that
// transit the overflow heap alike, on both the closure path
// (After) and the descriptor path (AfterEvent dispatched through a
// registered handler).
func TestZeroAllocSteadyState(t *testing.T) {
	var e Engine
	fn := func() {}
	fired := 0
	e.Handle(CompCache, func(*EventDesc) { fired++ })
	desc := EventDesc{Comp: CompCache, Kind: 2, Unit: 3, A: 4}
	paths := []struct {
		name     string
		schedule func(Cycle)
	}{
		{"closure", func(d Cycle) { e.After(d, fn) }},
		{"desc", func(d Cycle) { e.AfterEvent(d, desc) }},
	}
	for _, p := range paths {
		// Warm the pool, the closure slots and the overflow heap's
		// backing array.
		for i := 0; i < 64; i++ {
			p.schedule(Cycle(i%5) * 2000)
		}
		for e.Step() {
		}
		for _, delay := range []Cycle{0, 1, 100, horizon - 1, horizon, 5000} {
			d := delay
			avg := testing.AllocsPerRun(200, func() {
				p.schedule(d)
				for e.Step() {
				}
			})
			if avg != 0 {
				t.Errorf("%s, delay %d: schedule+Step allocates %v times per op, want 0", p.name, d, avg)
			}
		}
	}
	if fired == 0 {
		t.Error("descriptor events never reached their handler")
	}
}

// BenchmarkEventFanout measures a bursty schedule: many events at the
// same cycle (the barrier-release pattern).
func BenchmarkEventFanout(b *testing.B) {
	var e Engine
	n := 0
	for i := 0; i < b.N; i++ {
		e.At(uint64(i/64), func() { n++ })
	}
	b.ResetTimer()
	e.Run(nil)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}
