package difftest

import (
	"reflect"
	"testing"

	"memsim/internal/litmus"
)

// TestGenerateDeterministic: the same (dials, seed) pair always draws
// the same program — the property every seed in a bundle, a CI job, or
// a bug report relies on.
func TestGenerateDeterministic(t *testing.T) {
	g := DefaultGen()
	for seed := int64(1); seed <= 50; seed++ {
		a := Generate(g, seed)
		b := Generate(g, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d drew two different programs:\n  %s\n  %s",
				seed, litmus.FormatProgram(a.Threads), litmus.FormatProgram(b.Threads))
		}
	}
}

// TestGenerateRespectsDials: every drawn program stays inside the
// configured dials and the hard capacity limits the rest of the system
// imposes (engine packed state, codegen registers).
func TestGenerateRespectsDials(t *testing.T) {
	dials := []GenConfig{
		DefaultGen(),
		{Threads: 2, Ops: 2, Locs: 1, StorePct: 100, SyncPct: 0, FalseSharePct: 0},
		{Threads: 4, Ops: MaxOps, Locs: MaxLocs, StorePct: 30, SyncPct: 60, FalseSharePct: 100},
		{Threads: 3, Ops: 6, Locs: 2, StorePct: 0, SyncPct: 100, FalseSharePct: 50},
	}
	for _, g := range dials {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 200; seed++ {
			p := Generate(g, seed)
			if n := len(p.Threads); n < 2 || n > g.Threads {
				t.Fatalf("dials %+v seed %d: %d threads outside 2..%d", g, seed, n, g.Threads)
			}
			if n := p.Ops(); n < len(p.Threads) || n > g.Ops {
				t.Fatalf("dials %+v seed %d: %d ops outside %d..%d", g, seed, n, len(p.Threads), g.Ops)
			}
			if n := p.NLocs(); n > g.Locs {
				t.Fatalf("dials %+v seed %d: %d locations, dial allows %d", g, seed, n, g.Locs)
			}
			for ti, th := range p.Threads {
				if len(th) == 0 {
					t.Fatalf("dials %+v seed %d: thread %d is empty", g, seed, ti)
				}
				loads := 0
				for _, op := range th {
					switch op.Kind {
					case litmus.OpLoad:
						loads++
					case litmus.OpStore:
						if op.Val < 1 || op.Val > maxStoreVal {
							t.Fatalf("dials %+v seed %d: store value %d outside 1..%d", g, seed, op.Val, maxStoreVal)
						}
					}
				}
				if loads > MaxThreadLoads {
					t.Fatalf("dials %+v seed %d: thread %d has %d loads, register budget is %d",
						g, seed, ti, loads, MaxThreadLoads)
				}
			}
			if p.Stride != 0 && p.Stride != 8 {
				t.Fatalf("dials %+v seed %d: stride %d, want 0 or 8", g, seed, p.Stride)
			}
		}
	}
}

// TestGenerateCommunicates: with dials that leave room for cross-
// thread traffic, drawn programs share at least one stored location
// across threads — the redraw loop's job.
func TestGenerateCommunicates(t *testing.T) {
	g := DefaultGen()
	for seed := int64(1); seed <= 200; seed++ {
		p := Generate(g, seed)
		if !communicates(p.Threads) {
			t.Fatalf("seed %d drew a non-communicating program: %s", seed, litmus.FormatProgram(p.Threads))
		}
	}
}

// TestGenerateFalseShareDial: the false-sharing dial at 0 and 100
// pins the layout stride.
func TestGenerateFalseShareDial(t *testing.T) {
	g := DefaultGen()
	g.FalseSharePct = 0
	for seed := int64(1); seed <= 50; seed++ {
		if p := Generate(g, seed); p.Stride != 0 {
			t.Fatalf("false-share 0%%: seed %d drew stride %d", seed, p.Stride)
		}
	}
	g.FalseSharePct = 100
	for seed := int64(1); seed <= 50; seed++ {
		if p := Generate(g, seed); p.Stride != 8 {
			t.Fatalf("false-share 100%%: seed %d drew stride %d, want 8", seed, p.Stride)
		}
	}
}

// TestValidateRejectsBadDials exercises every Validate arm.
func TestValidateRejectsBadDials(t *testing.T) {
	bad := []GenConfig{
		{Threads: 1, Ops: 8, Locs: 3, StorePct: 50},
		{Threads: 5, Ops: 8, Locs: 3, StorePct: 50},
		{Threads: 3, Ops: 1, Locs: 3, StorePct: 50},
		{Threads: 3, Ops: MaxOps + 1, Locs: 3, StorePct: 50},
		{Threads: 3, Ops: 8, Locs: 0, StorePct: 50},
		{Threads: 3, Ops: 8, Locs: MaxLocs + 1, StorePct: 50},
		{Threads: 3, Ops: 8, Locs: 3, StorePct: 101},
		{Threads: 3, Ops: 8, Locs: 3, StorePct: 50, SyncPct: -1},
		{Threads: 3, Ops: 8, Locs: 3, StorePct: 50, FalseSharePct: 101},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("Validate accepted bad dials %+v", g)
		}
	}
}
