package cache

import (
	"testing"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// rig wires a cache to a recording sender.
type rig struct {
	eng   sim.Engine
	c     *Cache
	out   []memory.Msg
	byps  []bool
	full  bool
	waits int // whenSpace registrations
}

func newRig(cfg Config) *rig {
	r := &rig{}
	r.c = New(&r.eng, 0, cfg,
		func(m memory.Msg, bypass bool) bool {
			if r.full {
				return false
			}
			r.out = append(r.out, m)
			r.byps = append(r.byps, bypass)
			return true
		},
		func() { r.waits++ },
	)
	r.eng.Handle(sim.CompCache, r.c.Fire)
	return r
}

func smallCfg() Config { return Config{Size: 128, LineSize: 16, Assoc: 2, MSHRs: 5} }

func (r *rig) run(t *testing.T) {
	t.Helper()
	if !r.eng.RunLimit(nil, 100_000) {
		t.Fatal("cache livelocked")
	}
}

// grant completes the most recent request with data.
func (r *rig) grant(line uint64, excl bool) {
	kind := memory.DataShared
	if excl {
		kind = memory.DataExclusive
	}
	r.c.Receive(memory.Msg{Kind: kind, Line: line})
}

func TestNewValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 100, LineSize: 16, Assoc: 2, MSHRs: 1}, // size not divisible
		{Size: 128, LineSize: 12, Assoc: 2, MSHRs: 1}, // line not multiple of 8
		{Size: 128, LineSize: 16, Assoc: 0, MSHRs: 1}, // no ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			var eng sim.Engine
			New(&eng, 0, cfg, nil, nil)
		}()
	}
}

func TestReadMissSendsReadReqThenHits(t *testing.T) {
	r := newRig(smallCfg())
	bound, retired := false, false
	out := r.c.Access(Request{Kind: Read, Addr: 0x40,
		On: &FuncBinder{OnBind: func() { bound = true }, OnRetire: func() { retired = true }}})
	if out != Miss {
		t.Fatalf("first read = %v, want Miss", out)
	}
	if len(r.out) != 1 || r.out[0].Kind != memory.ReadReq || r.out[0].Line != 0x40 {
		t.Fatalf("sent %+v, want ReadReq 0x40", r.out)
	}
	r.grant(0x40, false)
	r.run(t)
	if !bound || !retired {
		t.Fatalf("bind=%v retire=%v, want both", bound, retired)
	}
	if out := r.c.Access(Request{Kind: Read, Addr: 0x48}); out != Hit {
		t.Fatalf("read after fill = %v, want Hit (same line)", out)
	}
	st := r.c.Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("stats %+v, want 2 reads 1 hit", st)
	}
}

func TestBindBeforeRetireTiming(t *testing.T) {
	r := newRig(Config{Size: 1024, LineSize: 64, Assoc: 2, MSHRs: 5})
	var bindAt, retireAt sim.Cycle
	r.c.Access(Request{Kind: Read, Addr: 0, On: &FuncBinder{
		OnBind:   func() { bindAt = r.eng.Now() },
		OnRetire: func() { retireAt = r.eng.Now() }}})
	r.eng.At(10, func() { r.grant(0, false) })
	r.run(t)
	if bindAt != 11 {
		t.Errorf("bind at %d, want 11 (head+1)", bindAt)
	}
	if retireAt != 18 {
		t.Errorf("retire at %d, want 18 (head+words=10+8)", retireAt)
	}
}

func TestWriteMissRequiresOwnership(t *testing.T) {
	r := newRig(smallCfg())
	if out := r.c.Access(Request{Kind: Write, Addr: 0x40}); out != Miss {
		t.Fatal("write miss expected")
	}
	if r.out[0].Kind != memory.WriteReq {
		t.Fatalf("sent %v, want WriteReq", r.out[0].Kind)
	}
	r.grant(0x40, true)
	r.run(t)
	if out := r.c.Access(Request{Kind: Write, Addr: 0x48}); out != Hit {
		t.Fatal("write to exclusive line should hit")
	}
}

func TestWriteToSharedLineIsAMiss(t *testing.T) {
	// The paper's §3.3 accounting: a write to a Shared line drops the
	// copy and fetches with ownership — a write miss.
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	r.grant(0x40, false)
	r.run(t)
	if out := r.c.Access(Request{Kind: Write, Addr: 0x40}); out != Miss {
		t.Fatalf("write to shared = %v, want Miss", out)
	}
	if r.out[len(r.out)-1].Kind != memory.WriteReq {
		t.Fatal("expected ownership fetch")
	}
	st := r.c.Stats()
	if st.Writes != 1 || st.WriteHits != 0 {
		t.Errorf("stats %+v, want 1 write 0 hits", st)
	}
	if st.InvalidationMisses != 0 {
		t.Error("self-upgrade must not count as invalidation miss")
	}
}

func TestRMWBehavesLikeWriteForState(t *testing.T) {
	r := newRig(smallCfg())
	if out := r.c.Access(Request{Kind: RMW, Addr: 0x40}); out != Miss {
		t.Fatal("RMW miss expected")
	}
	r.grant(0x40, true)
	r.run(t)
	if out := r.c.Access(Request{Kind: RMW, Addr: 0x40}); out != Hit {
		t.Fatal("RMW on exclusive should hit")
	}
	st := r.c.Stats()
	if st.Writes != 2 || st.WriteHits != 1 {
		t.Errorf("stats %+v, want RMW counted as writes", st)
	}
}

func TestConflictOnPendingLine(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	if out := r.c.Access(Request{Kind: Read, Addr: 0x48}); out != Conflict {
		t.Fatalf("second access to pending line = %v, want Conflict", out)
	}
	if r.c.Stats().Conflicts != 1 {
		t.Error("conflict not counted")
	}
	// The conflicting access must not be counted as a reference.
	if r.c.Stats().Reads != 1 {
		t.Errorf("reads = %d, want 1", r.c.Stats().Reads)
	}
}

func TestFullWhenAllMSHRsBusy(t *testing.T) {
	cfg := smallCfg()
	cfg.MSHRs = 2
	r := newRig(cfg)
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	r.c.Access(Request{Kind: Read, Addr: 0x80})
	if out := r.c.Access(Request{Kind: Read, Addr: 0xc0}); out != Full {
		t.Fatalf("third miss = %v, want Full", out)
	}
	if r.c.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", r.c.Outstanding())
	}
}

func TestRetireAnyFiresOnEveryRetirement(t *testing.T) {
	r := newRig(smallCfg())
	n := 0
	r.c.OnRetireAny(func() { n++ })
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	r.c.Access(Request{Kind: Read, Addr: 0x80})
	r.grant(0x40, false)
	r.grant(0x80, false)
	r.run(t)
	if n != 2 {
		t.Fatalf("retire listener fired %d times, want 2", n)
	}
}

func TestEvictionWritesBackExclusive(t *testing.T) {
	// 2 sets x 2 ways of 16B lines: lines 0x00,0x40,0x80 share set 0
	// (stride 32B per set cycle => line/16 % 2).
	r := newRig(Config{Size: 64, LineSize: 16, Assoc: 2, MSHRs: 5})
	fill := func(addr uint64, excl bool) {
		kind := Read
		if excl {
			kind = Write
		}
		if out := r.c.Access(Request{Kind: kind, Addr: addr}); out != Miss {
			t.Fatalf("fill %#x: not a miss", addr)
		}
		r.grant(r.c.LineAddr(addr), excl)
		r.run(t)
	}
	fill(0x00, true)  // set 0, exclusive
	fill(0x20, false) // set 0
	fill(0x40, false) // set 0: evicts LRU (0x00, exclusive) -> write-back
	var wb *memory.Msg
	for i := range r.out {
		if r.out[i].Kind == memory.WriteBack {
			wb = &r.out[i]
		}
	}
	if wb == nil || wb.Line != 0 {
		t.Fatalf("expected write-back of line 0, got %+v", r.out)
	}
	if r.c.Stats().WriteBacks != 1 {
		t.Error("write-back not counted")
	}
	// 0x00 is gone; 0x20 and 0x40 remain.
	if r.c.Probe(Read, 0x00) {
		t.Error("evicted line still present")
	}
	if !r.c.Probe(Read, 0x20) || !r.c.Probe(Read, 0x40) {
		t.Error("resident lines missing")
	}
}

func TestSharedEvictionIsSilent(t *testing.T) {
	r := newRig(Config{Size: 64, LineSize: 16, Assoc: 2, MSHRs: 5})
	for _, a := range []uint64{0x00, 0x20, 0x40} {
		r.c.Access(Request{Kind: Read, Addr: a})
		r.grant(a, false)
		r.run(t)
	}
	for _, m := range r.out {
		if m.Kind == memory.WriteBack {
			t.Fatal("shared eviction produced a write-back")
		}
	}
}

func TestInvalidateAcksAndMarksForStats(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	r.grant(0x40, false)
	r.run(t)
	r.c.Receive(memory.Msg{Kind: memory.Invalidate, Line: 0x40})
	r.run(t)
	last := r.out[len(r.out)-1]
	if last.Kind != memory.InvAck {
		t.Fatalf("got %v, want InvAck", last.Kind)
	}
	if r.c.Probe(Read, 0x40) {
		t.Fatal("line survived invalidation")
	}
	// Next demand miss on the line counts as an invalidation miss.
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	if r.c.Stats().InvalidationMisses != 1 {
		t.Error("invalidation miss not counted")
	}
}

func TestInvalidateOfAbsentLineStillAcks(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Receive(memory.Msg{Kind: memory.Invalidate, Line: 0x40})
	r.run(t)
	if len(r.out) != 1 || r.out[0].Kind != memory.InvAck {
		t.Fatalf("got %+v, want lone InvAck", r.out)
	}
	if r.c.Stats().InvalidatesSeen != 0 {
		t.Error("absent-line invalidate counted as seen")
	}
}

func TestRecallInvFlushesOwnedLine(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Write, Addr: 0x40})
	r.grant(0x40, true)
	r.run(t)
	r.c.Receive(memory.Msg{Kind: memory.RecallInv, Line: 0x40})
	r.run(t)
	last := r.out[len(r.out)-1]
	if last.Kind != memory.FlushInv {
		t.Fatalf("got %v, want FlushInv", last.Kind)
	}
	if r.c.Probe(Read, 0x40) {
		t.Fatal("line survived recall-invalidate")
	}
}

func TestRecallShareDowngrades(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Write, Addr: 0x40})
	r.grant(0x40, true)
	r.run(t)
	r.c.Receive(memory.Msg{Kind: memory.RecallShare, Line: 0x40})
	r.run(t)
	last := r.out[len(r.out)-1]
	if last.Kind != memory.FlushShare {
		t.Fatalf("got %v, want FlushShare", last.Kind)
	}
	if !r.c.Probe(Read, 0x40) {
		t.Fatal("line should remain readable")
	}
	if r.c.Probe(Write, 0x40) {
		t.Fatal("line should no longer be writable")
	}
}

func TestRecallOfAbsentLineAcks(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Receive(memory.Msg{Kind: memory.RecallInv, Line: 0x40})
	r.c.Receive(memory.Msg{Kind: memory.RecallShare, Line: 0x80})
	r.run(t)
	if len(r.out) != 2 || r.out[0].Kind != memory.InvAck || r.out[1].Kind != memory.InvAck {
		t.Fatalf("got %+v, want two InvAcks", r.out)
	}
}

func TestPrefetchAllocatesWithoutCallbacks(t *testing.T) {
	r := newRig(smallCfg())
	if out := r.c.Access(Request{Kind: PrefetchRead, Addr: 0x40}); out != Miss {
		t.Fatal("prefetch should miss and fetch")
	}
	if r.c.Stats().Prefetches != 1 {
		t.Error("prefetch not counted")
	}
	if r.c.Stats().Reads != 0 {
		t.Error("prefetch must not count as a demand read")
	}
	r.grant(0x40, false)
	r.run(t)
	if out := r.c.Access(Request{Kind: Read, Addr: 0x40}); out != Hit {
		t.Fatal("demand read after prefetch should hit")
	}
}

func TestPrefetchOfPendingOrPresentLineIsNoop(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	if out := r.c.Access(Request{Kind: PrefetchRead, Addr: 0x40}); out != Hit {
		t.Fatalf("prefetch of pending line = %v, want Hit(noop)", out)
	}
	r.grant(0x40, false)
	r.run(t)
	if out := r.c.Access(Request{Kind: PrefetchRead, Addr: 0x40}); out != Hit {
		t.Fatalf("prefetch of present line = %v, want Hit(noop)", out)
	}
	if r.c.Stats().Prefetches != 0 {
		t.Error("noop prefetches must not count")
	}
}

func TestPrefetchWriteUpgradesSharedLine(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	r.grant(0x40, false)
	r.run(t)
	if out := r.c.Access(Request{Kind: PrefetchWrite, Addr: 0x40}); out != Miss {
		t.Fatal("write-prefetch of shared line should fetch ownership")
	}
	if r.out[len(r.out)-1].Kind != memory.WriteReq {
		t.Fatal("expected WriteReq")
	}
	r.grant(0x40, true)
	r.run(t)
	if !r.c.Probe(Write, 0x40) {
		t.Fatal("line should be writable after prefetch completes")
	}
}

func TestBypassFlagPropagates(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Access(Request{Kind: Read, Addr: 0x40, Bypass: true})
	r.c.Access(Request{Kind: Write, Addr: 0x80})
	if !r.byps[0] || r.byps[1] {
		t.Fatalf("bypass flags %v, want [true false]", r.byps)
	}
}

func TestBackPressureQueuesAndRetries(t *testing.T) {
	r := newRig(smallCfg())
	r.full = true
	r.c.Access(Request{Kind: Read, Addr: 0x40})
	if len(r.out) != 0 {
		t.Fatal("sent despite full buffer")
	}
	if r.waits != 1 {
		t.Fatal("no retry registered")
	}
	r.full = false
	r.c.Drain()
	if len(r.out) != 1 {
		t.Fatal("retry did not send")
	}
}

func TestLRUWithinSet(t *testing.T) {
	r := newRig(Config{Size: 64, LineSize: 16, Assoc: 2, MSHRs: 5})
	fill := func(addr uint64) {
		r.c.Access(Request{Kind: Read, Addr: addr})
		r.grant(addr, false)
		r.run(t)
	}
	fill(0x00)
	fill(0x20)
	// Touch 0x00 so 0x20 becomes LRU.
	r.c.Access(Request{Kind: Read, Addr: 0x00})
	fill(0x40) // evicts 0x20
	if !r.c.Probe(Read, 0x00) {
		t.Error("recently used line evicted")
	}
	if r.c.Probe(Read, 0x20) {
		t.Error("LRU line survived")
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	r := newRig(smallCfg())
	r.c.Probe(Read, 0x40)
	r.c.Probe(Write, 0x40)
	st := r.c.Stats()
	if st.Reads != 0 || st.Writes != 0 {
		t.Error("Probe touched counters")
	}
}
