package machine

import (
	"errors"
	"math/rand"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/memory"
	"memsim/internal/sim"
)

// descSnapshot pauses an SC2 run (prefetches leave MSHRs without a
// binder) at the first cycle whose snapshot has a cache holding both a
// valid binder-less MSHR and an invalid one. It returns a builder for
// fresh machines, a function taking that same snapshot again, and the
// cache unit and MSHR indices found.
func descSnapshot(t *testing.T) (build func() *Machine, snap func() *Snapshot, unit int32, noBinder, invalid uint64) {
	t.Helper()
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(3)), 4)
	cfg := snapCfg(consistency.SC2)
	build = func() *Machine {
		progsCopy := make([][]isa.Inst, len(progs))
		copy(progsCopy, progs)
		m, err := New(cfg, progsCopy)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build()
	take := func() *Snapshot {
		s, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for at := uint64(1); at < 200_000; at++ {
		if _, err := m.RunControlled(RunControl{Until: at}); !errors.Is(err, ErrPaused) {
			t.Fatalf("run to cycle %d: want ErrPaused, got %v", at, err)
		}
		s := take()
		for u, cs := range s.Caches {
			noBinder, invalid = ^uint64(0), ^uint64(0)
			for i, ms := range cs.MSHRs {
				switch {
				case ms.Valid && !ms.HasBinder:
					noBinder = uint64(i)
				case !ms.Valid:
					invalid = uint64(i)
				}
			}
			if noBinder != ^uint64(0) && invalid != ^uint64(0) && len(s.Engine.Events) > 0 {
				return build, take, int32(u), noBinder, invalid
			}
		}
	}
	t.Fatal("no pause point with a binder-less prefetch MSHR")
	return
}

// TestRestoreRejectsMalformedDescriptors pins the descriptor checks
// Restore runs over a snapshot's saved event queue. Snapshot files are
// external input: each case corrupts one saved event descriptor of a
// real mid-run snapshot, and Restore must return an error — never
// panic, and never accept an event whose dispatch would index state
// that does not exist.
func TestRestoreRejectsMalformedDescriptors(t *testing.T) {
	build, snap, unit, noBinder, invalid := descSnapshot(t)
	const procs = 4
	// One network stage of 4x4 switches serves 4 endpoints.
	const stages, padded = 1, 4

	mach := func(kind uint8) sim.EventDesc {
		return sim.EventDesc{Comp: sim.CompMachine, Kind: kind, Unit: -1}
	}
	tail := func(dst, src uint64) sim.EventDesc {
		d := mach(1)
		d.A = 0x40
		d.B = uint64(memory.WriteBack) | src<<8 | dst<<32
		return d
	}
	cacheEv := func(kind uint8, idx uint64) sim.EventDesc {
		return sim.EventDesc{Comp: sim.CompCache, Kind: kind, Unit: unit, A: idx}
	}
	net := func(kind uint8, a, b, c uint64) sim.EventDesc {
		return sim.EventDesc{Comp: sim.CompNet, Kind: kind, Unit: 1, A: a, B: b, C: c}
	}
	advance := func(src, dst, hop, flits uint64) sim.EventDesc {
		return net(1, 0x40, uint64(memory.DataShared)|hop<<16, src|dst<<16|flits<<32)
	}

	cases := []struct {
		name string
		desc sim.EventDesc
	}{
		{"closure event (CompNone)", sim.EventDesc{Comp: sim.CompNone}},
		{"unknown component class", sim.EventDesc{Comp: 200, Kind: 1}},
		{"cpu unit too large", sim.EventDesc{Comp: sim.CompCPU, Kind: 1, Unit: procs}},
		{"cpu unit negative", sim.EventDesc{Comp: sim.CompCPU, Kind: 1, Unit: -1}},
		{"cache unit too large", sim.EventDesc{Comp: sim.CompCache, Kind: 2, Unit: procs}},
		{"module unit too large", sim.EventDesc{Comp: sim.CompModule, Kind: 1, Unit: procs}},
		{"network unit unknown", sim.EventDesc{Comp: sim.CompNet, Kind: 2, Unit: 2}},
		{"machine kind unknown", mach(9)},
		{"cpu kind unknown", sim.EventDesc{Comp: sim.CompCPU, Kind: 9, Unit: 0}},
		{"cache kind unknown", cacheEv(9, noBinder)},
		{"module kind retired", sim.EventDesc{Comp: sim.CompModule, Kind: 3, Unit: 0}},
		{"network kind unknown", net(9, 0, 0, 0)},
		{"MSHR index out of range", cacheEv(2, 5)},
		{"MSHR index huge", cacheEv(2, 1<<40)},
		{"invalid MSHR", cacheEv(2, invalid)},
		{"bind with no binder", cacheEv(1, noBinder)},
		{"module head for a line with no directory entry",
			sim.EventDesc{Comp: sim.CompModule, Kind: 2, Unit: 0, A: 0xfff_fff0,
				B: uint64(memory.DataShared) | 1<<8 | 1<<16}},
		{"network advance src out of range", advance(procs, 0, 0, 1)},
		{"network advance dst out of range", advance(0, procs, 0, 1)},
		{"network advance hop out of range", advance(0, 1, stages+1, 1)},
		{"network advance with no flits", advance(0, 1, 0, 0)},
		{"network free entrance out of range", net(2, 0, procs, 0)},
		{"network free stage out of range", net(2, stages+1, 0, 0)},
		{"network free link out of range", net(2, 1, padded, 0)},
		{"network space source out of range", net(3, procs, 0, 0)},
		{"machine tail src out of range", tail(0, procs)},
		{"machine tail dst out of range", tail(procs, 0)},
		{"watchdog tick with no watchdog", mach(2)},
		{"check tick with no checker", mach(3)},
	}

	// The unmodified snapshot restores: every rejection below is the
	// corrupted descriptor's doing.
	if err := build().Restore(snap()); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := snap()
			s.Engine.Events[0].Desc = tc.desc
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Restore panicked: %v", r)
					}
				}()
				err = build().Restore(s)
			}()
			if err == nil {
				t.Fatalf("Restore accepted descriptor %+v", tc.desc)
			}
		})
	}
}
