package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// refCache is an executable specification of the hit/miss behavior: a
// set-associative LRU tag store with the same state rules (write needs
// Exclusive; write to Shared drops the line). The real cache must
// agree with it on every access outcome when misses complete before
// the next access.
type refCache struct {
	lineSize, sets, assoc int
	clock                 uint64
	lines                 map[int][]refLine // per set
}

type refLine struct {
	tag  uint64
	excl bool
	lru  uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		lineSize: cfg.LineSize,
		sets:     cfg.Size / (cfg.LineSize * cfg.Assoc),
		assoc:    cfg.Assoc,
		lines:    map[int][]refLine{},
	}
}

func (r *refCache) setIdx(line uint64) int {
	return int((line / uint64(r.lineSize)) % uint64(r.sets))
}

// access returns whether the access hits, then installs/updates.
func (r *refCache) access(kind Kind, addr uint64) bool {
	line := addr &^ uint64(r.lineSize-1)
	set := r.lines[r.setIdx(line)]
	r.clock++
	for i := range set {
		if set[i].tag != line {
			continue
		}
		switch kind {
		case Read:
			set[i].lru = r.clock
			return true
		case Write, RMW:
			if set[i].excl {
				set[i].lru = r.clock
				return true
			}
			// Drop the shared copy; miss path installs exclusive.
			set = append(set[:i], set[i+1:]...)
			r.lines[r.setIdx(line)] = set
			r.install(line, true)
			return false
		}
	}
	r.install(line, kind != Read)
	return false
}

func (r *refCache) install(line uint64, excl bool) {
	idx := r.setIdx(line)
	set := r.lines[idx]
	if len(set) >= r.assoc {
		// Evict LRU.
		v := 0
		for i := range set {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
		set = append(set[:v], set[v+1:]...)
	}
	r.clock++
	set = append(set, refLine{tag: line, excl: excl, lru: r.clock})
	r.lines[idx] = set
}

// TestQuickCacheMatchesReferenceModel drives random serialized access
// streams (each miss completes before the next access) through the
// real cache and the reference model and compares every outcome.
func TestQuickCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Size:     []int{128, 256, 1024}[rng.Intn(3)],
			LineSize: []int{8, 16, 64}[rng.Intn(3)],
			Assoc:    []int{1, 2, 4}[rng.Intn(3)],
			MSHRs:    5,
		}
		if cfg.Size%(cfg.LineSize*cfg.Assoc) != 0 {
			return true // skip invalid combination
		}
		var eng sim.Engine
		var c *Cache
		c = New(&eng, 0, cfg,
			func(msg memory.Msg, bypass bool) bool {
				switch msg.Kind {
				case memory.ReadReq:
					eng.After(5, func() { c.Receive(memory.Msg{Kind: memory.DataShared, Line: msg.Line}) })
				case memory.WriteReq:
					eng.After(5, func() { c.Receive(memory.Msg{Kind: memory.DataExclusive, Line: msg.Line}) })
				}
				return true
			},
			func() { panic("no backpressure") },
		)
		eng.Handle(sim.CompCache, c.Fire)
		ref := newRefCache(cfg)

		nAddrs := 2 + rng.Intn(30)
		addrs := make([]uint64, nAddrs)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(64)) * 8 * uint64(1+rng.Intn(8))
		}
		kinds := []Kind{Read, Write, RMW}
		for i := 0; i < 300; i++ {
			addr := addrs[rng.Intn(nAddrs)]
			kind := kinds[rng.Intn(len(kinds))]
			out := c.Access(Request{Kind: kind, Addr: addr})
			wantHit := ref.access(kind, addr)
			switch out {
			case Hit:
				if !wantHit {
					t.Logf("seed %d step %d: %v %#x hit, reference missed", seed, i, kind, addr)
					return false
				}
			case Miss:
				if wantHit {
					t.Logf("seed %d step %d: %v %#x missed, reference hit", seed, i, kind, addr)
					return false
				}
			default:
				t.Logf("seed %d step %d: unexpected outcome %v", seed, i, out)
				return false
			}
			// Drain so the miss (if any) installs before the next
			// access — the serialized regime the reference models.
			eng.Run(nil)
		}
		// Final occupancy must agree too.
		snap := c.Snapshot()
		var refCount int
		for _, set := range ref.lines {
			refCount += len(set)
		}
		if len(snap) != refCount {
			t.Logf("seed %d: occupancy %d vs reference %d", seed, len(snap), refCount)
			return false
		}
		for _, ln := range snap {
			found := false
			for _, rl := range ref.lines[ref.setIdx(ln.Addr)] {
				if rl.tag == ln.Addr && rl.excl == (ln.State == Exclusive) {
					found = true
				}
			}
			if !found {
				t.Logf("seed %d: line %#x state %v not in reference", seed, ln.Addr, ln.State)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
