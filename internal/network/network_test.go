package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// tag builds a payload carrying an identifying number; the network
// never inspects payloads, so tests just need a round-trippable mark.
func tag(id int) memory.Msg { return memory.Msg{Line: uint64(id)} }

func tagOf(m Message) int { return int(m.Payload.Line) }

type delivery struct {
	dst int
	msg Message
	at  sim.Cycle
}

func collector(eng *sim.Engine) (*[]delivery, func(int, Message)) {
	var got []delivery
	return &got, func(dst int, m Message) {
		got = append(got, delivery{dst, m, eng.Now()})
	}
}

// newNet builds a network whose engine routes its events to it, as the
// machine does for its two networks.
func newNet(eng *sim.Engine, ports, bufCap int, deliver func(int, Message), drain func(int)) *Network {
	n := New(eng, ports, bufCap, deliver, drain)
	eng.Handle(sim.CompNet, n.Fire)
	return n
}

func TestStagesByPortCount(t *testing.T) {
	cases := []struct{ ports, stages int }{
		{2, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3}, {32, 3}, {64, 3}, {65, 4},
	}
	for _, c := range cases {
		var eng sim.Engine
		n := newNet(&eng, c.ports, 4, func(int, Message) {}, nil)
		if n.Stages() != c.stages {
			t.Errorf("ports %d: stages = %d, want %d", c.ports, n.Stages(), c.stages)
		}
	}
}

func TestUncontendedHeadLatency(t *testing.T) {
	for _, ports := range []int{16, 32} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := newNet(&eng, ports, 4, deliver, nil)
		if !n.TrySend(Message{Src: 3, Dst: ports - 1, Flits: 1}) {
			t.Fatal("TrySend rejected on empty network")
		}
		eng.Run(nil)
		if len(*got) != 1 {
			t.Fatalf("delivered %d messages, want 1", len(*got))
		}
		want := sim.Cycle(n.HeadLatency())
		if (*got)[0].at != want {
			t.Errorf("ports %d: head arrived at %d, want %d", ports, (*got)[0].at, want)
		}
	}
}

func TestAllPairsDelivered(t *testing.T) {
	const ports = 16
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, ports, 4, deliver, nil)
	sent := 0
	for s := 0; s < ports; s++ {
		for d := 0; d < ports; d++ {
			s, d := s, d
			eng.At(sim.Cycle(s*50+d*2), func() {
				if !n.TrySend(Message{Src: s, Dst: d, Flits: 1, Payload: tag(s<<8 | d)}) {
					t.Errorf("send %d->%d rejected", s, d)
				}
			})
			sent++
		}
	}
	eng.Run(nil)
	if len(*got) != sent {
		t.Fatalf("delivered %d, want %d", len(*got), sent)
	}
	for _, d := range *got {
		if tagOf(d.msg)&0xff != d.dst {
			t.Errorf("message %d delivered to %d", tagOf(d.msg), d.dst)
		}
	}
}

func TestFIFOPerPair(t *testing.T) {
	// Messages between the same (src,dst) pair must arrive in order,
	// regardless of size mix or contention.
	const ports = 16
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, ports, 4, deliver, nil)
	rng := rand.New(rand.NewSource(1))
	type key struct{ s, d int }
	sentSeq := map[key][]int{}
	seq := 0
	// Staggered sends so the entrance buffer never rejects.
	for burst := 0; burst < 30; burst++ {
		at := sim.Cycle(burst * 40)
		s := rng.Intn(ports)
		d := rng.Intn(ports)
		for i := 0; i < 3; i++ {
			k := key{s, d}
			id := seq
			seq++
			sentSeq[k] = append(sentSeq[k], id)
			flits := 1 + rng.Intn(8)
			eng.At(at, func() {
				if !n.TrySend(Message{Src: s, Dst: d, Flits: flits, Payload: tag(id)}) {
					t.Errorf("staggered send rejected")
				}
			})
		}
	}
	eng.Run(nil)
	gotSeq := map[key][]int{}
	for _, d := range *got {
		gotSeq[key{d.msg.Src, d.dst}] = append(gotSeq[key{d.msg.Src, d.dst}], tagOf(d.msg))
	}
	for k, want := range sentSeq {
		g := gotSeq[k]
		if len(g) != len(want) {
			t.Fatalf("pair %v: got %d messages, want %d", k, len(g), len(want))
		}
		for i := range want {
			if g[i] != want[i] {
				t.Errorf("pair %v: out of order: got %v want %v", k, g, want)
				break
			}
		}
	}
}

func TestEntranceBufferCapacity(t *testing.T) {
	var eng sim.Engine
	_, deliver := collector(&eng)
	n := newNet(&eng, 16, 4, deliver, nil)
	// First message starts transmission immediately (doesn't occupy a
	// buffer slot once in service); it is long so the rest queue up.
	ok := n.TrySend(Message{Src: 0, Dst: 1, Flits: 100})
	accepted := 0
	for i := 0; i < 10; i++ {
		if n.TrySend(Message{Src: 0, Dst: 1, Flits: 1}) {
			accepted++
		}
	}
	if !ok {
		t.Fatal("first send rejected")
	}
	if accepted != 4 {
		t.Errorf("accepted %d queued messages, want 4 (buffer capacity)", accepted)
	}
	if n.Stats().Retries != 6 {
		t.Errorf("retries = %d, want 6", n.Stats().Retries)
	}
}

func TestWhenSpaceFires(t *testing.T) {
	var eng sim.Engine
	_, deliver := collector(&eng)
	fired := false
	var n *Network
	n = newNet(&eng, 16, 2, deliver, func(src int) {
		fired = true
		if src != 0 {
			t.Errorf("drain called for source %d, want 0", src)
		}
		if !n.TrySend(Message{Src: 0, Dst: 1, Flits: 1}) {
			t.Error("retry after WhenSpace rejected")
		}
	})
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 10})
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 1})
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 1})
	if n.TrySend(Message{Src: 0, Dst: 1, Flits: 1}) {
		t.Fatal("buffer should be full")
	}
	n.WhenSpace(0)
	eng.Run(nil)
	if !fired {
		t.Fatal("WhenSpace never fired")
	}
	if n.Stats().Messages != 4 {
		t.Errorf("delivered %d, want 4", n.Stats().Messages)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two sources sending to the same destination share the final
	// link; their heads cannot arrive one cycle apart if messages are
	// long.
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, 16, 4, deliver, nil)
	n.TrySend(Message{Src: 0, Dst: 5, Flits: 9, Payload: tag(0)})
	n.TrySend(Message{Src: 1, Dst: 5, Flits: 9, Payload: tag(1)})
	eng.Run(nil)
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	gap := (*got)[1].at - (*got)[0].at
	if gap < 9 {
		t.Errorf("heads arrived %d cycles apart, want >= flit count 9", gap)
	}
	if n.Stats().QueueDelay == 0 {
		t.Error("expected nonzero queue delay under contention")
	}
}

func TestBypassJumpsQueue(t *testing.T) {
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, 16, 4, deliver, nil)
	// A long message in service, two queued stores, then a bypassing load.
	names := []string{"tx", "st1", "st2", "ld"}
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 30, Payload: tag(0)})
	n.TrySend(Message{Src: 0, Dst: 2, Flits: 1, Payload: tag(1)})
	n.TrySend(Message{Src: 0, Dst: 3, Flits: 1, Payload: tag(2)})
	n.TrySend(Message{Src: 0, Dst: 4, Flits: 1, Bypass: true, Payload: tag(3)})
	eng.Run(nil)
	if len(*got) != 4 {
		t.Fatalf("delivered %d, want 4", len(*got))
	}
	order := []string{}
	for _, d := range *got {
		order = append(order, names[tagOf(d.msg)])
	}
	want := []string{"tx", "ld", "st1", "st2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
	st := n.Stats()
	if st.Bypasses != 1 || st.BypassedOver != 2 {
		t.Errorf("bypass stats = %+v, want 1 bypass over 2", st)
	}
}

func TestBypassDoesNotCountWhenQueueEmpty(t *testing.T) {
	var eng sim.Engine
	_, deliver := collector(&eng)
	n := newNet(&eng, 16, 4, deliver, nil)
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 1, Bypass: true})
	if n.Stats().Bypasses != 0 {
		t.Errorf("bypass counted with empty queue")
	}
}

func TestLinkAfterRoutesToDestination(t *testing.T) {
	// The last-stage link index must equal the destination (padded),
	// for every pair — that is what makes Omega routing deliver.
	for _, ports := range []int{16, 32, 64} {
		var eng sim.Engine
		n := newNet(&eng, ports, 4, func(int, Message) {}, nil)
		for s := 0; s < ports; s++ {
			for d := 0; d < ports; d++ {
				if got := n.linkAfter(s, d, n.stages-1); got != d {
					t.Fatalf("ports %d: linkAfter(%d,%d,last) = %d, want %d", ports, s, d, got, d)
				}
			}
		}
	}
}

// Property: random traffic is always fully delivered, exactly once per
// message, and per-pair FIFO holds.
func TestQuickRandomTrafficDelivered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var eng sim.Engine
		got, deliver := collector(&eng)
		sent := 0
		var trySend func(m Message)
		pendingRetry := []Message{}
		n := newNet(&eng, 16, 4, deliver, func(int) {
			q := pendingRetry
			pendingRetry = nil
			for _, m := range q {
				trySend(m)
			}
		})
		trySend = func(m Message) {
			if n.TrySend(m) {
				return
			}
			pendingRetry = append(pendingRetry, m)
			if len(pendingRetry) == 1 {
				n.WhenSpace(m.Src)
			}
		}
		for i := 0; i < 100; i++ {
			m := Message{
				Src:     0, // single source so retry bookkeeping stays simple
				Dst:     rng.Intn(16),
				Flits:   1 + rng.Intn(8),
				Payload: tag(i),
			}
			at := sim.Cycle(rng.Intn(500))
			eng.At(at, func() { trySend(m) })
			sent++
		}
		if !eng.RunLimit(nil, 1_000_000) {
			return false
		}
		if len(*got) != sent {
			return false
		}
		seen := map[int]bool{}
		for _, d := range *got {
			id := tagOf(d.msg)
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsFlitsAndMessages(t *testing.T) {
	var eng sim.Engine
	_, deliver := collector(&eng)
	n := newNet(&eng, 16, 4, deliver, nil)
	n.TrySend(Message{Src: 0, Dst: 1, Flits: 3})
	n.TrySend(Message{Src: 2, Dst: 3, Flits: 1})
	eng.Run(nil)
	st := n.Stats()
	if st.Messages != 2 {
		t.Errorf("Messages = %d, want 2", st.Messages)
	}
	if st.Flits != 4 {
		t.Errorf("Flits = %d, want 4", st.Flits)
	}
}

func TestHeadLatencyMatchesDelivery(t *testing.T) {
	// HeadLatency is a contract other components calibrate against.
	for _, ports := range []int{4, 16, 64} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := newNet(&eng, ports, 4, deliver, nil)
		n.TrySend(Message{Src: 0, Dst: ports - 1, Flits: 2})
		eng.Run(nil)
		if (*got)[0].at != sim.Cycle(n.HeadLatency()) {
			t.Errorf("ports=%d: delivered at %d, HeadLatency says %d",
				ports, (*got)[0].at, n.HeadLatency())
		}
	}
}

func TestPanicsOnBadEndpoints(t *testing.T) {
	var eng sim.Engine
	n := newNet(&eng, 4, 4, func(int, Message) {}, nil)
	for _, m := range []Message{
		{Src: -1, Dst: 0, Flits: 1},
		{Src: 0, Dst: 4, Flits: 1},
		{Src: 0, Dst: 0, Flits: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("message %+v accepted", m)
				}
			}()
			n.TrySend(m)
		}()
	}
}
