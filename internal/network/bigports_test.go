package network

// Big-machine network tests: the radix-4 Omega network at 128 ports —
// the padded non-power-of-4 case (128 pads to 256) — and at the full
// 256-port machine ceiling. These pin stage count, head latency,
// routing and per-pair FIFO order at the sizes the scaling experiment
// exercises.

import (
	"math/rand"
	"testing"

	"memsim/internal/sim"
)

func TestStagesAndHeadLatencyBigPorts(t *testing.T) {
	cases := []struct{ ports, padded, stages int }{
		{128, 256, 4}, // non-power-of-4: pads up
		{256, 256, 4},
	}
	for _, c := range cases {
		var eng sim.Engine
		n := newNet(&eng, c.ports, 4, func(int, Message) {}, nil)
		if n.padded != c.padded {
			t.Errorf("ports %d: padded = %d, want %d", c.ports, n.padded, c.padded)
		}
		if n.Stages() != c.stages {
			t.Errorf("ports %d: stages = %d, want %d", c.ports, n.Stages(), c.stages)
		}
		if got, want := n.HeadLatency(), c.stages+1; got != want {
			t.Errorf("ports %d: head latency = %d, want %d", c.ports, got, want)
		}
	}
}

// TestLinkAfterBigPorts checks the stage-shift routing math against
// both the delivery property (the last-stage link equals the
// destination) and an independent reference implementation of the
// Omega shuffle, for every pair at 128 and 256 ports.
func TestLinkAfterBigPorts(t *testing.T) {
	for _, ports := range []int{128, 256} {
		var eng sim.Engine
		n := newNet(&eng, ports, 4, func(int, Message) {}, nil)
		ref := func(src, dst, k int) int {
			// After stage k the message sits on the link whose index is
			// the source's low digits shifted in behind the
			// destination's k+1 highest base-4 digits.
			mixed := src<<(2*(k+1)) | dst>>(2*(n.stages-k-1))
			return mixed & (n.padded - 1)
		}
		for s := 0; s < ports; s++ {
			for d := 0; d < ports; d++ {
				for k := 0; k < n.stages; k++ {
					if got, want := n.linkAfter(s, d, k), ref(s, d, k); got != want {
						t.Fatalf("ports %d: linkAfter(%d,%d,%d) = %d, want %d", ports, s, d, k, got, want)
					}
				}
				if got := n.linkAfter(s, d, n.stages-1); got != d {
					t.Fatalf("ports %d: last-stage link for %d->%d = %d, want %d", ports, s, d, got, d)
				}
			}
		}
	}
}

// TestAllPairsDeliveredAt128Ports drives one message across every
// (src,dst) pair of the padded network and checks exactly-once,
// correct-destination delivery.
func TestAllPairsDeliveredAt128Ports(t *testing.T) {
	const ports = 128
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, ports, 4, deliver, nil)
	sent := 0
	for s := 0; s < ports; s++ {
		for d := 0; d < ports; d++ {
			s, d := s, d
			eng.At(sim.Cycle(s*300+d*2), func() {
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

// TestFIFOPerPairAt128Ports: same-pair messages stay ordered under
// mixed sizes and cross-traffic on the big padded network.
func TestFIFOPerPairAt128Ports(t *testing.T) {
	const ports = 128
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := newNet(&eng, ports, 4, deliver, nil)
	rng := rand.New(rand.NewSource(128))
	type key struct{ s, d int }
	sentSeq := map[key][]int{}
	seq := 0
	for burst := 0; burst < 60; burst++ {
		at := sim.Cycle(burst * 60)
		s := rng.Intn(ports)
		d := rng.Intn(ports)
		for i := 0; i < 3; i++ {
			k := key{s, d}
			id := seq
			seq++
			sentSeq[k] = append(sentSeq[k], id)
			flits := 1 + rng.Intn(4)
			eng.At(at+sim.Cycle(i), func() {
				if !n.TrySend(Message{Src: k.s, Dst: k.d, Flits: flits, Payload: tag(id)}) {
					t.Errorf("send %d->%d rejected", k.s, k.d)
				}
			})
		}
	}
	eng.Run(nil)
	gotSeq := map[key][]int{}
	for _, d := range *got {
		k := key{d.msg.Src, d.dst}
		gotSeq[k] = append(gotSeq[k], tagOf(d.msg))
	}
	for k, want := range sentSeq {
		gotIDs := gotSeq[k]
		if len(gotIDs) != len(want) {
			t.Fatalf("pair %v: delivered %d, want %d", k, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Errorf("pair %v: position %d got %d, want %d", k, i, gotIDs[i], want[i])
			}
		}
	}
}
