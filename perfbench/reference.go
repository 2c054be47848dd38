package main

// The reference kernel is a fixed piece of simulator-shaped work: an
// event loop over a binary heap, handlers called through an interface,
// tag lookups in a 4-way set-associative array and read-modify-writes
// in a 512 KB table. It is timed before every untraced instance, and the
// end-to-end times are rescaled by it (see normalize), so a host that
// runs everything 20% slower for a few minutes — another tenant on the
// machine — moves the kernel and the instances together and leaves the
// reported figures where they were. The kernel is part of the
// benchmark, not of memsim: no change to the simulator can move it.

// refNominal is about the kernel's CPU time on a 2-vCPU Xeon (Sapphire
// Rapids) KVM guest while its host is lightly loaded. It fixes the unit
// of normalized times, reference-host seconds; its value only scales
// them and cancels in any comparison of two runs.
const refNominal = 0.050

// refEvents is the kernel's length in events.
const refEvents = 400_000

type refEvent struct {
	t    uint64
	who  uint32
	kind uint32
}

type refHandler interface {
	handle(e refEvent, k *refKernel)
}

type refLookup struct{}
type refFill struct{}

type refKernel struct {
	q    []refEvent // binary min-heap on (t, who)
	tags []uint32
	mem  []uint64
	rng  uint64
	hits uint64
	hs   [2]refHandler
}

var theRef = &refKernel{
	q:    make([]refEvent, 0, 128),
	tags: make([]uint32, 16<<10),
	mem:  make([]uint64, 64<<10),
	hs:   [2]refHandler{refLookup{}, refFill{}},
}

func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

func (k *refKernel) less(i, j int) bool {
	a, b := k.q[i], k.q[j]
	return a.t < b.t || (a.t == b.t && a.who < b.who)
}

func (k *refKernel) push(e refEvent) {
	k.q = append(k.q, e)
	for i := len(k.q) - 1; i > 0; {
		p := (i - 1) / 2
		if !k.less(i, p) {
			break
		}
		k.q[i], k.q[p] = k.q[p], k.q[i]
		i = p
	}
}

func (k *refKernel) pop() refEvent {
	top := k.q[0]
	n := len(k.q) - 1
	k.q[0] = k.q[n]
	k.q = k.q[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && k.less(l, s) {
			s = l
		}
		if l+1 < n && k.less(l+1, s) {
			s = l + 1
		}
		if s == i {
			break
		}
		k.q[i], k.q[s] = k.q[s], k.q[i]
		i = s
	}
	return top
}

func (refLookup) handle(e refEvent, k *refKernel) {
	x := k.next()
	addr := uint32(x>>20) & 0xfffff
	set := (addr >> 4) & (uint32(len(k.tags)/4) - 1)
	for w := set * 4; w < set*4+4; w++ {
		if k.tags[w] == addr>>8 {
			k.hits++
			k.push(refEvent{e.t + 1 + x&3, e.who, 0})
			return
		}
	}
	k.tags[set*4+uint32(x&3)] = addr >> 8
	k.push(refEvent{e.t + 20 + x&15, e.who, 1})
}

func (refFill) handle(e refEvent, k *refKernel) {
	x := k.next()
	k.mem[x&uint64(len(k.mem)-1)] += e.t
	k.push(refEvent{e.t + 2, e.who, 0})
}

// run executes the kernel from its initial state; it allocates nothing.
func (k *refKernel) run() uint64 {
	k.q, k.rng, k.hits = k.q[:0], 88172645463325252, 0
	clear(k.tags)
	for i := uint32(0); i < 64; i++ {
		k.push(refEvent{uint64(i), i, 0})
	}
	for n := 0; n < refEvents; n++ {
		e := k.pop()
		k.hs[e.kind].handle(e, k)
	}
	return k.hits
}

// refHits keeps the kernel's result live.
var refHits uint64

// refShare is the share of an instance's CPU time that the reference
// kernel takes before the next one: workloads with few, long instances
// time it several times per instance, so every run holds enough
// samples for a steady median.
const refShare = 0.05

// timeReference runs the kernel at least once and until its runs have
// taken budget CPU seconds; it returns the CPU seconds of each run. It
// runs on the calling goroutine, which then runs the instance, so both
// usually run on the same processor.
func timeReference(budget float64) []float64 {
	var times []float64
	for spent := 0.0; len(times) == 0 || spent < budget; {
		c0 := cpuSeconds()
		refHits += theRef.run()
		d := cpuSeconds() - c0
		times = append(times, d)
		spent += d
	}
	return times
}
