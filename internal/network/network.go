// Package network models the two multistage Omega interconnection
// networks of the simulated machine (one for processor-to-memory
// requests, one for memory-to-processor responses).
//
// The network is built from 4x4 switches: a machine with P endpoints
// uses n = ceil(log4 P) stages of output-port links. Routing is the
// classic Omega digit-replacement scheme, so every (source,
// destination) pair has exactly one path and messages between a pair
// are delivered in FIFO order.
//
// Timing follows the paper's §3.1: every stage is pipelined at one
// cycle per 8-byte flit, so a message of F flits occupies each link it
// crosses for F cycles while its head advances one stage per cycle
// (virtual cut-through with buffering at a blocked stage). A 4-entry
// buffer sits between each source and the first stage; when it fills
// the sender must hold the message and retry, which is how network
// back-pressure reaches the caches and memory modules.
//
// For the WO2 model, a message marked Bypass enters at the head of its
// entrance buffer, ahead of anything queued there (but not ahead of a
// message already being transmitted). This reproduces the paper's
// "simple, but slightly flawed" implementation in which a load could
// also bypass a queued load (§4.2.3).
package network

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Message is one packet traversing the network. The payload is the
// coherence-protocol message it carries, held as a concrete struct:
// the network never inspects it, but typing it (instead of an
// interface{} the machine layer asserted back) means injecting a
// message boxes nothing and the per-reference hot path stays
// allocation-free.
type Message struct {
	Src, Dst int  // endpoint indices in [0, Ports)
	Flits    int  // link occupancy in cycles (1 flit = 8 bytes)
	Bypass   bool // enter at the head of the entrance buffer (WO2 loads)
	Payload  memory.Msg
}

// Stats aggregates traffic counters for one network.
type Stats struct {
	Messages     uint64 // messages delivered
	Flits        uint64 // flits injected
	Bypasses     uint64 // messages that entered ahead of >=1 queued message
	BypassedOver uint64 // total queued messages jumped over
	QueueDelay   uint64 // cycles messages spent waiting for busy links
	Retries      uint64 // TrySend calls rejected because the buffer was full
	FaultDelays  uint64 // port services stretched by fault injection
	FaultCycles  uint64 // total extra cycles injected
}

// port is one link resource: an output port of a switch (or the
// entrance buffer serving a source). Service rate is one flit/cycle.
// The queue is consumed from head (an index, not a reslice) so its
// backing array is reused.
type port struct {
	queue []*transit
	head  int
	busy  bool
}

// qlen is the number of messages waiting in the port's queue.
func (p *port) qlen() int { return len(p.queue) - p.head }

// pop removes and returns the queue head.
func (p *port) pop() *transit {
	t := p.queue[p.head]
	p.queue[p.head] = nil
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	return t
}

// pushFront inserts ahead of everything queued (WO2 bypass).
func (p *port) pushFront(t *transit) {
	if p.head > 0 {
		p.head--
		p.queue[p.head] = t
		return
	}
	p.queue = append(p.queue, nil)
	copy(p.queue[1:], p.queue)
	p.queue[0] = t
}

// transit is a message waiting in a port queue plus its progress
// bookkeeping. Transits are pooled on the Network (free list through
// next), so injecting and forwarding a message allocates nothing in
// steady state. A message in service holds no transit: its pending
// advance event's descriptor carries it whole, and a transit is
// rebuilt from that descriptor only if the head must queue at its
// next hop.
type transit struct {
	msg    Message
	hop    int       // next hop index to be serviced: 0=entrance, 1..n=stages
	queued sim.Cycle // when it joined the current queue (for QueueDelay)
	next   *transit  // free-list link
}

// Network is one Omega network instance.
type Network struct {
	eng    *sim.Engine
	ports  int // logical endpoints
	padded int // ports padded up to a power of 4
	stages int
	bufCap int

	entrance []port   // one per source
	links    [][]port // [stage][link index within padded ports]

	deliver func(dst int, m Message)
	drain   func(src int) // retries source src's blocked sender
	onSpace []bool        // per-source: sender waits for entrance space
	tfree   *transit      // transit record free list

	faults   *robust.Injector // nil: no fault injection
	inFlight int              // messages injected but not yet delivered
	unit     int32            // instance id in event descriptors (SetUnit)

	stats Stats
	mc    *metrics.Collector // nil: no metrics collection
	netid metrics.Net        // which network this is, for attribution
}

// New creates a network with the given endpoint count and entrance
// buffer capacity. deliver is invoked when a message's head arrives at
// its destination; the tail arrives Flits-1 cycles later (receivers
// that care, e.g. a cache waiting for a whole line, add that
// themselves). drain is invoked for a source that registered WhenSpace
// once its entrance buffer has a free slot. The network's engine
// events are of class sim.CompNet; the owner routes them to Fire.
func New(eng *sim.Engine, ports, bufCap int, deliver func(dst int, m Message), drain func(src int)) *Network {
	if ports < 2 {
		panic(fmt.Sprintf("network: need at least 2 ports, got %d", ports))
	}
	if bufCap < 1 {
		panic(fmt.Sprintf("network: buffer capacity must be >= 1, got %d", bufCap))
	}
	padded, stages := 4, 1
	for padded < ports {
		padded *= 4
		stages++
	}
	n := &Network{
		eng:      eng,
		ports:    ports,
		padded:   padded,
		stages:   stages,
		bufCap:   bufCap,
		entrance: make([]port, ports),
		links:    make([][]port, stages),
		deliver:  deliver,
		drain:    drain,
		onSpace:  make([]bool, ports),
	}
	for s := range n.links {
		n.links[s] = make([]port, padded)
	}
	return n
}

// allocTransit takes a pooled transit record for message m waiting at
// hop, queued since the current cycle.
func (n *Network) allocTransit(m Message, hop int) *transit {
	t := n.tfree
	if t == nil {
		t = &transit{}
	} else {
		n.tfree = t.next
	}
	t.msg, t.hop, t.queued, t.next = m, hop, n.eng.Now(), nil
	return t
}

// freeTransit recycles a transit whose message entered service.
func (n *Network) freeTransit(t *transit) {
	t.msg = Message{}
	t.next = n.tfree
	n.tfree = t
}

// Ports returns the number of endpoints.
func (n *Network) Ports() int { return n.ports }

// Stages returns the number of switch stages (ceil(log4 ports)).
func (n *Network) Stages() int { return n.stages }

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// SetFaults installs a fault injector that stretches port service
// times (see robust.Faults). Call before the run starts; a nil
// injector disables injection.
func (n *Network) SetFaults(inj *robust.Injector) { n.faults = inj }

// SetMetrics attaches a cycle-attribution collector (nil disables).
// The network reports per-message queue delays and entrance-buffer
// back-pressure; collection never changes timing.
func (n *Network) SetMetrics(mc *metrics.Collector, which metrics.Net) {
	n.mc = mc
	n.netid = which
}

// Occupancy is a point-in-time view of the network's buffers for
// diagnostic dumps.
type Occupancy struct {
	Entrance []int // queued messages per source entrance buffer
	InFlight int   // messages injected but not yet delivered
}

// Occupancy snapshots buffer state. Read-only; safe at any cycle.
func (n *Network) Occupancy() Occupancy {
	o := Occupancy{Entrance: make([]int, n.ports), InFlight: n.inFlight}
	for i := range n.entrance {
		o.Entrance[i] = n.entrance[i].qlen()
	}
	return o
}

// HeadLatency is the uncontended cycles from TrySend to head delivery:
// one cycle through the entrance buffer plus one per stage.
func (n *Network) HeadLatency() int { return n.stages + 1 }

// linkAfter computes the Omega link index used after stage k (0-based)
// for a source/destination pair: the top 2(k+1) bits of the running
// address have been replaced by destination digits.
func (n *Network) linkAfter(src, dst, k int) int {
	shift := uint(2 * (n.stages - k - 1))
	mask := n.padded - 1
	return ((src << uint(2*(k+1))) | (dst >> shift)) & mask
}

// WhenSpace asks for the network's drain callback to run for src
// (once per registration) the next time src's entrance buffer has a
// free slot. Used by senders whose TrySend was rejected.
func (n *Network) WhenSpace(src int) {
	if n.onSpace[src] {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: src,
			Cycle: n.eng.Now(), Detail: "WhenSpace already registered for source"})
	}
	n.onSpace[src] = true
}

// TrySend injects a message. It returns false, without side effects,
// if the source's entrance buffer is full; the sender should call
// WhenSpace and retry from its drain callback.
func (n *Network) TrySend(m Message) bool {
	if m.Src < 0 || m.Src >= n.ports || m.Dst < 0 || m.Dst >= n.ports {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: m.Src,
			Cycle: n.eng.Now(), Detail: fmt.Sprintf("endpoint out of range in %+v", m)})
	}
	if m.Flits < 1 {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: m.Src,
			Cycle: n.eng.Now(), Detail: fmt.Sprintf("message with %d flits", m.Flits)})
	}
	p := &n.entrance[m.Src]
	if p.qlen() >= n.bufCap {
		n.stats.Retries++
		n.mc.NetRetry(n.netid, m.Src, n.eng.Now())
		return false
	}
	t := n.allocTransit(m, 0)
	if m.Bypass && p.qlen() > 0 {
		n.stats.Bypasses++
		n.stats.BypassedOver += uint64(p.qlen())
		p.pushFront(t)
	} else {
		p.queue = append(p.queue, t)
	}
	n.stats.Flits += uint64(m.Flits)
	n.inFlight++
	n.kick(p, m.Src)
	return true
}

// portAt resolves the port resource serving hop of the src->dst path.
// Hop 0 is the entrance buffer; hop 1..stages are switch output links.
func (n *Network) portAt(src, dst, hop int) *port {
	if hop == 0 {
		return &n.entrance[src]
	}
	stage := hop - 1
	return &n.links[stage][n.linkAfter(src, dst, stage)]
}

// kick starts service on a port if it is idle and has queued traffic.
// entranceSrc >= 0 identifies entrance ports so that freeing a slot can
// notify a blocked sender.
func (n *Network) kick(p *port, entranceSrc int) {
	if p.busy || p.qlen() == 0 {
		return
	}
	t := p.pop()
	d, queued := n.advanceDesc(t), t.queued
	n.freeTransit(t)
	n.serve(p, &d, queued, entranceSrc)
}

// serve starts port p's service of the message d describes, which has
// waited for the port since cycle queued. From here on the pending
// advance event's descriptor is the message's only record.
func (n *Network) serve(p *port, d *sim.EventDesc, queued sim.Cycle, entranceSrc int) {
	p.busy = true
	now := n.eng.Now()
	n.stats.QueueDelay += uint64(now - queued)
	n.mc.NetWait(n.netid, now, uint64(now-queued))
	flits := sim.Cycle(d.C >> 32)

	// Fault injection stretches this service: the head advances and
	// the port frees `extra` cycles late. Because the stretch applies
	// to the whole port service, per-port FIFO order — and with it
	// same-(source,destination) delivery order — is preserved.
	extra := sim.Cycle(n.faults.ExtraDelay())
	if extra > 0 {
		n.stats.FaultDelays++
		n.stats.FaultCycles += uint64(extra)
	}

	// Head advances to the next hop one cycle after service starts.
	n.eng.AfterEvent(1+extra, *d)
	// The link is busy for the full message length.
	n.eng.AfterEvent(flits+extra, n.freeDesc(d))
	if entranceSrc >= 0 && n.onSpace[entranceSrc] {
		// A slot freed the moment the head left the queue. Notify
		// after the pop so the retry sees the free slot.
		n.onSpace[entranceSrc] = false
		sd := n.desc(netEvSpace)
		sd.A = uint64(entranceSrc)
		n.eng.AfterEvent(0, sd)
	}
}

// advance moves the head of the message an advance event carries to
// its next hop, or delivers it once it has crossed the last stage. At
// a busy port the message's transit is rebuilt from the descriptor and
// queued; an idle port (whose queue is empty, since kick drains a port
// the moment it frees) serves it at once.
func (n *Network) advance(d *sim.EventDesc) {
	m, hop := advanceMsg(d), advanceHop(d)+1
	if hop > n.stages {
		n.stats.Messages++
		n.inFlight--
		n.deliver(m.Dst, m)
		return
	}
	p := n.portAt(m.Src, m.Dst, hop)
	if p.busy {
		p.queue = append(p.queue, n.allocTransit(m, hop))
		return
	}
	next := *d
	next.B += 1 << 16 // the same message, now waiting at hop
	n.serve(p, &next, n.eng.Now(), -1)
}
