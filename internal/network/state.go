package network

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// Event kinds for network-owned engine events (sim.EventDesc.Kind).
const (
	// netEvAdvance fires when an in-service message's head moves to
	// its next hop. The descriptor carries the full transit: A = line
	// address, B = payload kind | bypass<<8 | hop<<16, C = src |
	// dst<<16 | flits<<32.
	netEvAdvance uint8 = iota + 1
	// netEvFree fires when a port finishes servicing a message.
	// A = hop index of the port (0 = entrance, s+1 = stage s),
	// B = source endpoint (entrance) or link index (stage).
	netEvFree
	// netEvSpace fires a deferred entrance-space notification.
	// A = source endpoint whose sender is being notified.
	netEvSpace
)

// SetUnit assigns the instance id used in this network's event
// descriptors (the machine tags its request network 0 and response
// network 1). Networks that are never snapshotted may leave it 0.
func (n *Network) SetUnit(u int32) { n.unit = u }

func (n *Network) desc(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompNet, Kind: kind, Unit: n.unit}
}

// advanceDesc packs a transit entering service into its advance
// event's descriptor. The transit itself is recycled at once, so the
// descriptor carries everything needed to rebuild it at the next hop.
func (n *Network) advanceDesc(t *transit) sim.EventDesc {
	d := n.desc(netEvAdvance)
	d.A = t.msg.Payload.Line
	d.B = uint64(t.msg.Payload.Kind) | uint64(t.hop)<<16
	if t.msg.Bypass {
		d.B |= 1 << 8
	}
	d.C = uint64(t.msg.Src) | uint64(t.msg.Dst)<<16 | uint64(t.msg.Flits)<<32
	return d
}

// freeDesc identifies the port servicing the message advance
// descriptor ad describes.
func (n *Network) freeDesc(ad *sim.EventDesc) sim.EventDesc {
	d := n.desc(netEvFree)
	src, hop := int(ad.C&0xffff), advanceHop(ad)
	if hop == 0 {
		d.B = uint64(src)
		return d
	}
	d.A = uint64(hop)
	d.B = uint64(n.linkAfter(src, int(ad.C>>16&0xffff), hop-1))
	return d
}

// advanceMsg unpacks the message an advance descriptor carries.
func advanceMsg(d *sim.EventDesc) Message {
	return Message{
		Src: int(d.C & 0xffff), Dst: int(d.C >> 16 & 0xffff), Flits: int(d.C >> 32),
		Bypass:  d.B>>8&1 != 0,
		Payload: memory.Msg{Kind: memory.MsgKind(d.B & 0xff), Line: d.A},
	}
}

// advanceHop returns the hop an advance descriptor's head is leaving.
func advanceHop(d *sim.EventDesc) int { return int(d.B >> 16 & 0xffff) }

// Fire runs one network event. The descriptor is trusted: the network
// scheduled it, or CheckEvent vetted it on restore.
func (n *Network) Fire(d *sim.EventDesc) {
	switch d.Kind {
	case netEvAdvance:
		n.advance(d)
	case netEvFree:
		n.free(d)
	default: // netEvSpace
		n.drain(int(d.A))
	}
}

// free ends a port's service of one message and starts the next.
func (n *Network) free(d *sim.EventDesc) {
	if d.A == 0 {
		p := &n.entrance[d.B]
		p.busy = false
		n.kick(p, int(d.B))
		return
	}
	p := &n.links[d.A-1][d.B]
	p.busy = false
	n.kick(p, -1)
}

// CheckEvent validates a network event descriptor read from a
// snapshot: every endpoint, hop and link it names must exist.
func (n *Network) CheckEvent(d sim.EventDesc) error {
	switch d.Kind {
	case netEvAdvance:
		m, hop := advanceMsg(&d), advanceHop(&d)
		if m.Src >= n.ports || m.Dst >= n.ports || hop > n.stages || m.Flits < 1 {
			return fmt.Errorf("network: advance event out of range (src %d dst %d hop %d flits %d)", m.Src, m.Dst, hop, m.Flits)
		}
	case netEvFree:
		if d.A == 0 {
			if d.B >= uint64(n.ports) {
				return fmt.Errorf("network: free event for entrance %d of %d", d.B, n.ports)
			}
		} else if d.A > uint64(n.stages) || d.B >= uint64(n.padded) {
			return fmt.Errorf("network: free event for link %d.%d outside %d stages of %d", d.A-1, d.B, n.stages, n.padded)
		}
	case netEvSpace:
		if d.A >= uint64(n.ports) {
			return fmt.Errorf("network: space event for source %d of %d", d.A, n.ports)
		}
	default:
		return fmt.Errorf("network: unknown event kind %d", d.Kind)
	}
	return nil
}

// TransitState is one queued message in a snapshot. The hop is implied
// by which port queue holds it.
type TransitState struct {
	Src, Dst, Flits int
	Bypass          bool
	Kind            uint8
	Line            uint64
	Queued          sim.Cycle
}

// PortState is one link resource's snapshot: its busy flag and waiting
// queue (head first). The message currently in service, if any, lives
// in the engine as a pending advance event, not here.
type PortState struct {
	Busy  bool
	Queue []TransitState
}

// NetState is the complete serializable state of a Network.
type NetState struct {
	Entrance []PortState
	Links    [][]PortState
	OnSpace  []bool // sources with a registered WhenSpace
	InFlight int
	Stats    Stats
}

func saveTransit(t *transit) TransitState {
	return TransitState{
		Src: t.msg.Src, Dst: t.msg.Dst, Flits: t.msg.Flits, Bypass: t.msg.Bypass,
		Kind: uint8(t.msg.Payload.Kind), Line: t.msg.Payload.Line, Queued: t.queued,
	}
}

func savePort(p *port) PortState {
	st := PortState{Busy: p.busy}
	for i := p.head; i < len(p.queue); i++ {
		st.Queue = append(st.Queue, saveTransit(p.queue[i]))
	}
	return st
}

// Save captures the network's buffers, counters and registrations.
func (n *Network) Save() NetState {
	st := NetState{
		Entrance: make([]PortState, n.ports),
		Links:    make([][]PortState, n.stages),
		OnSpace:  make([]bool, n.ports),
		InFlight: n.inFlight,
		Stats:    n.stats,
	}
	for i := range n.entrance {
		st.Entrance[i] = savePort(&n.entrance[i])
		st.OnSpace[i] = n.onSpace[i]
	}
	for s := range n.links {
		st.Links[s] = make([]PortState, n.padded)
		for i := range n.links[s] {
			st.Links[s][i] = savePort(&n.links[s][i])
		}
	}
	return st
}

// loadPort rebuilds one port's queue; hop is the hop index transits in
// this queue are waiting for.
func (n *Network) loadPort(p *port, st PortState, hop int) {
	p.busy = st.Busy
	for _, ts := range st.Queue {
		t := n.allocTransit(Message{
			Src: ts.Src, Dst: ts.Dst, Flits: ts.Flits, Bypass: ts.Bypass,
			Payload: memory.Msg{Kind: memory.MsgKind(ts.Kind), Line: ts.Line},
		}, hop)
		t.queued = ts.Queued
		p.queue = append(p.queue, t)
	}
}

// Load restores a freshly constructed network from a snapshot.
func (n *Network) Load(st NetState) error {
	if n.inFlight != 0 {
		return fmt.Errorf("network: Load on a used network (%d in flight)", n.inFlight)
	}
	if len(st.Entrance) != n.ports || len(st.Links) != n.stages || len(st.OnSpace) != n.ports {
		return fmt.Errorf("network: snapshot topology (%d ports, %d stages) does not match (%d ports, %d stages)",
			len(st.Entrance), len(st.Links), n.ports, n.stages)
	}
	for s := range st.Links {
		if len(st.Links[s]) != n.padded {
			return fmt.Errorf("network: snapshot stage %d has %d links, want %d", s, len(st.Links[s]), n.padded)
		}
	}
	for i := range n.entrance {
		n.loadPort(&n.entrance[i], st.Entrance[i], 0)
	}
	copy(n.onSpace, st.OnSpace)
	for s := range n.links {
		for i := range n.links[s] {
			n.loadPort(&n.links[s][i], st.Links[s][i], s+1)
		}
	}
	n.inFlight = st.InFlight
	n.stats = st.Stats
	return nil
}
