package sim

import (
	"fmt"
	"sort"
)

// Component classes for event descriptors. The machine layer assigns
// one class per component type and registers one handler per class
// (Engine.Handle); Unit distinguishes instances. CompNone marks an
// event scheduled through plain At/After — its descriptor names only
// an engine-owned callback slot, so such events cannot be serialized,
// and Save reports them so implicit state is flushed out instead of
// silently dropped.
const (
	CompNone uint8 = iota
	CompMachine
	CompCPU
	CompCache
	CompModule
	CompNet

	compClasses // number of classes, CompNone included
)

// EventDesc is a scheduled event as plain data: Comp/Unit identify the
// owning component; Kind and A/B/C are interpreted by that component's
// Fire method. The descriptor carries everything the owner needs to
// act when the event fires, so the value the engine dispatches is the
// value a snapshot stores.
type EventDesc struct {
	Comp uint8
	Kind uint8
	Unit int32
	A    uint64
	B    uint64
	C    uint64
}

// EventState is one pending event in a snapshot: its firing cycle, its
// insertion sequence number (the tie-breaker that fixes execution order
// within a cycle), and its descriptor.
type EventState struct {
	At   Cycle
	Seq  uint64
	Desc EventDesc
}

// EngineState is the complete serializable state of an Engine. Events
// are sorted by Seq so Load can insert them in a single pass that
// preserves every bucket's FIFO (= seq) order.
type EngineState struct {
	Now    Cycle
	Seq    uint64
	Steps  uint64
	Events []EventState
}

// Save captures the engine's counters and every pending event. It
// fails if any pending event was scheduled through plain At/After:
// such an event holds state only its callback knows, which a snapshot
// cannot carry.
func (e *Engine) Save() (EngineState, error) {
	st := EngineState{Now: e.now, Seq: e.seq, Steps: e.steps}
	if e.count > 0 {
		st.Events = make([]EventState, 0, e.count)
	}
	collect := func(h int32) error {
		n := &e.nodes[h]
		if n.desc.Comp == CompNone {
			return fmt.Errorf("sim: pending event at cycle %d (seq %d) has no descriptor; scheduled via At/After instead of AtEvent", n.at, n.seq)
		}
		st.Events = append(st.Events, EventState{At: n.at, Seq: n.seq, Desc: n.desc})
		return nil
	}
	for i := range e.buckets {
		for h := e.buckets[i].head; h != 0; h = e.nodes[h].next {
			if err := collect(h); err != nil {
				return EngineState{}, err
			}
		}
	}
	for _, h := range e.overflow {
		if err := collect(h); err != nil {
			return EngineState{}, err
		}
	}
	if len(st.Events) != e.count {
		return EngineState{}, fmt.Errorf("sim: enumerated %d pending events, engine counts %d", len(st.Events), e.count)
	}
	sort.Slice(st.Events, func(i, j int) bool { return st.Events[i].Seq < st.Events[j].Seq })
	return st, nil
}

// Load rebuilds the engine from a saved state: counters are restored
// and every saved event is re-inserted unchanged, with its original
// cycle and sequence number. The engine must be freshly constructed
// (nothing scheduled). Load checks the queue's own invariants; what a
// descriptor's operands mean is its owner's to validate before Load
// (the machine's CheckEvent pass).
//
// Because events arrive sorted by Seq and buckets append at the tail,
// every bucket's FIFO order equals seq order, so the restored engine
// executes events in an order bit-identical to the uninterrupted run.
func (e *Engine) Load(st EngineState) error {
	if e.count != 0 || e.steps != 0 {
		return fmt.Errorf("sim: Load on a used engine (%d pending, %d executed)", e.count, e.steps)
	}
	prev := uint64(0)
	for _, ev := range st.Events {
		if ev.Seq <= prev {
			return fmt.Errorf("sim: event sequence numbers not strictly increasing (%d after %d)", ev.Seq, prev)
		}
		prev = ev.Seq
		if ev.Seq > st.Seq {
			return fmt.Errorf("sim: event seq %d beyond saved counter %d", ev.Seq, st.Seq)
		}
		if ev.At < st.Now {
			return fmt.Errorf("sim: saved event at cycle %d before engine time %d", ev.At, st.Now)
		}
		if c := ev.Desc.Comp; c == CompNone || c >= compClasses {
			return fmt.Errorf("sim: saved event at cycle %d (seq %d) has invalid component class %d", ev.At, ev.Seq, c)
		}
	}
	e.now = st.Now
	e.steps = st.Steps
	for i := range st.Events {
		ev := &st.Events[i]
		e.insert(ev.At, ev.Seq, ev.Desc)
	}
	e.seq = st.Seq
	return nil
}
