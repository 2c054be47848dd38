package sim

import (
	"reflect"
	"strings"
	"testing"
)

// record routes e's CompMachine events to a handler that appends each
// fired descriptor's A field to order.
func record(e *Engine, order *[]uint64) {
	e.Handle(CompMachine, func(d *EventDesc) { *order = append(*order, d.A) })
}

// TestEngineSaveLoadRoundTrip schedules a mix of near events (ring),
// far events (overflow heap) and same-cycle ties, executes a prefix,
// saves, loads into a fresh engine and verifies the remaining events
// run in the identical order at identical cycles.
func TestEngineSaveLoadRoundTrip(t *testing.T) {
	var e1 Engine
	var got1 []uint64
	record(&e1, &got1)
	desc := func(id uint64) EventDesc { return EventDesc{Comp: CompMachine, Kind: 1, A: id} }

	// Ties at cycle 10, spread in the ring, and two beyond the horizon.
	e1.AtEvent(10, desc(1))
	e1.AtEvent(10, desc(2))
	e1.AtEvent(3, desc(3))
	e1.AtEvent(700, desc(4))
	e1.AtEvent(5000, desc(5))
	e1.AtEvent(2100, desc(6))

	// Execute the first event only, then snapshot mid-flight.
	if !e1.Step() {
		t.Fatal("no event to execute")
	}
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != e1.Now() || len(st.Events) != 5 {
		t.Fatalf("saved state: now=%d events=%d, want now=%d events=5", st.Now, len(st.Events), e1.Now())
	}

	// Finish the original run.
	for e1.Step() {
	}

	var e2 Engine
	var got2 []uint64
	got2 = append(got2, got1[0]) // the event executed before the snapshot
	record(&e2, &got2)
	if err := e2.Load(st); err != nil {
		t.Fatal(err)
	}
	if e2.Now() != st.Now {
		t.Fatalf("loaded Now %d, want %d", e2.Now(), st.Now)
	}
	for e2.Step() {
	}
	if len(got1) != len(got2) {
		t.Fatalf("restored engine ran %d events, original %d", len(got2), len(got1))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("execution order diverged at %d: original %v, restored %v", i, got1, got2)
		}
	}
	if e2.Now() != e1.Now() {
		t.Errorf("final cycles differ: original %d, restored %d", e1.Now(), e2.Now())
	}
}

// TestEngineSeqContinuesAfterLoad verifies the restored engine's
// insertion counter continues from the saved value, so events scheduled
// after a restore tie-break exactly as they would have in the original
// run.
func TestEngineSeqContinuesAfterLoad(t *testing.T) {
	var e1 Engine
	d := EventDesc{Comp: CompMachine, Kind: 1, A: 1}
	e1.AtEvent(50, d)
	e1.AtEvent(50, d)
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}

	var e2 Engine
	var order []uint64
	record(&e2, &order)
	if err := e2.Load(st); err != nil {
		t.Fatal(err)
	}
	// A new event at the same cycle must run after both restored ones.
	e2.AtEvent(50, EventDesc{Comp: CompMachine, Kind: 1, A: 2})
	for e2.Step() {
	}
	if want := []uint64{1, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestEngineSaveRejectsUntaggedEvents pins the auditability contract:
// an event scheduled through plain At/After cannot be serialized and
// Save must say so rather than drop it.
func TestEngineSaveRejectsUntaggedEvents(t *testing.T) {
	var e Engine
	e.After(5, func() {})
	_, err := e.Save()
	if err == nil {
		t.Fatal("Save succeeded with an untagged pending event")
	}
	if !strings.Contains(err.Error(), "no descriptor") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestEngineLoadRejectsUsedEngine pins that Load requires a fresh
// engine.
func TestEngineLoadRejectsUsedEngine(t *testing.T) {
	var e1 Engine
	e1.AtEvent(1, EventDesc{Comp: CompMachine, Kind: 1})
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}
	var e2 Engine
	e2.AtEvent(2, EventDesc{Comp: CompMachine, Kind: 1})
	if err := e2.Load(st); err == nil {
		t.Error("Load succeeded on an engine with pending events")
	}
	var e3 Engine
	e3.At(1, func() {})
	e3.Step()
	if err := e3.Load(st); err == nil {
		t.Error("Load succeeded on an engine that has executed events")
	}
}

// TestEngineLoadRejectsMalformedState pins Load's validation: events
// out of seq order, beyond the saved counter, in the past, or naming
// no component class a handler could be registered for.
func TestEngineLoadRejectsMalformedState(t *testing.T) {
	base := EngineState{Now: 100, Seq: 10, Events: []EventState{
		{At: 110, Seq: 4, Desc: EventDesc{Comp: CompMachine, Kind: 1}},
		{At: 120, Seq: 7, Desc: EventDesc{Comp: CompMachine, Kind: 1}},
	}}
	check := func(name string, mutate func(*EngineState)) {
		st := base
		st.Events = append([]EventState(nil), base.Events...)
		mutate(&st)
		var e Engine
		if err := e.Load(st); err == nil {
			t.Errorf("%s: Load succeeded", name)
		}
		if e.Pending() || e.Now() != 0 {
			t.Errorf("%s: rejected Load left the engine changed", name)
		}
	}
	check("duplicate seq", func(st *EngineState) { st.Events[1].Seq = 4 })
	check("decreasing seq", func(st *EngineState) { st.Events[1].Seq = 2 })
	check("seq beyond counter", func(st *EngineState) { st.Events[1].Seq = 11 })
	check("event in the past", func(st *EngineState) { st.Events[0].At = 99 })
	check("closure event", func(st *EngineState) { st.Events[1].Desc.Comp = CompNone })
	check("unknown class", func(st *EngineState) { st.Events[1].Desc.Comp = compClasses })

	// The base state itself must load.
	var e Engine
	if err := e.Load(base); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}
