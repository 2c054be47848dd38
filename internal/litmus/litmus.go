// Package litmus is the conformance harness for the memory models: a
// library of classic litmus tests (store buffering, message passing,
// load buffering, IRIW, coherence shapes, and a synclib-built lock
// test), the allowed-outcome engine that derives each test's allowed
// set from a model's consistency.Spec, an exhaustive sequential-
// consistency oracle that cross-checks the engine's SC instance, and
// a perturbation driver that runs the generated programs on the real
// machine under every model and checks each observed outcome against
// the model's allowed set.
//
// The allowed set of a model is exactly what the engine reaches when
// it executes the test's operations in every order the model's
// hardware dials preserve (e.g. load-buffering needs non-blocking
// loads, so bWO1 never reaches it). Anything else is a violation: the
// hardware reordered where its contract says it must not.
package litmus

import (
	"fmt"
	"strings"

	"memsim/internal/isa"
	"memsim/internal/progb"
	"memsim/internal/workloads"
)

// OpKind is the kind of one abstract litmus operation.
type OpKind int

const (
	OpLoad OpKind = iota
	OpStore
	OpFence
)

// Ann is the synchronization annotation carried by an operation,
// mapped to the ISA access classes at code generation.
type Ann int

const (
	AnnPlain Ann = iota
	AnnAcquire
	AnnRelease
	AnnSync
)

// Op is one abstract operation of a litmus thread.
type Op struct {
	Kind OpKind
	Loc  int    // location index (loads and stores)
	Val  uint64 // value written (stores)
	Ann  Ann
}

// Thread is one thread's program-ordered operation list.
type Thread []Op

// MaxLocs is how many locations a program may name: one per name in
// progLocNames, and one per code-generator address register (r8..r11).
const MaxLocs = 4

// progLocNames names the locations of a program built by SynthTest.
var progLocNames = []string{"x", "y", "z", "w"}

// ValidateProgram rejects a program that no generator could have
// produced: no threads, an operation kind or annotation outside its
// enum, or a location outside 0..MaxLocs-1. Programs read from disk
// (comparator witnesses, difftest repro bundles) pass through it
// before anything formats, synthesizes or runs them.
func ValidateProgram(prog []Thread) error {
	if len(prog) == 0 {
		return fmt.Errorf("litmus: program has no threads")
	}
	for ti, th := range prog {
		for oi, op := range th {
			switch {
			case op.Kind < OpLoad || op.Kind > OpFence:
				return fmt.Errorf("litmus: thread %d op %d: kind %d outside %d..%d", ti, oi, op.Kind, OpLoad, OpFence)
			case op.Ann < AnnPlain || op.Ann > AnnSync:
				return fmt.Errorf("litmus: thread %d op %d: annotation %d outside %d..%d", ti, oi, op.Ann, AnnPlain, AnnSync)
			case op.Loc < 0 || op.Loc >= MaxLocs:
				return fmt.Errorf("litmus: thread %d op %d: location %d outside 0..%d", ti, oi, op.Loc, MaxLocs-1)
			}
		}
	}
	return nil
}

// SynthTest wraps an arbitrary declarative program as a runnable
// test: locations get the standard x/y/z/w names. It also returns the
// program's operation count. The comparator and the differential
// tester both build their programs through this one path, so they
// cannot disagree about what a program means.
func SynthTest(prog []Thread) (*Test, int) {
	nlocs, ops := 0, 0
	for _, th := range prog {
		ops += len(th)
		for _, op := range th {
			if op.Kind != OpFence && op.Loc >= nlocs {
				nlocs = op.Loc + 1
			}
		}
	}
	return &Test{
		Name:     "synth",
		NLocs:    nlocs,
		LocNames: progLocNames[:nlocs],
		Threads:  prog,
	}, ops
}

// FormatProgram renders a program in litmus notation, e.g.
// "P0: st x=1; ld y || P1: st y=1; ld x".
func FormatProgram(prog []Thread) string {
	var threads []string
	for _, th := range prog {
		var ops []string
		for _, op := range th {
			switch {
			case op.Kind == OpFence:
				ops = append(ops, "fence")
			case op.Kind == OpLoad && op.Ann == AnnAcquire:
				ops = append(ops, "ldAcq "+progLocNames[op.Loc])
			case op.Kind == OpLoad:
				ops = append(ops, "ld "+progLocNames[op.Loc])
			case op.Ann == AnnRelease:
				ops = append(ops, fmt.Sprintf("stRel %s=%d", progLocNames[op.Loc], op.Val))
			default:
				ops = append(ops, fmt.Sprintf("st %s=%d", progLocNames[op.Loc], op.Val))
			}
		}
		threads = append(threads, strings.Join(ops, "; "))
	}
	var b strings.Builder
	for i, t := range threads {
		if i > 0 {
			b.WriteString(" || ")
		}
		fmt.Fprintf(&b, "P%d: %s", i, t)
	}
	return b.String()
}

// Shorthand constructors keep the library readable.
func ld(loc int) Op           { return Op{Kind: OpLoad, Loc: loc} }
func ldAcq(loc int) Op        { return Op{Kind: OpLoad, Loc: loc, Ann: AnnAcquire} }
func st(loc int, v uint64) Op { return Op{Kind: OpStore, Loc: loc, Val: v} }
func stRel(loc int, v uint64) Op {
	return Op{Kind: OpStore, Loc: loc, Val: v, Ann: AnnRelease}
}
func fence() Op { return Op{Kind: OpFence, Ann: AnnSync} }

// Outcome is one observed (or enumerated) result of a test: the value
// each observed load returned, in canonical order (threads in index
// order, loads in program order within a thread), and the final
// memory value of each location.
type Outcome struct {
	Loads []uint64
	Mem   []uint64
}

// LoadRef names an observed load: which processor's register holds
// its value after the run.
type LoadRef struct {
	Thread int     `json:"thread"`
	Reg    isa.Reg `json:"reg"`
}

// Test is one litmus test. Most tests are declarative (Threads set):
// programs are generated from the abstract ops and the SC outcome set
// comes from the interleaving oracle. A custom test (Build set)
// supplies its own programs and explicit SC set — used for shapes the
// oracle cannot enumerate, like spin-lock critical sections.
type Test struct {
	Name     string
	Doc      string
	NLocs    int
	LocNames []string
	Threads  []Thread

	// Stride overrides the layout's location stride (0 = default 72,
	// distinct cache lines). The difftest generator sets 8 on its
	// false-sharing programs so locations share a line.
	Stride uint64

	// Custom-test fields (mutually exclusive with Threads).
	NThreads int
	Build    func(lay Layout, stagger []int) ([][]isa.Inst, []LoadRef, error)
	SCSet    []Outcome
}

// NumThreads returns how many processors the test occupies.
func (t *Test) NumThreads() int {
	if t.Threads != nil {
		return len(t.Threads)
	}
	return t.NThreads
}

// locName returns the display name of a location index.
func (t *Test) locName(i int) string {
	if i < len(t.LocNames) {
		return t.LocNames[i]
	}
	return fmt.Sprintf("loc%d", i)
}

// loadRefs returns the observed-load registry of a declarative test:
// thread i's k-th load binds register obsBase+k.
func (t *Test) loadRefs() []LoadRef {
	var refs []LoadRef
	for ti, th := range t.Threads {
		k := 0
		for _, op := range th {
			if op.Kind == OpLoad {
				refs = append(refs, LoadRef{Thread: ti, Reg: obsBase + isa.Reg(k)})
				k++
			}
		}
	}
	return refs
}

// loadSlots numbers a declarative test's observed loads in the
// canonical order of loadRefs: slots[thread][op] is the load's index
// in Outcome.Loads. It also returns the load count.
func (t *Test) loadSlots() (slots [][]int, n int) {
	slots = make([][]int, len(t.Threads))
	for ti, th := range t.Threads {
		slots[ti] = make([]int, len(th))
		for oi, op := range th {
			if op.Kind == OpLoad {
				slots[ti][oi] = n
				n++
			}
		}
	}
	return slots, n
}

// Key renders an outcome as the canonical string used for allowed-set
// membership and reporting, e.g. "P0:r4=0 P1:r4=1 | x=1 y=1".
func (t *Test) Key(refs []LoadRef, o Outcome) string {
	names := make([]string, len(o.Mem))
	for i := range names {
		names[i] = t.locName(i)
	}
	return FormatKey(refs, names, o)
}

// FormatKey renders an outcome key from its raw parts, so a replay
// bundle can reproduce keys without the Test that produced them.
func FormatKey(refs []LoadRef, locNames []string, o Outcome) string {
	var b strings.Builder
	for i, r := range refs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "P%d:r%d=%d", r.Thread, r.Reg, o.Loads[i])
	}
	if len(refs) > 0 {
		b.WriteString(" | ")
	}
	for i, v := range o.Mem {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", locNames[i], v)
	}
	return b.String()
}

// Refs returns the test's observed-load registry without generating
// full programs (declarative tests derive it; custom tests build once
// with zero stagger, which is cheap and deterministic).
func (t *Test) Refs() ([]LoadRef, error) {
	if t.Threads != nil {
		return t.loadRefs(), nil
	}
	_, refs, err := t.Build(DefaultLayout, make([]int, t.NThreads))
	return refs, err
}

// Library returns the litmus-test library, in presentation order.
func Library() []*Test {
	xy := []string{"x", "y"}
	tests := []*Test{
		{
			Name:     "sb",
			Doc:      "store buffering: both threads store then load the other location; both loads 0 requires store-load reordering",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1), ld(1)},
				{st(1, 1), ld(0)},
			},
		},
		{
			Name:     "sb+fence",
			Doc:      "store buffering with a sync fence between store and load: the fence drains, so the SC set is exact on every model",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1), fence(), ld(1)},
				{st(1, 1), fence(), ld(0)},
			},
		},
		{
			Name:     "mp",
			Doc:      "message passing: writer stores data then flag; reader seeing the flag but stale data requires store-store or load-load reordering",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), st(1, 1)},
				{ld(1), ld(0)},
			},
		},
		{
			Name:     "mp+crowd",
			Doc:      "message passing with a crowd of readers contending on data's home module: the crowd's directory transactions delay the data store's ownership grant (and its invalidates), so a store-store-reordering machine lets the main reader see the flag yet still hit its stale cached data",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), st(1, 1)},
				{ld(0), ld(1), ld(0)},
				{ld(0)},
				{ld(0)},
				{ld(0)},
				{ld(0)},
			},
		},
		{
			Name:     "mp+ra",
			Doc:      "message passing with release on the flag store and acquire on the flag load: ordered on every model",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), stRel(1, 1)},
				{ldAcq(1), ld(0)},
			},
		},
		{
			Name:     "lb",
			Doc:      "load buffering: both threads load then store the other location; both loads 1 requires a load to bind after the later store",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{ld(1), st(0, 1)},
				{ld(0), st(1, 1)},
			},
		},
		{
			Name:     "lb+ra",
			Doc:      "load buffering with acquire loads: the store cannot issue before the acquire completes, so the SC set is exact",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{ldAcq(1), st(0, 1)},
				{ldAcq(0), st(1, 1)},
			},
		},
		{
			Name:     "iriw",
			Doc:      "independent reads of independent writes: the two readers disagreeing on the store order requires load-load reordering",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1)},
				{st(1, 1)},
				{ld(0), ld(1)},
				{ld(1), ld(0)},
			},
		},
		{
			Name:     "iriw+sync",
			Doc:      "IRIW with a sync fence between each reader's loads: readers agree on the store order on every model",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1)},
				{st(1, 1)},
				{ld(0), fence(), ld(1)},
				{ld(1), fence(), ld(0)},
			},
		},
		{
			Name:     "corr",
			Doc:      "coherent read-read: two loads of one location may not observe its writes out of order, on any model",
			NLocs:    1,
			LocNames: []string{"x"},
			Threads: []Thread{
				{st(0, 1)},
				{ld(0), ld(0)},
			},
		},
		{
			Name:     "coww",
			Doc:      "coherent write-write: one thread's two stores to one location reach memory in program order, on any model",
			NLocs:    1,
			LocNames: []string{"x"},
			Threads: []Thread{
				{st(0, 1), st(0, 2)},
				{ld(0), ld(0)},
			},
		},
		lockTest(),
	}
	return tests
}

// TestByName finds a library test by name.
func TestByName(name string) (*Test, error) {
	for _, t := range Library() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("litmus: unknown test %q", name)
}

// Lock-test shared-memory layout: the synclib lock word and the
// counter it guards, on the standard litmus location addresses.
const (
	lockLoc    = 0
	counterLoc = 1
)

// lockTest builds the synclib-based critical-section test: two
// threads lock, read-increment-store a counter, and unlock. Mutual
// exclusion means the reads see 0 and 1 in some order and the counter
// ends at 2, on every model — the lock's acquire/release annotations
// are exactly what the relaxed models require for this to hold.
func lockTest() *Test {
	t := &Test{
		Name:     "lock",
		Doc:      "synclib spin-lock critical section: two threads increment a shared counter under the lock; mutual exclusion must hold on every model",
		NLocs:    2,
		LocNames: []string{"l", "c"},
		NThreads: 2,
	}
	t.Build = func(lay Layout, stagger []int) ([][]isa.Inst, []LoadRef, error) {
		progs := make([][]isa.Inst, t.NThreads)
		refs := make([]LoadRef, t.NThreads)
		for tid := 0; tid < t.NThreads; tid++ {
			b := progb.New()
			obs := b.Alloc() // allocated first: stable register across threads
			for i := 0; i < stagger[tid]; i++ {
				b.Nop()
			}
			la := b.Alloc()
			ca := b.Alloc()
			b.LiU(la, lay.Addr(lockLoc))
			b.LiU(ca, lay.Addr(counterLoc))
			workloads.EmitLock(b, la)
			b.Ld(obs, ca, 0)
			tmp := b.Alloc()
			b.Addi(tmp, obs, 1)
			b.St(ca, 0, tmp)
			workloads.EmitUnlock(b, la)
			b.Halt()
			p, err := b.Build()
			if err != nil {
				return nil, nil, fmt.Errorf("litmus: lock test thread %d: %w", tid, err)
			}
			progs[tid] = p
			refs[tid] = LoadRef{Thread: tid, Reg: obs}
		}
		return progs, refs, nil
	}
	t.SCSet = []Outcome{
		{Loads: []uint64{0, 1}, Mem: []uint64{0, 2}},
		{Loads: []uint64{1, 0}, Mem: []uint64{0, 2}},
	}
	return t
}
