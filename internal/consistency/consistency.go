// Package consistency defines the memory consistency models the paper
// compares (its Table 1) as declarative hardware specifications.
//
// A Spec captures everything the processor, cache and network buffer
// need to know to implement a model:
//
//   - how many shared references may be outstanding at once,
//   - whether loads block on a miss,
//   - whether a stalled second reference triggers a non-binding
//     prefetch (SC2),
//   - whether synchronization operations are visible to the hardware
//     and, if so, whether releases retire in the background and
//     acquires ignore pending ordinary accesses (RC),
//   - whether loads may bypass queued messages in the processor-to-
//     network interface buffer (WO2).
//
// The paper's five systems plus the two blocking-load variants of §5.1
// are predefined. Custom specs can be constructed for ablations.
package consistency

import (
	"fmt"
	"strings"
)

// Model identifies one of the predefined system types.
type Model int

// The system types studied in the paper, plus the model zoo.
const (
	SC1  Model = iota // sequentially consistent baseline, non-blocking loads
	SC2               // SC1 + hardware-directed non-binding prefetch at stalls
	WO1               // weakly ordered, 5 MSHRs, stall at sync points
	WO2               // WO1 + load bypassing in the network interface buffer
	RC                // release consistent
	BSC1              // SC1 with blocking loads (§5.1)
	BWO1              // WO1 with blocking loads (§5.1)
	TSO               // total store order: FIFO write buffer with forwarding
	PSO               // partial store order: per-line write buffer drains
	PC                // processor consistency: TSO buffer + non-blocking loads
	numModels
)

// Models lists every predefined model in presentation order.
var Models = []Model{SC1, SC2, WO1, WO2, RC, BSC1, BWO1, TSO, PSO, PC}

// RelaxedModels lists the models compared against SC1 in Figures 4-6.
var RelaxedModels = []Model{SC2, WO1, WO2, RC}

// ZooModels lists the models added beyond the paper's systems.
var ZooModels = []Model{TSO, PSO, PC}

// ModelNames is the canonical registry of model names, in presentation
// order. CLIs share it for flag help and error messages.
func ModelNames() []string {
	names := make([]string, len(Models))
	for i, m := range Models {
		names[i] = m.String()
	}
	return names
}

func (m Model) String() string {
	switch m {
	case SC1:
		return "SC1"
	case SC2:
		return "SC2"
	case WO1:
		return "WO1"
	case WO2:
		return "WO2"
	case RC:
		return "RC"
	case BSC1:
		return "bSC1"
	case BWO1:
		return "bWO1"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	case PC:
		return "PC"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel converts a name like "SC1" or "bwo1" (case-insensitive on
// the letters) to a Model.
func ParseModel(s string) (Model, error) {
	for _, m := range Models {
		if equalFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("consistency: unknown model %q (valid: %s)", s, strings.Join(ModelNames(), ", "))
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Spec is the hardware behavior of a consistency model implementation.
type Spec struct {
	Model Model
	Name  string

	// MaxOutstanding is the number of shared references that may be in
	// flight simultaneously (1 for the SC systems; the MSHR count for
	// the relaxed ones). The machine replaces 0 with its MSHR count.
	MaxOutstanding int

	// BlockingLoads stalls the processor on a read miss until the line
	// returns (bSC1, bWO1).
	BlockingLoads bool

	// PrefetchOnStall issues one non-binding prefetch for the blocked
	// second reference while the processor stalls (SC2).
	PrefetchOnStall bool

	// SyncVisible makes acquire/release/sync classed operations special
	// to the hardware. False for the SC systems: they need no fences
	// (every access is already strongly ordered) and treat sync-classed
	// accesses as ordinary ones (TAS stays atomic).
	SyncVisible bool

	// ReleaseNonBlocking lets the processor run past a release; the
	// release retires in the background once the references outstanding
	// at its issue have performed (RC).
	ReleaseNonBlocking bool

	// AcquireIgnoresPending lets an acquire issue while ordinary
	// references are outstanding; the processor stalls only for the
	// acquire itself (RC).
	AcquireIgnoresPending bool

	// LoadBypass lets load requests enter at the head of the processor-
	// to-network interface buffer, ahead of queued messages (WO2).
	LoadBypass bool

	// WriteBuffer gives the processor a store buffer: ordinary stores
	// are buffered and retire in the background while execution
	// continues, and ordinary loads forward from the newest buffered
	// store to their address (read-own-write-early). Buffered stores
	// drain only while no demand reference is outstanding, so a store
	// never performs ahead of a program-earlier load (TSO, PSO, PC).
	WriteBuffer bool

	// WBFIFO drains the write buffer strictly in order, one store at a
	// time, preserving store-store order (TSO, PC). When false, any
	// buffered store with no earlier buffered store to the same cache
	// line may drain, so stores to different lines reorder (PSO).
	WBFIFO bool

	// WBLeak is a deliberate defect seeded by MutWBNoDrain: fences and
	// sync-classed operations no longer wait for the write buffer to
	// drain. Never set in a real spec.
	WBLeak bool
}

// Relaxation describes which of the four program-order edges between
// shared accesses to *different* locations the hardware may visibly
// break (the Adve/Gharachorloo relaxation axes). Same-location pairs,
// fences and sync-classed operations stay ordered regardless; a
// write-buffer spec additionally lets a load read its own thread's
// buffered store before that store performs globally.
type Relaxation struct {
	WR bool // a store may perform after a program-later load binds
	WW bool // stores may perform out of program order
	RR bool // loads may bind out of program order
	RW bool // a load may bind after a program-later store performs
}

// Relaxations derives the spec's visible reordering capabilities from
// its hardware dials. The litmus allowed-outcome engine, which the
// conformance harness, comparator and differential tester share,
// orders plain accesses by these axes.
func (s Spec) Relaxations() Relaxation {
	if s.SequentiallyConsistent() {
		return Relaxation{}
	}
	if s.WriteBuffer {
		return Relaxation{
			WR: true,
			WW: !s.WBFIFO,
			RR: !s.BlockingLoads,
		}
	}
	multi := s.MaxOutstanding != 1
	return Relaxation{
		WR: multi,
		WW: multi,
		RR: multi && !s.BlockingLoads,
		RW: multi && !s.BlockingLoads,
	}
}

// Summary is a one-line description of the spec's hardware, used by
// cmd/litmus -models and cmd/compare listings.
func (s Spec) Summary() string {
	var parts []string
	switch {
	case s.WriteBuffer && s.WBFIFO:
		parts = append(parts, "FIFO write buffer w/ forwarding")
	case s.WriteBuffer:
		parts = append(parts, "per-line write buffer w/ forwarding")
	case s.MaxOutstanding == 1:
		parts = append(parts, "1 outstanding ref")
	default:
		parts = append(parts, "MSHR-bounded outstanding refs")
	}
	if s.BlockingLoads {
		parts = append(parts, "blocking loads")
	} else {
		parts = append(parts, "non-blocking loads")
	}
	if s.PrefetchOnStall {
		parts = append(parts, "prefetch on stall")
	}
	if !s.SyncVisible {
		parts = append(parts, "sync invisible (SC)")
	} else if s.ReleaseNonBlocking {
		parts = append(parts, "background releases, eager acquires")
	} else {
		parts = append(parts, "sync ops drain")
	}
	if s.LoadBypass {
		parts = append(parts, "load bypass in netbuf")
	}
	r := s.Relaxations()
	var rx []string
	for _, ax := range []struct {
		on   bool
		name string
	}{{r.WR, "W→R"}, {r.WW, "W→W"}, {r.RR, "R→R"}, {r.RW, "R→W"}} {
		if ax.on {
			rx = append(rx, ax.name)
		}
	}
	if len(rx) == 0 {
		parts = append(parts, "relaxes nothing")
	} else {
		parts = append(parts, "relaxes "+strings.Join(rx, ","))
	}
	return strings.Join(parts, "; ")
}

// specs is the paper's Table 1, plus the §5.1 blocking-load variants.
var specs = [numModels]Spec{
	SC1: {
		Model:          SC1,
		Name:           "SC1",
		MaxOutstanding: 1,
	},
	SC2: {
		Model:           SC2,
		Name:            "SC2",
		MaxOutstanding:  1,
		PrefetchOnStall: true,
	},
	WO1: {
		Model:       WO1,
		Name:        "WO1",
		SyncVisible: true,
	},
	WO2: {
		Model:       WO2,
		Name:        "WO2",
		SyncVisible: true,
		LoadBypass:  true,
	},
	RC: {
		Model:                 RC,
		Name:                  "RC",
		SyncVisible:           true,
		ReleaseNonBlocking:    true,
		AcquireIgnoresPending: true,
	},
	BSC1: {
		Model:          BSC1,
		Name:           "bSC1",
		MaxOutstanding: 1,
		BlockingLoads:  true,
	},
	BWO1: {
		Model:         BWO1,
		Name:          "bWO1",
		SyncVisible:   true,
		BlockingLoads: true,
	},
	TSO: {
		Model:         TSO,
		Name:          "TSO",
		SyncVisible:   true,
		BlockingLoads: true,
		WriteBuffer:   true,
		WBFIFO:        true,
	},
	PSO: {
		Model:         PSO,
		Name:          "PSO",
		SyncVisible:   true,
		BlockingLoads: true,
		WriteBuffer:   true,
	},
	PC: {
		Model:       PC,
		Name:        "PC",
		SyncVisible: true,
		WriteBuffer: true,
		WBFIFO:      true,
	},
}

// SpecFor returns the hardware spec of a predefined model.
func SpecFor(m Model) Spec {
	if m < 0 || m >= numModels {
		panic(fmt.Sprintf("consistency: invalid model %d", int(m)))
	}
	return specs[m]
}

// SequentiallyConsistent reports whether the spec implements a model
// whose hardware enforces sequential consistency for all accesses
// (i.e. programs need no visible synchronization at all).
func (s Spec) SequentiallyConsistent() bool { return !s.SyncVisible }

// Mutation is a deliberate, named spec defect used by the litmus
// harness's self-check: it seeds an ordering bug that a correct
// conformance suite must detect. MutNone is the zero value and leaves
// the spec untouched, so ordinary configs are unaffected.
type Mutation int

const (
	// MutNone applies no mutation.
	MutNone Mutation = iota

	// MutSCOverlap breaks the SC systems by letting a second shared
	// reference issue while the first is still outstanding
	// (MaxOutstanding 1 → 2): a store can then perform before a prior
	// load has completed, which is exactly the store-buffering
	// violation SC hardware must prevent. Non-SC specs are unchanged.
	MutSCOverlap

	// MutWBNoDrain breaks the write-buffer systems (TSO, PSO, PC) by
	// letting fences and sync-classed operations complete without
	// draining the buffer: a fence no longer orders a buffered store
	// before a later load, so sb+fence becomes violable. Specs without
	// a write buffer are unchanged.
	MutWBNoDrain
)

// Mutations lists every defined mutation, MutNone first.
var Mutations = []Mutation{MutNone, MutSCOverlap, MutWBNoDrain}

// ParseMutation converts a mutation name ("none", "sc-overlap",
// "wb-no-drain", or "" for none) back to a Mutation. CLIs and replay
// bundles share it so a recorded defect round-trips exactly.
func ParseMutation(s string) (Mutation, error) {
	if s == "" {
		return MutNone, nil
	}
	for _, mu := range Mutations {
		if s == mu.String() {
			return mu, nil
		}
	}
	return 0, fmt.Errorf("consistency: unknown mutation %q (valid: none, sc-overlap, wb-no-drain)", s)
}

func (mu Mutation) String() string {
	switch mu {
	case MutNone:
		return "none"
	case MutSCOverlap:
		return "sc-overlap"
	case MutWBNoDrain:
		return "wb-no-drain"
	}
	return fmt.Sprintf("mutation(%d)", int(mu))
}

// Apply returns the spec with the mutation's defect introduced.
func (mu Mutation) Apply(s Spec) Spec {
	switch mu {
	case MutSCOverlap:
		if s.MaxOutstanding == 1 {
			s.MaxOutstanding = 2
		}
	case MutWBNoDrain:
		if s.WriteBuffer {
			s.WBLeak = true
		}
	}
	return s
}
