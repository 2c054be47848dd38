package machine

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"memsim/internal/cache"
	"memsim/internal/cpu"
	"memsim/internal/isa"
	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/network"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Event kinds for machine-owned engine events (sim.EventDesc.Kind).
const (
	machEvTail     uint8 = iota + 1 // data-tail delivery to a module
	machEvWatchdog                  // stall-watchdog window tick
	machEvCheck                     // coherence invariant check tick
)

// Network units: EventDesc.Unit distinguishes the two Omega networks.
const (
	netUnitReq  int32 = 0
	netUnitResp int32 = 1
)

func machDesc(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompMachine, Kind: kind, Unit: -1}
}

// tailDesc describes a pending data-tail delivery: the message is tiny
// (kind + line), so the descriptor carries it whole.
func tailDesc(dst, src int, msg memory.Msg) sim.EventDesc {
	d := machDesc(machEvTail)
	d.A = msg.Line
	d.B = uint64(msg.Kind) | uint64(src)<<8 | uint64(dst)<<32
	return d
}

// hashPrograms fingerprints the per-processor programs so a snapshot
// can only be restored into a machine running the same code.
func hashPrograms(progs [][]isa.Inst) [32]byte {
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(progs); err != nil {
		panic(fmt.Sprintf("machine: hashing programs: %v", err)) // gob on plain structs cannot fail
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// decodeTail unpacks a data-tail descriptor (see tailDesc).
func decodeTail(d *sim.EventDesc) (dst, src int, msg memory.Msg) {
	return int(d.B >> 32), int(d.B >> 8 & 0xffffff), memory.Msg{Kind: memory.MsgKind(d.B & 0xff), Line: d.A}
}

// CheckEvent validates one engine event descriptor read from a
// snapshot: its component class, unit and kind must exist, and every
// index among its operands must name live state of this machine.
// Restore runs it over every saved event before the engine loads them,
// so the dispatch path itself never meets a malformed descriptor.
func (m *Machine) CheckEvent(d sim.EventDesc) error {
	unit := func(n int) error {
		if d.Unit < 0 || int(d.Unit) >= n {
			return fmt.Errorf("machine: event for unit %d of %d in component class %d", d.Unit, n, d.Comp)
		}
		return nil
	}
	switch d.Comp {
	case sim.CompMachine:
		switch d.Kind {
		case machEvTail:
			if dst, src, _ := decodeTail(&d); src >= m.cfg.Procs || dst >= m.cfg.Procs {
				return fmt.Errorf("machine: tail event src %d dst %d out of range", src, dst)
			}
		case machEvWatchdog:
			if m.watchdog == nil {
				return fmt.Errorf("machine: watchdog event with no watchdog configured")
			}
		case machEvCheck:
			if !m.started || m.cfg.CheckEvery == 0 {
				return fmt.Errorf("machine: invariant-check event with no checker configured")
			}
		default:
			return fmt.Errorf("machine: unknown machine event kind %d", d.Kind)
		}
		return nil
	case sim.CompCPU:
		if err := unit(len(m.cpus)); err != nil {
			return err
		}
		return m.cpus[d.Unit].CheckEvent(d)
	case sim.CompCache:
		if err := unit(len(m.caches)); err != nil {
			return err
		}
		return m.caches[d.Unit].CheckEvent(d)
	case sim.CompModule:
		if err := unit(len(m.modules)); err != nil {
			return err
		}
		return m.modules[d.Unit].CheckEvent(d)
	case sim.CompNet:
		switch d.Unit {
		case netUnitReq:
			return m.reqNet.CheckEvent(d)
		case netUnitResp:
			return m.respNet.CheckEvent(d)
		}
		return fmt.Errorf("machine: network event for unit %d", d.Unit)
	}
	return fmt.Errorf("machine: event with unknown component class %d", d.Comp)
}

// Snapshot is the complete serializable state of a machine mid-run:
// restoring it into a freshly built machine with the same Config and
// programs continues the run with bit-identical results. Tracers and
// metrics samplers are re-attached by the restoring process; all
// accumulated metrics observations travel in the snapshot.
type Snapshot struct {
	Cfg      Config
	ProgHash [32]byte

	Shared  []uint64
	Halted  int
	Started bool

	Engine  sim.EngineState
	CPUs    []cpu.CPUState
	Caches  []cache.CacheState
	Modules []memory.ModuleState
	ReqNet  network.NetState
	RespNet network.NetState

	HasFaults    bool
	Faults       robust.InjectorState
	WatchdogLast uint64

	HasMetrics bool
	Metrics    metrics.CollectorState
}

// Snapshot captures the machine's complete state. The machine must be
// between events: either before Run, inside a RunControl checkpoint
// callback, or after RunControlled returned (ErrPaused or otherwise).
func (m *Machine) Snapshot() (*Snapshot, error) {
	eng, err := m.Eng.Save()
	if err != nil {
		return nil, fmt.Errorf("machine: saving engine: %w", err)
	}
	s := &Snapshot{
		Cfg:      m.cfg,
		ProgHash: m.progHash,
		Shared:   append([]uint64(nil), m.shared...),
		Halted:   m.halted,
		Started:  m.started,
		Engine:   eng,
		CPUs:     make([]cpu.CPUState, m.cfg.Procs),
		Caches:   make([]cache.CacheState, m.cfg.Procs),
		Modules:  make([]memory.ModuleState, m.cfg.Procs),
	}
	for i := 0; i < m.cfg.Procs; i++ {
		if s.CPUs[i], err = m.cpus[i].Save(); err != nil {
			return nil, fmt.Errorf("machine: saving cpu %d: %w", i, err)
		}
		if s.Caches[i], err = m.caches[i].Save(); err != nil {
			return nil, fmt.Errorf("machine: saving cache %d: %w", i, err)
		}
		s.Modules[i] = m.modules[i].Save()
	}
	s.ReqNet = m.reqNet.Save()
	s.RespNet = m.respNet.Save()
	if m.faults != nil {
		s.HasFaults = true
		s.Faults = m.faults.Save()
	}
	if m.watchdog != nil {
		s.WatchdogLast = m.watchdog.Last()
	}
	if m.mc != nil {
		s.HasMetrics = true
		s.Metrics = m.mc.Save()
	}
	return s, nil
}

// Restore loads a snapshot into this machine, which must be freshly
// built by New with the same configuration and programs (Restore
// verifies both) and not yet run. After Restore, RunControlled
// continues the interrupted run; the event execution order — and
// therefore every Result field — is bit-identical to the run the
// snapshot was taken from.
func (m *Machine) Restore(s *Snapshot) error {
	if m.started || m.Eng.Steps() != 0 || m.Eng.Pending() {
		return fmt.Errorf("machine: Restore on a machine that has already run")
	}
	if m.cfg != s.Cfg {
		return fmt.Errorf("machine: snapshot config %+v does not match machine config %+v", s.Cfg, m.cfg)
	}
	if m.progHash != s.ProgHash {
		return fmt.Errorf("machine: snapshot was taken from different programs")
	}
	if len(s.Shared) != len(m.shared) {
		return fmt.Errorf("machine: snapshot shared image %d words, machine has %d", len(s.Shared), len(m.shared))
	}
	if len(s.CPUs) != m.cfg.Procs || len(s.Caches) != m.cfg.Procs || len(s.Modules) != m.cfg.Procs {
		return fmt.Errorf("machine: snapshot component counts (%d/%d/%d) do not match %d processors",
			len(s.CPUs), len(s.Caches), len(s.Modules), m.cfg.Procs)
	}
	copy(m.shared, s.Shared)
	m.halted = s.Halted

	// Processors first: awaiting-op links are re-established when the
	// caches restore their MSHR binders.
	for i := 0; i < m.cfg.Procs; i++ {
		if err := m.cpus[i].Load(s.CPUs[i]); err != nil {
			return fmt.Errorf("machine: restoring cpu %d: %w", i, err)
		}
	}
	for i := 0; i < m.cfg.Procs; i++ {
		c := m.cpus[i]
		if err := m.caches[i].Load(s.Caches[i], c.RestoreBinder); err != nil {
			return fmt.Errorf("machine: restoring cache %d: %w", i, err)
		}
	}
	for i := 0; i < m.cfg.Procs; i++ {
		if err := m.cpus[i].FinishRestore(); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	for i := 0; i < m.cfg.Procs; i++ {
		if err := m.modules[i].Load(s.Modules[i]); err != nil {
			return fmt.Errorf("machine: restoring module %d: %w", i, err)
		}
	}
	if err := m.reqNet.Load(s.ReqNet); err != nil {
		return fmt.Errorf("machine: restoring request network: %w", err)
	}
	if err := m.respNet.Load(s.RespNet); err != nil {
		return fmt.Errorf("machine: restoring response network: %w", err)
	}

	if s.HasFaults != (m.faults != nil) {
		return fmt.Errorf("machine: snapshot fault injection (%v) does not match machine (%v)",
			s.HasFaults, m.faults != nil)
	}
	if m.faults != nil {
		m.faults.Load(s.Faults)
	}
	if s.HasMetrics && m.mc != nil {
		m.mc.Load(s.Metrics)
	}

	if s.Started && m.cfg.StallCycles > 0 {
		m.initWatchdog()
		m.watchdog.Restore(s.WatchdogLast)
	}
	m.started = s.Started

	for _, ev := range s.Engine.Events {
		if err := m.CheckEvent(ev.Desc); err != nil {
			return fmt.Errorf("machine: restoring event at cycle %d (seq %d): %w", ev.At, ev.Seq, err)
		}
	}
	if err := m.Eng.Load(s.Engine); err != nil {
		return fmt.Errorf("machine: restoring engine: %w", err)
	}
	return nil
}
