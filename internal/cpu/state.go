package cpu

import (
	"fmt"

	"memsim/internal/cache"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/sim"
)

// Event kinds for processor-owned engine events (sim.EventDesc.Kind):
// the run callback, and the spin fast-forward's ghost iteration
// (spin.go). All execution state lives in the CPU itself.
const (
	cpuEvRun  uint8 = 1
	cpuEvSpin uint8 = 2
)

func (c *CPU) evdesc(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompCPU, Kind: kind, Unit: int32(c.id)}
}

// Fire runs one processor event. The kind is trusted: the processor
// scheduled it, or CheckEvent vetted it on restore.
func (c *CPU) Fire(d *sim.EventDesc) {
	if d.Kind == cpuEvSpin {
		c.spinGhost()
		return
	}
	c.run()
}

// CheckEvent validates a processor event descriptor read from a
// snapshot.
func (c *CPU) CheckEvent(d sim.EventDesc) error {
	if d.Kind != cpuEvRun && d.Kind != cpuEvSpin {
		return fmt.Errorf("cpu: unknown event kind %d", d.Kind)
	}
	return nil
}

// pendingOp flag bits in a serialized binder blob.
const (
	opFlagSync = 1 << iota
	opFlagRel
	opFlagDone
	opFlagRetired
	opFlagWBD
)

// SaveBinder packs a pending operation into an opaque blob so the
// cache can serialize the MSHR that points at it (cache.SavableBinder).
func (p *pendingOp) SaveBinder() cache.BinderBlob {
	var flags uint64
	if p.sync {
		flags |= opFlagSync
	}
	if p.rel {
		flags |= opFlagRel
	}
	if p.done {
		flags |= opFlagDone
	}
	if p.retired {
		flags |= opFlagRetired
	}
	if p.wbd {
		flags |= opFlagWBD
	}
	return cache.BinderBlob{W: [6]uint64{
		p.addr, p.value, p.seq, p.issue,
		uint64(p.op) | uint64(p.rd)<<8 | uint64(p.refKind)<<16 | flags<<24,
		0,
	}}
}

// unpackOp rebuilds a pooled pending operation from a blob.
func (c *CPU) unpackOp(b cache.BinderBlob) *pendingOp {
	p := c.allocOp()
	p.addr, p.value, p.seq, p.issue = b.W[0], b.W[1], b.W[2], b.W[3]
	packed := b.W[4]
	p.op = isa.Op(packed & 0xff)
	p.rd = isa.Reg(packed >> 8 & 0xff)
	p.refKind = metrics.RefClass(packed >> 16 & 0xff)
	flags := packed >> 24
	p.sync = flags&opFlagSync != 0
	p.rel = flags&opFlagRel != 0
	p.done = flags&opFlagDone != 0
	p.retired = flags&opFlagRetired != 0
	p.wbd = flags&opFlagWBD != 0
	return p
}

// RestoreBinder rebuilds a serialized pending operation for a restored
// MSHR. If the processor saved itself awaiting an operation still held
// by an MSHR, the rebuilt op with the matching miss sequence number is
// re-linked as the awaited one (committed in-flight misses carry
// distinct sequence numbers, so the match is unique).
func (c *CPU) RestoreBinder(b cache.BinderBlob) (cache.Binder, error) {
	p := c.unpackOp(b)
	// Drains live in their own sequence space, so a wbd op must never
	// satisfy the awaited-miss match.
	if c.wantAwait && !p.rel && !p.wbd && p.seq == c.wantAwaitSeq {
		if c.awaiting != nil {
			return nil, fmt.Errorf("cpu %d: two restored ops claim awaited seq %d", c.id, p.seq)
		}
		c.awaiting = p
	}
	return p, nil
}

// FinishRestore verifies cross-component links after every component
// has loaded: a processor that saved itself awaiting an in-MSHR
// operation must have been handed that operation back by its cache.
func (c *CPU) FinishRestore() error {
	if c.wantAwait && c.awaiting == nil {
		return fmt.Errorf("cpu %d: awaited op seq %d not found in any restored MSHR", c.id, c.wantAwaitSeq)
	}
	c.wantAwait = false
	if c.spinning {
		// The cache has loaded by now; re-arm the line watch the live
		// spin park had registered when the snapshot was taken. The
		// ghost event itself is restored by the engine (cpuEvSpin).
		c.cache.WatchLine(c.cache.LineAddr(c.spinAddr), c.spinNoticeFn)
	}
	return nil
}

// Awaiting modes in a CPUState.
const (
	awaitNone    uint8 = iota
	awaitInMSHR        // awaited op lives in an MSHR; match by AwaitSeq
	awaitRetired       // MSHR already freed; the op is serialized here
)

// ReleaseState is RC's pending background release in a snapshot.
type ReleaseState struct {
	Addr      uint64
	Value     uint64
	WaitCount int
	Issued    bool
	IssuedAt  sim.Cycle
}

// PrivPage is one allocated private-memory page.
type PrivPage struct {
	Page  uint64
	Words []uint64
}

// WBEntryState is one buffered store in a snapshot (oldest first). An
// issued entry's drain operation is serialized inside its MSHR's
// binder blob and re-linked by drain sequence number at retirement.
type WBEntryState struct {
	Addr    uint64
	Value   uint64
	Seq     uint64
	Pushed  sim.Cycle
	Issued  bool
	Retired bool
}

// CPUState is the complete serializable state of a processor. Private
// memory pages are sorted by page number so snapshot bytes are
// deterministic.
type CPUState struct {
	PC          int
	Regs        [isa.NumRegs]uint64
	RegReady    [isa.NumRegs]sim.Cycle
	RegPending  [isa.NumRegs]bool
	Outstanding int
	MissSeq     uint64

	Halted    bool
	Scheduled bool
	Parked    bool
	ParkWhy   uint8
	ParkCause uint8
	ParkedAt  sim.Cycle

	AwaitWhy      uint8
	PrefetchFired bool
	AwaitMode     uint8
	AwaitSeq      uint64
	AwaitOp       cache.BinderBlob

	HasRelease     bool
	Release        ReleaseState
	ReleaseBarrier uint64

	// Write buffer (TSO/PSO/PC). Empty for bufferless specs, so their
	// snapshot encoding is unchanged (gob omits zero-valued fields).
	WBSeq uint64
	WB    []WBEntryState

	// Spin fast-forward (spin.go). A zero SpinNextT can never match a
	// live resync cycle (t >= 1), so pre-idle-skip snapshots cannot
	// falsely engage. Detection state (SpinPC / SpinNextT / SpinPeriod)
	// is saved even when not spinning: the primed-then-confirm
	// handshake must resume exactly where it left off for timing to
	// stay bit-identical across snapshot/restore. An active spin's
	// ghost event rides in the engine's own saved queue (cpuEvSpin).
	Spinning   bool
	SpinStale  bool
	SpinPC     int
	SpinNextT  sim.Cycle
	SpinPeriod sim.Cycle
	SpinT0     sim.Cycle
	SpinSync   bool
	SpinAddr   uint64
	SpinVal    uint64
	SpinRd     uint8

	SyncInstrs uint64

	Stats Stats
	Priv  []PrivPage
}

// Save captures the processor's architectural and microarchitectural
// state.
func (c *CPU) Save() (CPUState, error) {
	st := CPUState{
		PC:          c.pc,
		Regs:        c.regs,
		RegReady:    c.regReady,
		RegPending:  c.regPending,
		Outstanding: c.outstanding,
		MissSeq:     c.missSeq,
		Halted:      c.halted,
		Scheduled:   c.scheduled,
		Parked:      c.parked,
		ParkWhy:     uint8(c.parkWhy),
		ParkCause:   uint8(c.parkCause),
		ParkedAt:    c.parkedAt,
		AwaitWhy:    uint8(c.awaitWhy),

		PrefetchFired:  c.prefetchFired,
		ReleaseBarrier: c.releaseBarrier,
		Spinning:       c.spinning,
		SpinStale:      c.spinStale,
		SpinPC:         c.spinPC,
		SpinNextT:      c.spinNextT,
		SpinPeriod:     c.spinPeriod,
		SpinT0:         c.spinT0,
		SpinSync:       c.spinSync,
		SpinAddr:       c.spinAddr,
		SpinVal:        c.spinVal,
		SpinRd:         uint8(c.spinRd),
		SyncInstrs:     c.syncInstrs,
		Stats:          c.stats,
		Priv:           c.priv.save(),
	}
	if c.awaiting != nil {
		if c.awaiting.retired {
			// The MSHR is gone; this record's only owner is the CPU.
			st.AwaitMode = awaitRetired
			st.AwaitOp = c.awaiting.SaveBinder()
		} else {
			st.AwaitMode = awaitInMSHR
			st.AwaitSeq = c.awaiting.seq
		}
	}
	if c.release != nil {
		st.HasRelease = true
		st.Release = ReleaseState{
			Addr: c.release.addr, Value: c.release.value,
			WaitCount: c.release.waitCount, Issued: c.release.issued,
			IssuedAt: c.release.issuedAt,
		}
	}
	st.WBSeq = c.wbSeq
	for i := 0; i < c.wbLen; i++ {
		e := c.wbAt(i)
		st.WB = append(st.WB, WBEntryState{
			Addr: e.addr, Value: e.value, Seq: e.seq, Pushed: e.pushed,
			Issued: e.issued, Retired: e.retired,
		})
	}
	return st, nil
}

// Load restores a freshly constructed processor from a snapshot. An
// operation awaited in an MSHR is re-linked later, when the cache
// restores its binders through RestoreBinder; call FinishRestore after
// all components have loaded to verify the link was made.
func (c *CPU) Load(st CPUState) error {
	if c.pc != 0 || c.scheduled || c.stats.Instructions != 0 {
		return fmt.Errorf("cpu: Load on a used processor %d", c.id)
	}
	c.pc = st.PC
	c.regs = st.Regs
	c.regReady = st.RegReady
	c.regPending = st.RegPending
	c.outstanding = st.Outstanding
	c.missSeq = st.MissSeq
	c.halted = st.Halted
	c.scheduled = st.Scheduled
	c.parked = st.Parked
	c.parkWhy = parkReason(st.ParkWhy)
	c.parkCause = metrics.StallCause(st.ParkCause)
	c.parkedAt = st.ParkedAt
	c.awaitWhy = parkReason(st.AwaitWhy)
	c.prefetchFired = st.PrefetchFired
	c.releaseBarrier = st.ReleaseBarrier
	c.spinning = st.Spinning
	// Pre-idle-skip snapshots carry no spin fields; their zero SpinPC /
	// SpinNextT can never confirm an engagement (resync cycles are >= 1),
	// so loading them is harmless.
	c.spinStale = st.SpinStale
	c.spinPC = st.SpinPC
	c.spinNextT = st.SpinNextT
	c.spinPeriod = st.SpinPeriod
	c.spinT0 = st.SpinT0
	c.spinSync = st.SpinSync
	c.spinAddr = st.SpinAddr
	c.spinVal = st.SpinVal
	c.spinRd = isa.Reg(st.SpinRd)
	c.syncInstrs = st.SyncInstrs
	c.stats = st.Stats
	c.priv.load(st.Priv)
	switch st.AwaitMode {
	case awaitNone:
	case awaitInMSHR:
		c.wantAwait = true
		c.wantAwaitSeq = st.AwaitSeq
	case awaitRetired:
		c.awaiting = c.unpackOp(st.AwaitOp)
	default:
		return fmt.Errorf("cpu %d: unknown await mode %d", c.id, st.AwaitMode)
	}
	if st.HasRelease {
		c.relBuf = pendingRelease{
			addr: st.Release.Addr, value: st.Release.Value,
			waitCount: st.Release.WaitCount, issued: st.Release.Issued,
			issuedAt: st.Release.IssuedAt,
		}
		c.release = &c.relBuf
	}
	if len(st.WB) > wbCap {
		return fmt.Errorf("cpu %d: snapshot write buffer has %d entries (cap %d)", c.id, len(st.WB), wbCap)
	}
	c.wbSeq = st.WBSeq
	c.wbHead = 0
	c.wbLen = len(st.WB)
	for i, e := range st.WB {
		c.wb[i] = wbEntry{
			addr: e.Addr, value: e.Value, seq: e.Seq, pushed: e.Pushed,
			issued: e.Issued, retired: e.Retired,
		}
	}
	return nil
}
