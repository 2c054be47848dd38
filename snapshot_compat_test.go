// Snapshot format compatibility test.
//
// testdata/snapshots/quick-gauss4-rc.mcsp was written by an earlier
// build of the simulator, whose engine kept a callback next to every
// event descriptor and rebuilt those callbacks on restore. The file
// holds a 4-CPU Quick Gauss run under RC with 64-byte lines, paused at
// cycle 404099 with two network messages in service, a data-tail
// delivery, a module grant and an MSHR fill pending. Restoring it into
// the current simulator and running to completion must reproduce the
// uninterrupted run's checksum: checkpoints written before a change to
// the engine keep loading after it.
package memsim_test

import (
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/sim"
)

// compatChecksum is the uninterrupted run's checksum, recorded by the
// build that wrote the snapshot file.
const compatChecksum = "f0debc7bba7bc7ef443e4059c0789c1ce117fb70a88fe924f544d25085d61742"

func TestSnapshotFromEarlierBuildRestores(t *testing.T) {
	p := experiments.Quick()
	r := experiments.NewRunner(p)
	spec := experiments.RunSpec{
		Bench: experiments.BGauss, Model: consistency.RC,
		CacheSize: p.LargeCache, LineSize: 64, Procs: 4,
	}
	full, err := r.Run(spec)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if got := full.Checksum(); got != compatChecksum {
		t.Fatalf("uninterrupted checksum drifted\n  want %s\n  got  %s", compatChecksum, got)
	}

	snap, err := machine.ReadSnapshotFile("testdata/snapshots/quick-gauss4-rc.mcsp")
	if err != nil {
		t.Fatal(err)
	}
	// The file must keep exercising what it was chosen for: pending
	// events of every component class.
	classes := map[uint8]bool{}
	for _, ev := range snap.Engine.Events {
		classes[ev.Desc.Comp] = true
	}
	for _, c := range []uint8{sim.CompMachine, sim.CompCPU, sim.CompCache, sim.CompModule, sim.CompNet} {
		if !classes[c] {
			t.Errorf("snapshot holds no pending event of component class %d", c)
		}
	}

	m, err := r.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	res, err := m.RunControlled(machine.RunControl{MaxEvents: p.MaxEvents})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := res.Checksum(); got != compatChecksum {
		t.Errorf("resumed checksum differs from the uninterrupted run\n  want %s\n  got  %s", compatChecksum, got)
	}
}
