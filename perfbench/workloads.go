package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/metrics"
	"memsim/internal/workloads"
)

// env is what every instance of a workload receives.
type env struct {
	seed int64  // workload seed
	dir  string // scratch directory for snapshot files
}

// workload is one benchmark workload; once runs a single instance from
// spec to validated, checksummed result.
type workload struct {
	name string
	once func(env) (sample, error)
}

var allWorkloads = []workload{
	{"psim64-sc1", psim64SC1},
	{"relax16-wo1", relax16WO1},
	{"sweep-quick", sweepQuick},
	{"psim32-rc-ckpt", psim32RCCkpt},
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload sizes. Each instance takes one to three seconds on a 2-vCPU
// Xeon host, so a run of a few tens of seconds holds enough instances
// for steady medians.
const (
	psim64Procs = 64
	psim64Ports = 256
	psim64Refs  = 4

	relaxProcs = 16
	relaxN     = 256
	relaxIters = 4

	psim32Procs      = 32
	psim32Ports      = 128
	psim32Refs       = 12
	psim32CkptCycles = 230_000 // five checkpoints in a run of ~1.2M cycles
)

// sample is one instance's measurements. counts are deterministic
// simulated outputs (the gate requires them identical across the
// instances of a run); host holds per-layer host times and sizes.
type sample struct {
	wall, cpu   float64   // one instance, spec to checksummed result: wall and CPU seconds
	setup       float64   // CPU seconds of one setup, before the first event
	run, runCPU float64   // run phase: wall and CPU seconds
	rss         float64   // peak resident MB while the instance ran
	refs        []float64 // CPU seconds of each reference kernel run before it (untraced only)
	instrs      uint64    // simulated instructions retired (spin-skipped iterations credited)
	checksum    string
	counts      map[string]float64
	host        map[string]float64
}

// memDelta records the Go runtime's allocation and GC work since
// before (traced instances only; ReadMemStats stops the world).
func (s *sample) memDelta(before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.host["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	s.host["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	s.host["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	s.host["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// gate enforces correctness across the instances of one run: every
// instance must succeed, and its checksum and deterministic counts must
// equal the first instance's.
type gate struct {
	workload          string
	attempted, failed int
	checksum          string
	counts            map[string]float64
}

// check records one instance and reports whether it passed.
func (g *gate) check(s sample, err error) bool {
	g.attempted++
	if err == nil {
		err = g.compare(s)
	}
	if err != nil {
		g.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s instance %d FAILED: %v\n", g.workload, g.attempted, err)
		return false
	}
	return true
}

func (g *gate) compare(s sample) error {
	if g.counts == nil {
		g.checksum, g.counts = s.checksum, s.counts
		return nil
	}
	if s.checksum != g.checksum {
		return fmt.Errorf("checksum %s differs from the first instance's %s", s.checksum, g.checksum)
	}
	for k, v := range g.counts {
		if s.counts[k] != v {
			return fmt.Errorf("%s = %v differs from the first instance's %v", k, s.counts[k], v)
		}
	}
	return nil
}

// tally sums the deterministic counts of one or more runs.
type tally struct {
	events, instrs, stalls, syncInstrs uint64
	accesses, hits, rejects            uint64
	modReqs, busy, queued, invals      uint64
	msgs, flits, queueDelay, retries   uint64
}

func (t *tally) add(r machine.Result, syncInstrs uint64) {
	t.events += r.Events
	t.instrs += r.Instructions()
	t.syncInstrs += syncInstrs
	for _, c := range r.CPUs {
		t.stalls += c.StallInterlock + c.StallLoadWait + c.StallOutstanding + c.StallConflict +
			c.StallDrain + c.StallSync + c.StallBlocking + c.StallRelease
	}
	for _, c := range r.Caches {
		t.accesses += c.Reads + c.Writes
		t.hits += c.ReadHits + c.WriteHits
		t.rejects += c.Conflicts + c.Fulls
	}
	for _, m := range r.Modules {
		t.modReqs += m.Reads + m.Writes + m.WriteBacks
		t.busy += m.BusyCycles
		t.queued += m.QueuedCycles
		t.invals += m.Invalidates
	}
	for _, n := range []struct{ Messages, Flits, QueueDelay, Retries uint64 }{
		{r.ReqNet.Messages, r.ReqNet.Flits, r.ReqNet.QueueDelay, r.ReqNet.Retries},
		{r.RespNet.Messages, r.RespNet.Flits, r.RespNet.QueueDelay, r.RespNet.Retries},
	} {
		t.msgs += n.Messages
		t.flits += n.Flits
		t.queueDelay += n.QueueDelay
		t.retries += n.Retries
	}
}

func (t *tally) counts() map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"sim.events":                 float64(t.events),
		"sim.events_per_kinstr":      1000 * ratio(t.events, t.instrs),
		"cpu.instructions":           float64(t.instrs),
		"cpu.stall_cycles":           float64(t.stalls),
		"cpu.sync_instrs":            float64(t.syncInstrs),
		"cache.accesses":             float64(t.accesses),
		"cache.hit_rate":             ratio(t.hits, t.accesses),
		"cache.mshr_rejects":         float64(t.rejects),
		"memory.requests":            float64(t.modReqs),
		"memory.busy_cycles":         float64(t.busy),
		"memory.queued_cycles":       float64(t.queued),
		"memory.invalidates":         float64(t.invals),
		"network.messages":           float64(t.msgs),
		"network.flits":              float64(t.flits),
		"network.queue_delay_cycles": float64(t.queueDelay),
		"network.send_retries":       float64(t.retries),
	}
}

// stopwatch accumulates named host-time spans.
type stopwatch struct {
	host map[string]float64
	last time.Time
}

func newStopwatch() *stopwatch { return &stopwatch{host: map[string]float64{}, last: time.Now()} }

// lap charges the time since the previous lap to name and returns it.
func (w *stopwatch) lap(name string) float64 {
	now := time.Now()
	d := now.Sub(w.last).Seconds()
	w.last = now
	w.host[name] += d
	return d
}

// machineConfig is the simulated system of the single-machine workloads.
func machineConfig(w workloads.Workload, model consistency.Model, cache, line int) machine.Config {
	return machine.Config{
		Procs: w.Procs, Model: model, CacheSize: cache, LineSize: line,
		LoadDelay: 4, SharedWords: w.SharedWords,
	}
}

// setupReps is how many times an instance sets up its workload and
// machine before running the last one: a setup takes milliseconds, so
// one timing is mostly noise and the median of several is not.
const setupReps = 5

// prepared is a workload on a fresh machine with its image set up.
type prepared struct {
	w     workloads.Workload
	cfg   machine.Config
	m     *machine.Machine
	sw    *stopwatch // spans of the kept setup; the instance adds its own
	start time.Time  // when the kept setup began
	cpu0  float64    // process CPU seconds then
	setup float64    // median CPU seconds of one setup
}

// setUp builds the workload, its machine (machine.New) and its image
// setupReps times and keeps the last.
func setUp(build func() workloads.Workload, model consistency.Model, cache, line int) (prepared, error) {
	times := make([]float64, setupReps)
	var p prepared
	for i := range times {
		p = prepared{start: time.Now(), cpu0: cpuSeconds(), sw: newStopwatch()}
		p.w = build()
		p.sw.lap("workloads.build_s")
		p.cfg = machineConfig(p.w, model, cache, line)
		m, err := machine.New(p.cfg, p.w.Programs)
		if err != nil {
			return prepared{}, err
		}
		p.m = m
		p.sw.lap("machine.new_s")
		p.w.Setup(m.Shared())
		p.sw.lap("workloads.image_s")
		times[i] = cpuSeconds() - p.cpu0
	}
	p.setup = median(times)
	return p, nil
}

// runMachine runs one workload on a fresh machine: build, New, image
// setup, run, validate, checksum.
func runMachine(build func() workloads.Workload, model consistency.Model, cache, line int) (sample, error) {
	p, err := setUp(build, model, cache, line)
	if err != nil {
		return sample{}, err
	}
	cpu0 := cpuSeconds()
	res, err := p.m.RunControlled(machine.RunControl{})
	if err != nil {
		return sample{}, err
	}
	run, runCPU := p.sw.lap("machine.run_s"), cpuSeconds()-cpu0
	if err := p.w.Validate(p.m.Shared()); err != nil {
		return sample{}, err
	}
	p.sw.lap("workloads.validate_s")
	sum := res.Checksum()
	p.sw.lap("machine.checksum_s")
	var t tally
	t.add(res, p.m.SyncInstructions())
	return sample{
		wall: time.Since(p.start).Seconds(), cpu: cpuSeconds() - p.cpu0, setup: p.setup,
		run: run, runCPU: runCPU, instrs: res.Instructions(),
		checksum: sum, counts: t.counts(), host: p.sw.host,
	}, nil
}

// psim64SC1 is the big-machine, coherence-heavy run.
func psim64SC1(e env) (sample, error) {
	s, err := runMachine(func() workloads.Workload {
		return workloads.Psim(psim64Procs, psim64Ports, psim64Refs, e.seed)
	}, consistency.SC1, 16<<10, 16)
	if err == nil && s.counts["cpu.sync_instrs"] == 0 {
		err = errors.New("psim retired no synchronization instructions")
	}
	return s, err
}

// relax16WO1 is the cache-resident, CPU-bound run.
func relax16WO1(e env) (sample, error) {
	return runMachine(func() workloads.Workload {
		return workloads.Relax(relaxProcs, relaxN, relaxIters, workloads.RelaxDefault, e.seed)
	}, consistency.WO1, 64<<10, 64)
}

// psim32RCCkpt is the persisted and observed path: a metrics collector
// is attached, the run checkpoints periodically to snapshot files, and
// a mid-run snapshot is read back, restored into a fresh machine and
// run to completion, which must reproduce the uninterrupted checksum.
func psim32RCCkpt(e env) (sample, error) {
	p, err := setUp(func() workloads.Workload {
		return workloads.Psim(psim32Procs, psim32Ports, psim32Refs, e.seed)
	}, consistency.RC, 16<<10, 16)
	if err != nil {
		return sample{}, err
	}
	w, cfg, m, sw := p.w, p.cfg, p.m, p.sw
	mc := metrics.New()
	m.AttachMetrics(mc)

	var files []string
	ckpt := func() error {
		t0 := time.Now()
		snap, err := m.Snapshot()
		if err != nil {
			return err
		}
		t1 := time.Now()
		path := filepath.Join(e.dir, fmt.Sprintf("ckpt-%d.mcsp", len(files)))
		if err := machine.WriteSnapshotFile(path, snap); err != nil {
			return err
		}
		t2 := time.Now()
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		files = append(files, path)
		sw.host["machine.snapshot_s"] += t1.Sub(t0).Seconds()
		sw.host["machine.snapshot_write_s"] += t2.Sub(t1).Seconds()
		sw.host["machine.snapshot_bytes"] += float64(fi.Size())
		return nil
	}
	defer func() {
		for _, f := range files {
			os.Remove(f)
		}
	}()
	cpu0 := cpuSeconds()
	res, err := m.RunControlled(machine.RunControl{CheckpointEvery: psim32CkptCycles, Checkpoint: ckpt})
	if err != nil {
		return sample{}, err
	}
	run, runCPU := sw.lap("machine.run_s"), cpuSeconds()-cpu0
	if len(files) == 0 {
		return sample{}, errors.New("the run ended before its first checkpoint")
	}
	if err := w.Validate(m.Shared()); err != nil {
		return sample{}, err
	}
	sw.lap("workloads.validate_s")
	sum := res.Checksum()
	sw.lap("machine.checksum_s")
	var rep countingWriter
	if err := mc.Report(uint64(res.Cycles)).WriteJSON(&rep); err != nil {
		return sample{}, err
	}
	sw.lap("metrics.report_s")
	sw.host["metrics.report_bytes"] = float64(rep)

	// Crash recovery: a fresh machine resumes from the middle snapshot.
	m2, err := machine.New(cfg, w.Programs)
	if err != nil {
		return sample{}, err
	}
	m2.AttachMetrics(metrics.New())
	sw.lap("machine.new_s")
	snap, err := machine.ReadSnapshotFile(files[len(files)/2])
	if err != nil {
		return sample{}, err
	}
	read := sw.lap("machine.snapshot_read_s")
	if err := m2.Restore(snap); err != nil {
		return sample{}, err
	}
	sw.host["machine.resume_s"] = read + sw.lap("machine.restore_s")
	res2, err := m2.RunControlled(machine.RunControl{})
	if err != nil {
		return sample{}, err
	}
	sw.lap("machine.run_s")
	if err := w.Validate(m2.Shared()); err != nil {
		return sample{}, fmt.Errorf("restored run: %w", err)
	}
	if sum2 := res2.Checksum(); sum2 != sum {
		return sample{}, fmt.Errorf("restored run checksum %s differs from the uninterrupted %s", sum2, sum)
	}
	sw.lap("machine.checksum_s")

	var t tally
	t.add(res, m.SyncInstructions())
	return sample{
		wall: time.Since(p.start).Seconds(), cpu: cpuSeconds() - p.cpu0, setup: p.setup,
		run: run, runCPU: runCPU, instrs: res.Instructions(),
		checksum: sum, counts: t.counts(), host: sw.host,
	}, nil
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// sweepParams is the quick preset shrunk so one sweep takes about two
// seconds, most of its runs well under 100 ms.
func sweepParams(seed int64) experiments.Params {
	p := experiments.Quick()
	p.Name = "bench"
	p.GaussN = 16
	p.QsortN = 400
	p.RelaxN = 16
	p.PsimPorts, p.PsimRefs = 16, 4
	p.Seed = seed
	return p
}

// sweepWorkers is the Runner's worker count (cmd/sweep -j).
const sweepWorkers = 2

// sweepExperiments are the experiments of cmd/sweep -all except f6
// (Figure 6): its sixteen 32-CPU Gauss runs would take 70% of the
// sweep's time, and this workload is about many short runs.
var sweepExperiments = []struct {
	id  string
	run func(*experiments.Runner) (fmt.Stringer, error)
}{
	{"t2", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunTable2(r) }},
	{"f2", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure2(r) }},
	{"f4", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure4(r) }},
	{"f5", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure5(r) }},
	{"f7", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure7(r) }},
	{"f8", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure8(r) }},
	{"f9", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunFigure9(r) }},
	{"t3-6", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunTables3to6(r) }},
	{"rwo", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunAblationRWO(r) }},
	{"mshr", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunAblationMSHR(r) }},
	{"zoo", func(r *experiments.Runner) (fmt.Stringer, error) { return experiments.RunZoo(r) }},
}

// sweepSeeds is how many sweeps an instance runs, with seeds --seed,
// --seed+1, ...: Qsort's data decides how long processors wait at locks
// and barriers, so one sweep's host time moves by up to 15% from seed
// to seed, and averaging over seeds narrows that.
const sweepSeeds = 2

// sweepRun is one sweep through one memoizing Runner.
type sweepRun struct {
	r        *experiments.Runner
	specs    []experiments.RunSpec // every spec the sweep ran fresh
	spans    []float64             // host seconds of each fresh run
	sums     []string              // key and Result checksum of each fresh run
	texts    []string              // every experiment's report
	wall, cp float64               // wall and CPU seconds of the sweep
}

// sweep runs the experiments with one seed on sweepWorkers workers, as
// cmd/sweep -all -j 2 does, adding the fresh runs' counts to t.
func sweep(seed int64, t *tally) (*sweepRun, error) {
	s := &sweepRun{r: experiments.NewRunner(sweepParams(seed)), texts: make([]string, len(sweepExperiments))}
	var (
		mu     sync.Mutex
		starts = map[string]time.Time{}
	)
	s.r.OnStart = func(key string, spec experiments.RunSpec) {
		mu.Lock()
		starts[key] = time.Now()
		s.specs = append(s.specs, spec)
		mu.Unlock()
	}
	s.r.OnResult = func(key string, _ experiments.RunSpec, res machine.Result) {
		sum := res.Checksum()
		mu.Lock()
		s.spans = append(s.spans, time.Since(starts[key]).Seconds())
		s.sums = append(s.sums, key+" "+sum)
		t.add(res, 0)
		mu.Unlock()
	}

	start, cpu0 := time.Now(), cpuSeconds()
	errs := make([]error, len(sweepExperiments))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < sweepWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				out, err := sweepExperiments[j].run(s.r)
				if err != nil {
					errs[j] = fmt.Errorf("seed %d %s: %w", seed, sweepExperiments[j].id, err)
					continue
				}
				s.texts[j] = out.String()
			}
		}()
	}
	for j := range sweepExperiments {
		next <- j
	}
	close(next)
	wg.Wait()
	s.wall, s.cp = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return s, errors.Join(errs...)
}

// sweepQuick runs sweepSeeds sweeps back to back. Their setup time is
// measured separately afterwards: Runner.Build (workload, machine,
// image) for each spec the sweeps ran fresh, the median of setupReps
// passes.
func sweepQuick(e env) (sample, error) {
	var (
		runs            []*sweepRun
		spans           []float64
		wall, cpu, busy float64
		t               tally
	)
	h := sha256.New()
	for i := int64(0); i < sweepSeeds; i++ {
		s, err := sweep(e.seed+i, &t)
		if err != nil {
			return sample{}, err
		}
		runs = append(runs, s)
		wall += s.wall
		cpu += s.cp
		for _, d := range s.spans {
			busy += d
		}
		spans = append(spans, s.spans...)
		// The checksum covers every fresh run's Result and every report.
		sort.Strings(s.sums)
		fmt.Fprintln(h, strings.Join(s.sums, "\n"))
		fmt.Fprintln(h, strings.Join(s.texts, "\n"))
	}
	host := map[string]float64{
		"experiments.run_p50_ms":       1e3 * quantile(spans, 0.5),
		"experiments.run_p90_ms":       1e3 * quantile(spans, 0.9),
		"experiments.worker_busy_frac": busy / (sweepWorkers * wall),
	}

	runtime.GC() // do not charge the sweeps' garbage to the builds
	passes := make([]float64, setupReps)
	for i := range passes {
		c0 := cpuSeconds()
		for _, s := range runs {
			for _, spec := range s.specs {
				if _, err := s.r.Build(spec); err != nil {
					return sample{}, fmt.Errorf("build %s: %w", s.r.Key(spec), err)
				}
			}
		}
		passes[i] = cpuSeconds() - c0
	}
	counts := t.counts()
	counts["experiments.fresh_runs"] = float64(len(spans))
	return sample{
		wall: wall, cpu: cpu, setup: median(passes), run: wall, runCPU: cpu,
		instrs: t.instrs, checksum: fmt.Sprintf("%x", h.Sum(nil)), counts: counts, host: host,
	}, nil
}
