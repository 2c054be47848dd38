// Command perfbench is memsim's performance benchmark. It runs one
// workload in a closed loop (the next instance starts when the previous
// one has been validated) for a fixed host time, gates every instance
// on correctness, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer metrics from a profiled run — as the last line of
// standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload relax16-wo1 --seed 1992 --seconds 25 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric the benchmark can print, with its unit.
var units = map[string]string{
	"setup_s":              "s",
	"cpu_s":                "s",
	"sim_minstr_per_cpu_s": "Minstr/s",
	"max_rss_mb":           "MB",
	"wall_s":               "s",
	"sim_minstr_per_s":     "Minstr/s",
	"resume_s":             "s",
	"fail_rate":            "fraction",
	"ref_s":                "s",

	"sim.events":            "count",
	"sim.events_per_kinstr": "count",
	"sim.ns_per_event":      "ns",
	"sim.self_frac":         "fraction",

	"cpu.instructions": "count",
	"cpu.stall_cycles": "cycles",
	"cpu.sync_instrs":  "count",
	"cpu.self_frac":    "fraction",

	"cache.accesses":     "count",
	"cache.hit_rate":     "fraction",
	"cache.mshr_rejects": "count",
	"cache.self_frac":    "fraction",

	"memory.requests":      "count",
	"memory.busy_cycles":   "cycles",
	"memory.queued_cycles": "cycles",
	"memory.invalidates":   "count",
	"memory.self_frac":     "fraction",
	"memory.alloc_mb":      "MB",

	"network.messages":           "count",
	"network.flits":              "count",
	"network.queue_delay_cycles": "cycles",
	"network.send_retries":       "count",
	"network.self_frac":          "fraction",

	"machine.new_s":            "s",
	"machine.run_s":            "s",
	"machine.checksum_s":       "s",
	"machine.snapshot_s":       "s",
	"machine.snapshot_write_s": "s",
	"machine.snapshot_bytes":   "bytes",
	"machine.snapshot_read_s":  "s",
	"machine.restore_s":        "s",
	"machine.resume_s":         "s",
	"machine.self_frac":        "fraction",

	"workloads.build_s":    "s",
	"workloads.image_s":    "s",
	"workloads.validate_s": "s",

	"experiments.fresh_runs":       "count",
	"experiments.run_p50_ms":       "ms",
	"experiments.run_p90_ms":       "ms",
	"experiments.worker_busy_frac": "fraction",

	"metrics.report_s":     "s",
	"metrics.report_bytes": "bytes",
	"metrics.self_frac":    "fraction",

	"runtime.alloc_mb":    "MB",
	"runtime.mallocs":     "count",
	"runtime.gc_cycles":   "count",
	"runtime.gc_pause_ms": "ms",
	"runtime.self_frac":   "fraction",

	"bench.trace_overhead": "ratio",
}

// endToEnd are the metrics of an untraced run's result line. Their
// times are process CPU seconds (user plus system, all threads),
// rescaled to reference-host seconds by the reference kernel timed
// before each instance (see normalize): on a shared host, hypervisor
// steal moves wall time, and other tenants' load moves CPU time, by
// tens of percent from one run to the next. The table beside them adds
// the raw wall-time figures, resume_s (one workload only), fail_rate
// (in the result line as failed/attempted) and ref_s, the reference
// kernel's median CPU seconds in the run.
var endToEnd = []string{"setup_s", "cpu_s", "sim_minstr_per_cpu_s", "max_rss_mb"}

// tableOnly are the end-to-end figures printed only in the table.
var tableOnly = []string{"wall_s", "sim_minstr_per_s", "resume_s", "fail_rate", "ref_s"}

// perLayer are the metrics of a traced run's result line. A metric a
// workload cannot observe (no snapshots, no Runner) reads 0.
var perLayer = []string{
	"sim.events", "sim.events_per_kinstr", "sim.ns_per_event", "sim.self_frac",
	"cpu.instructions", "cpu.stall_cycles", "cpu.sync_instrs", "cpu.self_frac",
	"cache.accesses", "cache.hit_rate", "cache.mshr_rejects", "cache.self_frac",
	"memory.requests", "memory.busy_cycles", "memory.queued_cycles", "memory.invalidates",
	"memory.self_frac", "memory.alloc_mb",
	"network.messages", "network.flits", "network.queue_delay_cycles", "network.send_retries",
	"network.self_frac",
	"machine.new_s", "machine.run_s", "machine.checksum_s", "machine.snapshot_s",
	"machine.snapshot_write_s", "machine.snapshot_bytes", "machine.snapshot_read_s", "machine.restore_s",
	"machine.resume_s",
	"machine.self_frac",
	"workloads.build_s", "workloads.image_s", "workloads.validate_s",
	"experiments.fresh_runs", "experiments.run_p50_ms", "experiments.run_p90_ms",
	"experiments.worker_busy_frac",
	"metrics.report_s", "metrics.report_bytes", "metrics.self_frac",
	"runtime.alloc_mb", "runtime.mallocs", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"runtime.self_frac",
	"bench.trace_overhead",
}

// profiledLayers are the layers whose self_frac the traced run reports.
var profiledLayers = []string{"sim", "cpu", "cache", "memory", "network", "machine", "metrics", "runtime"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1992, "workload seed (1992 is the presets' seed; 2718 is held out for re-checking claims)")
		seconds = flag.Int("seconds", 10, "host seconds of closed-loop measurement")
		trace   = flag.Int("trace", 0, "1: profiled run printing the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		os.Exit(1)
	}
	code := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	os.RemoveAll(dir)
	os.Exit(code)
}

// run measures one workload and prints the report; it returns the exit
// code (1 when any instance failed its correctness gate).
func run(w workload, seed int64, window time.Duration, traced bool, dir string) int {
	fmt.Println(fingerprint())
	fmt.Printf("workload %s: seed=%d window=%v trace=%v\n", w.name, seed, window, traced)

	g := &gate{workload: w.name}
	env := env{seed: seed, dir: dir}
	var res result
	if !traced {
		samples := loop(w, env, window, g, false)
		vals := endToEndValues(samples)
		res = result{Metrics: pick(vals, endToEnd)}
		printTable("end-to-end (median of untraced instances; CPU times in reference-host seconds)", vals,
			append(endToEnd[:len(endToEnd):len(endToEnd)], tableOnly...), g)
		printSpread("cpu_s (raw)", field(samples, func(s sample) float64 { return s.cpu }))
		printSpread("ref_s", refTimes(samples))
		printSpread("wall_s", walls(samples))
		printSpread("max_rss_mb", field(samples, func(s sample) float64 { return s.rss }))
	} else {
		// Half the window untraced (the overhead baseline), half traced
		// under the CPU and allocation profilers.
		plain := loop(w, env, window/2, g, false)
		prof, err := startProfiles()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		tracedSamples := loop(w, env, window/2, g, true)
		buckets, err := prof.stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		vals := layerValues(tracedSamples, buckets)
		vals["bench.trace_overhead"] = median(walls(tracedSamples)) / median(walls(plain))
		res = result{Metrics: pick(vals, perLayer)}
		printTable("per-layer (traced instances; counts are exact)", vals, perLayer, g)
		printBuckets(buckets, len(tracedSamples))
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Correct = g.failed == 0
	fmt.Printf("checksum %s %s\n", w.name, g.checksum)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// loop runs instances back to back until window has elapsed (at least
// one), gating each; it returns the samples of the instances that
// passed.
func loop(w workload, e env, window time.Duration, g *gate, traced bool) []sample {
	var out []sample
	refBudget := 0.0
	deadline := time.Now().Add(window)
	for first := true; first || time.Now().Before(deadline); first = false {
		// Every instance starts from a collected heap with its free
		// pages returned to the kernel, as in a fresh process, so
		// neither the previous instance's garbage nor the scavenger's
		// timing is charged to it.
		debug.FreeOSMemory()
		var before runtime.MemStats
		var refs []float64
		if traced {
			runtime.ReadMemStats(&before)
		} else {
			refs = timeReference(refBudget)
		}
		resetPeakRSS()
		s, err := w.once(e)
		s.rss, s.refs = peakRSSMB(), refs
		refBudget = refShare * s.cpu
		if traced && err == nil {
			s.memDelta(&before)
		}
		if g.check(s, err) {
			out = append(out, s)
		}
	}
	return out
}

// endToEndValues reduces untraced samples to the end-to-end metrics.
func endToEndValues(ss []sample) map[string]float64 {
	v := map[string]float64{}
	if len(ss) == 0 {
		return v
	}
	speed := normalize(ss)
	v["ref_s"] = median(refTimes(ss))
	v["max_rss_mb"] = median(field(ss, func(s sample) float64 { return s.rss }))
	v["setup_s"] = median(field(ss, func(s sample) float64 { return s.setup })) * speed
	v["cpu_s"] = median(field(ss, func(s sample) float64 { return s.cpu })) * speed
	v["sim_minstr_per_cpu_s"] = median(field(ss, func(s sample) float64 { return float64(s.instrs) / s.runCPU / 1e6 })) / speed
	v["wall_s"] = median(walls(ss))
	v["sim_minstr_per_s"] = median(field(ss, func(s sample) float64 { return float64(s.instrs) / s.run / 1e6 }))
	if _, ok := ss[0].host["machine.resume_s"]; ok {
		v["resume_s"] = median(field(ss, func(s sample) float64 { return s.host["machine.resume_s"] }))
	}
	return v
}

// normalize returns the factor that turns the run's CPU seconds into
// reference-host seconds: the reference kernel's nominal CPU time over
// its median CPU time in this run. Host speed drifts by tens of percent
// over minutes on a shared machine, and within one run the kernel and
// the instances drift together, so the rescaled medians of two runs
// agree far better than the raw ones.
func normalize(ss []sample) float64 {
	return refNominal / median(refTimes(ss))
}

// refTimes pools the reference kernel's times over the run.
func refTimes(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.refs...)
	}
	return out
}

// layerValues reduces traced samples to the per-layer metrics:
// deterministic counts from the first sample (the gate has checked the
// rest agree), host times as medians, profile shares from buckets.
func layerValues(ss []sample, b buckets) map[string]float64 {
	v := map[string]float64{}
	if len(ss) == 0 {
		return v
	}
	for k, x := range ss[0].counts {
		v[k] = x
	}
	for k := range ss[0].host {
		v[k] = median(field(ss, func(s sample) float64 { return s.host[k] }))
	}
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = median(field(ss, func(s sample) float64 { return s.run })) / ev * 1e9
	}
	for _, l := range profiledLayers {
		v[l+".self_frac"] = b.cpuFrac(l)
	}
	v["memory.alloc_mb"] = b.alloc["memory"] / float64(len(ss)) / 1e6
	return v
}

// pick returns the named values as metrics, 0 for any not measured.
func pick(vals map[string]float64, names []string) map[string]metric {
	m := make(map[string]metric, len(names))
	for _, n := range names {
		m[n] = metric{Value: vals[n], Unit: units[n]}
	}
	return m
}

func printTable(title string, vals map[string]float64, names []string, g *gate) {
	fmt.Println(title + ":")
	for _, n := range names {
		v, ok := vals[n]
		if n == "fail_rate" {
			v, ok = float64(g.failed)/float64(max(g.attempted, 1)), true
		}
		if !ok {
			fmt.Printf("  %-28s %16s\n", n, "n/a")
			continue
		}
		fmt.Printf("  %-28s %16.6g %s\n", n, v, units[n])
	}
	fmt.Printf("  %-28s %16d\n", "instances attempted", g.attempted)
}

func printBuckets(b buckets, instances int) {
	fmt.Println("profile buckets (leaf frame layer: cpu share, MB allocated per instance):")
	var layers []string
	for l := range b.cpu {
		layers = append(layers, l)
	}
	for l := range b.alloc {
		if _, ok := b.cpu[l]; !ok {
			layers = append(layers, l)
		}
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("  %-12s %8.4f %10.2f\n", l, b.cpuFrac(l), b.alloc[l]/float64(max(instances, 1))/1e6)
	}
}

// printSpread shows how one metric varied across a run's samples.
func printSpread(name string, xs []float64) {
	fmt.Printf("  %s over %d samples: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n",
		name, len(xs), quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

func walls(ss []sample) []float64 { return field(ss, func(s sample) float64 { return s.wall }) }

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuSeconds is the process's CPU time so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the
// current RSS, so each instance's peak is its own. Where the kernel
// refuses, the peak stays the process's.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the peak resident set size since the last reset.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// fingerprint identifies the host and the code, so figures from
// different machines or commits are never compared by accident.
func fingerprint() string {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, dirty := gitState()
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s",
		cpuModel, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty)
}

// gitCommand runs git in the working directory, never searching for a
// repository above ceiling.
func gitCommand(ceiling string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+ceiling, "GIT_OPTIONAL_LOCKS=0")
	out, err := cmd.Output()
	return string(out), err
}

// gitState reports the checkout's commit and whether tracked files
// differ from it, or "unknown" outside a git work tree. The search for
// a repository stops at the checkout root.
func gitState() (commit, dirty string) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", "unknown"
	}
	git := func(args ...string) (string, bool) {
		out, err := gitCommand(filepath.Dir(wd), args...)
		return strings.TrimSpace(out), err == nil
	}
	commit, ok := git("rev-parse", "HEAD")
	if !ok || commit == "" {
		return "unknown", "unknown"
	}
	status, ok := git("status", "--porcelain", "--untracked-files=no")
	if !ok {
		return commit, "unknown"
	}
	return commit, fmt.Sprint(status != "")
}
