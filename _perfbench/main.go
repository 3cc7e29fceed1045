// Command perfbench is hipcloud's benchmark. It drives one workload
// through the repository's public functions, checks the outputs, and
// prints one JSON result line:
//
//	go run . --workload sim-rubis --seed 1 --seconds 20 --trace 0
//
// Every workload reports the same metrics, each over the workload's own
// operation. With --trace 0 the result holds the end-to-end metrics from
// one untraced pass. With --trace 1 the time is split between an untraced
// pass and a traced one (spans around each call into the program plus a
// CPU profile folded by layer), and the result holds the per-layer
// metrics; the line before it reports the tracing overhead. METRICS.md
// lists the workloads, the metrics and which end-to-end metric each layer
// metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"hipcloud/perfbench/fold"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one measured execution of a workload. Every workload fills the
// same fields, over its own operation.
type pass struct {
	setup []float64 // wall seconds of each set-up
	rate  []float64 // operations per wall second, one value per sample
	ops   int64     // operations completed while measuring
	cpu   time.Duration
	alloc uint64 // bytes allocated while measuring
	// outcome summarises the virtual result of a simulated workload; the
	// traced pass must reproduce the untraced one exactly. Empty for
	// real-socket workloads, whose timing-dependent outcome is not fixed.
	outcome string
	detail  map[string]any // sample counts and other context
}

func newPass() *pass { return &pass{detail: map[string]any{}} }

// sample adds one rate sample: ops operations in wall time.
func (p *pass) sample(ops int64, wall time.Duration) {
	p.rate = append(p.rate, ratio(float64(ops), wall.Seconds()))
}

// e2e is the pass's end-to-end metrics.
func (p *pass) e2e() map[string]metric {
	return map[string]metric{
		"setup_s":       {median(append([]float64(nil), p.setup...)), "s"},
		"ops_per_s":     {median(append([]float64(nil), p.rate...)), "1/s"},
		"cpu_us_per_op": {ratio(float64(p.cpu.Nanoseconds())/1e3, float64(p.ops)), "us"},
		"max_rss_mb":    {maxRSSMB(), "MB"},
	}
}

// run carries one invocation's settings and its operation accounting.
type run struct {
	seed      int64
	seconds   time.Duration // measuring time of one pass
	attempted int64
	failed    int64
	problems  []string
}

// fail records a failed correctness gate; it fails the run and counts as
// n failed operations.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: gate failed:", msg)
}

// workloads maps each workload name to its measurement; tr is nil on an
// untraced pass.
var workloads = map[string]func(r *run, tr *tracer) *pass{
	"sim-rubis": simRubis,
	"sim-storm": simStorm,
	"udp-bulk":  udpBulk,
	"udp-rr":    udpRR,
}

func main() {
	name := flag.String("workload", "", "workload: sim-rubis, sim-storm, udp-bulk or udp-rr")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	child := flag.Bool("setup-child", false, "time one sim-rubis set-up and print its seconds (the workload runs this in child processes)")
	flag.Parse()
	if *child {
		fmt.Println(rubisSetup())
		return
	}
	measure, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-rubis|sim-storm|udp-bulk|udp-rr, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		r.seconds /= 2 // an untraced and a traced pass share the time
	}

	base := measure(r, nil)
	metrics, detail := base.e2e(), base.detail
	prov := provenance(*name, r, *trace)
	if *trace == 1 {
		var prof bytes.Buffer
		tr := newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: start CPU profile:", err)
			os.Exit(1)
		}
		traced := measure(r, tr)
		pprof.StopCPUProfile()
		if traced.outcome != base.outcome {
			r.fail(1, "traced outcome %q differs from untraced %q", traced.outcome, base.outcome)
		}
		shares, layers, err := cpuShares(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		metrics = map[string]metric{
			// Allocation comes from the untraced pass: the spans allocate.
			"runtime.alloc_bytes_per_op": {ratio(float64(base.alloc), float64(base.ops)), "B/op"},
		}
		for _, l := range fold.Layers {
			metrics[l.Name+".cpu_pct"] = metric{layers[l.Name], "%"}
		}
		metrics["runtime.gc_cpu_pct"] = metric{shares[fold.GC], "%"}
		metrics["runtime.sched_cpu_pct"] = metric{shares[fold.Sched], "%"}
		metrics["other.cpu_pct"] = metric{shares[fold.Other], "%"}
		detail["cpu_pct_by_module"] = shares
		detail["traced"] = traced.detail
		prov["trace_overhead_pct"] = overhead(base.e2e(), traced.e2e())
		prov["trace_files"] = writeTrace(*name, r.seed, tr, prof.Bytes())
	}
	prov["detail"] = detail
	if len(r.problems) > 0 {
		prov["problems"] = r.problems
	}
	if r.attempted < 1 {
		r.fail(1, "no operation attempted")
		r.attempted = 1
	}
	emit(map[string]any{"provenance": prov})
	emit(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// cpuShares folds the CPU profile into module and cross-cutting shares
// and into layer shares, all in percent of the samples.
func cpuShares(profile []byte) (modules, layers map[string]float64, err error) {
	samples, err := fold.Parse(profile)
	if err != nil {
		return nil, nil, err
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("CPU profile holds no samples")
	}
	modules = fold.Shares(samples)
	return modules, fold.LayerShares(modules), nil
}

// overhead reports, per end-to-end metric, how far the traced pass read
// from the untraced one: (traced - untraced) / untraced, in percent.
func overhead(untraced, traced map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for k, u := range untraced {
		if t, ok := traced[k]; ok && u.Value != 0 {
			out[k] = 100 * (t.Value - u.Value) / u.Value
		}
	}
	return out
}

func provenance(workload string, r *run, trace int) map[string]any {
	return map[string]any{
		"workload":         workload,
		"seed":             r.seed,
		"seconds_per_pass": r.seconds.Seconds(),
		"trace":            trace,
		"go":               runtime.Version(),
		"goos":             runtime.GOOS,
		"goarch":           runtime.GOARCH,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_model":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// meter takes the wall clock, process CPU and allocation at the start of
// a measured stretch.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{time.Now(), cpuTime(), totalAlloc()} }

// stop adds the stretch's operations, CPU and allocation to p and
// returns its wall time.
func (m meter) stop(p *pass, ops int64) time.Duration {
	wall := time.Since(m.wall)
	p.ops += ops
	p.cpu += cpuTime() - m.cpu
	p.alloc += totalAlloc() - m.alloc
	return wall
}

// ratio is a/b, or 0 when b is 0 (a failed gate leaves nothing to divide
// by, and JSON has no infinities).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a sample; it sorts xs in place.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile by the nearest-rank method; it sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// writeTrace stores the spans and the raw CPU profile under
// .bench_build/traces/ for inspection with go tool pprof.
func writeTrace(workload string, seed int64, tr *tracer, profile []byte) []string {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace dir:", err)
		return nil
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	spans, err := json.Marshal(tr.snapshot())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode spans:", err)
		return nil
	}
	var written []string
	for path, data := range map[string][]byte{stem + ".spans.json": spans, stem + ".cpu.pprof": profile} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			continue
		}
		written = append(written, path)
	}
	sort.Strings(written)
	return written
}
