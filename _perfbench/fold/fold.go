package fold

import "strings"

// Modules are the hipcloud/internal packages that get a CPU share of
// their own, plus Harness. A sample whose innermost repo frame lies in
// another package (metrics, teredo, hipfw) counts as Other.
var Modules = []string{
	"netsim", "simtcp", "stream", "hipsim", "esp", "keymat", "tlslite",
	"secio", "microhttp", "proxy", "rubis", "workload", "cloud", "hip",
	"hipwire", "puzzle", "identity", "rvs", "hipdns", "faults", "hipudp",
	"experiments", Harness,
}

// Harness is the benchmark's own code (package main): the load loops
// that write, verify and echo bytes on the real-socket workloads.
const Harness = "harness"

// Layer is a group of modules: one layer of the stack.
type Layer struct {
	Name    string
	Modules []string
}

// Layers group every module into the stack's four layers. Each workload
// reaches all four, which is not true of every single module.
var Layers = []Layer{
	{"net", []string{"netsim", "simtcp", "stream", "hipsim", "faults", "cloud", "hipudp"}},
	{"crypto", []string{"esp", "keymat", "tlslite", "secio"}},
	{"hip", []string{"hip", "hipwire", "puzzle", "identity", "rvs", "hipdns"}},
	// app is the application tier and the code that drives the load:
	// the experiments' client procs and the harness's loops.
	{"app", []string{"microhttp", "proxy", "rubis", "workload", "experiments", Harness}},
}

// Layers that are not a repo module.
const (
	GC    = "runtime.gc"
	Sched = "runtime.sched"
	Other = "other"
	// Route is the sub-share of netsim spent in per-packet route lookup.
	Route = "netsim.route"
)

const repoPrefix = "hipcloud/internal/"

// harnessPrefix starts every frame of the benchmark's package main.
const harnessPrefix = "main."

// routeFrame is the per-packet routing-table scan.
const routeFrame = repoPrefix + "netsim.(*Node).lookupRoute"

// gcPrefixes name runtime functions that do garbage-collector work: mark
// workers, assists, write-barrier flushes, sweeping and scavenging.
var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.deductSweepCredit",
	"runtime.(*mheap).reclaim", "runtime.bgscavenge", "runtime.(*scavengerState)",
}

// schedPrefixes name scheduler, park and futex functions: the cost of
// handing the CPU from one goroutine to another.
var schedPrefixes = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.futex",
	"runtime.note", "runtime.stopm", "runtime.startm", "runtime.wakep",
	"runtime.runqsteal", "runtime.runqgrab", "runtime.stealWork",
	"runtime.usleep", "runtime.osyield", "runtime.netpoll", "runtime.goexit0",
	"runtime.gosched_m", "runtime.goschedImpl", "runtime.execute",
	"runtime.handoffp", "runtime.sysmon", "runtime.checkTimers",
	"runtime.resetspinning", "runtime.mPark", "runtime.semasleep",
	"runtime.semawakeup", "runtime.(*timers)", "runtime.(*timer)",
}

var isModule = func() map[string]bool {
	m := make(map[string]bool, len(Modules))
	for _, name := range Modules {
		m[name] = true
	}
	return m
}()

// Classify returns the layer a stack (innermost frame first) folds onto.
// Garbage-collector work is runtime.gc wherever it runs, assists inside
// repo allocations included. Otherwise the innermost hipcloud/internal
// frame names the layer, so standard-library crypto, math/big, syscall
// and allocation frames count toward the repo code that called them; a
// package main frame before any repo frame is Harness.
// Scheduler, park and futex frames with no repo frame are runtime.sched;
// everything else is other.
func Classify(frames []string) string {
	if anyPrefix(frames, gcPrefixes) {
		return GC
	}
	for _, f := range frames {
		if strings.HasPrefix(f, harnessPrefix) {
			return Harness
		}
		if mod, ok := module(f); ok {
			if isModule[mod] {
				return mod
			}
			return Other
		}
	}
	if anyPrefix(frames, schedPrefixes) {
		return Sched
	}
	return Other
}

// module extracts <module> from a hipcloud/internal/<module>.<func> frame.
func module(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// Shares folds samples into each layer's percentage of the total sample
// weight. Every module, GC, Sched, Other and Route has a key; Route is
// the part of the netsim share whose stack passes through route lookup.
func Shares(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(Modules)+4)
	for _, m := range Modules {
		out[m] = 0
	}
	out[GC], out[Sched], out[Other], out[Route] = 0, 0, 0, 0
	var total float64
	for _, s := range samples {
		w := float64(s.Weight)
		total += w
		layer := Classify(s.Frames)
		out[layer] += w
		if layer == "netsim" && contains(s.Frames, routeFrame) {
			out[Route] += w
		}
	}
	if total > 0 {
		for k, v := range out {
			out[k] = 100 * v / total
		}
	}
	return out
}

func contains(frames []string, want string) bool {
	for _, f := range frames {
		if f == want {
			return true
		}
	}
	return false
}

// LayerShares sums module shares, as Shares returns them, into Layers.
func LayerShares(sh map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		out[l.Name] = 0
		for _, m := range l.Modules {
			out[l.Name] += sh[m]
		}
	}
	return out
}
