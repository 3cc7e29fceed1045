package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/experiments"
	"hipcloud/internal/rubis"
	"hipcloud/internal/secio"
	"hipcloud/internal/workload"
)

// The sim-rubis workload is one Figure 2 cell per scenario at the
// paper's highest concurrency, repeated in rounds until the time is up.
// Its operation is one completed virtual request.
const (
	rubisClients = 50
	rubisVirtual = 2 * time.Second // virtual duration of one cell
	rubisWarmup  = time.Second / 2
	// rubisDeploySeed fixes the deployment (database contents, identities,
	// link jitter) at RunFig2's default seed; --seed drives the request
	// mix. The deployment seed moves the cost of a request by up to a
	// third, the mix seed by a few percent, so a fixed deployment keeps
	// runs on different seeds comparable.
	rubisDeploySeed = 1
	// setupDeploys is how many set-ups setup_s takes the median of.
	setupDeploys = 5
)

var rubisKinds = []secio.Kind{secio.Basic, secio.HIP, secio.SSL}

// fig2Deploy is the deployment RunFig2Point builds: EC2, LB + 3 web +
// 1 DB, RSA identities, the 2012 suites and the DB cache off.
func fig2Deploy(kind secio.Kind, seed int64) experiments.DeployConfig {
	return experiments.DeployConfig{
		Profile: cloud.EC2,
		Kind:    kind,
		NumWeb:  3,
		DBCache: false,
		UseRSA:  true,
		Seed:    seed,
		WithLB:  true,
	}
}

// cell is one scenario's closed-loop run.
type cell struct {
	completed, errors int
	meanRT            time.Duration
	events            uint64
	wall              time.Duration // wall time of Sim.Run
}

func (c cell) outcome() string {
	return fmt.Sprintf("completed=%d errors=%d mean_rt=%v events=%d", c.completed, c.errors, c.meanRT, c.events)
}

// runCell deploys one scenario and runs its closed loop on the mix of
// seed. The Sim.Run,
// where the requests are served, is the measured stretch: it adds to p.
func runCell(tr *tracer, parent int, kind secio.Kind, seed int64, p *pass) cell {
	sp := tr.begin("experiments.Deploy", parent)
	d := experiments.Deploy(fig2Deploy(kind, rubisDeploySeed))
	tr.end(sp)
	mix := rubis.NewMix(seed+rubisClients, d.DB.NumItems(), d.DB.NumUsers())
	addr, port := d.FrontAddr()
	w := &workload.ClosedLoop{
		Transport: d.ClientT,
		Target:    addr,
		Port:      port,
		Clients:   rubisClients,
		Duration:  rubisVirtual,
		Warmup:    rubisWarmup,
		NextPath:  mix.Next,
		Timeout:   8 * time.Second,
	}
	sp = tr.begin("workload.ClosedLoop.Run", parent)
	res := w.Run(d.Sim)
	tr.end(sp)

	sp = tr.begin("netsim.Sim.Run", parent)
	m := startMeter()
	d.Sim.Run(rubisVirtual + 10*time.Second)
	wall := m.stop(p, int64(res.Completed))
	tr.end(sp)
	sp = tr.begin("netsim.Sim.Shutdown", parent)
	d.Sim.Shutdown()
	tr.end(sp)
	return cell{
		completed: res.Completed,
		errors:    res.Errors,
		meanRT:    res.Latency.Mean(),
		events:    d.Sim.EventsFired(),
		wall:      wall,
	}
}

// rubisSetup deploys the workload's HIP deployment and returns the wall
// seconds it took. Identities are memoized by seed, so only the first
// Deploy of a process pays the RSA keygen; each set-up therefore runs in
// a fresh child process.
func rubisSetup() float64 {
	start := time.Now()
	d := experiments.Deploy(fig2Deploy(secio.HIP, rubisDeploySeed))
	took := time.Since(start).Seconds()
	d.Sim.Shutdown()
	return took
}

// childSetup runs rubisSetup in a child process of this binary and waits
// for it to end.
func childSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--setup-child").Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// simRubis measures set-up in several fresh processes, then runs rounds
// of a basic, a hip and an ssl cell until the time is up. Each round is
// one rate sample: its completed requests over the wall time of its
// three Sim.Run calls.
func simRubis(r *run, tr *tracer) *pass {
	p := newPass()
	for i := 0; i < setupDeploys; i++ {
		sp := tr.begin("setup/child", -1)
		s, err := childSetup()
		tr.end(sp)
		if err != nil {
			r.attempted++
			r.fail(1, "sim-rubis set-up %d: %v", i, err)
			continue
		}
		p.setup = append(p.setup, s)
	}

	cells := map[secio.Kind][]cell{}
	deadline := time.Now().Add(r.seconds)
	rounds := 0
	for rounds < 1 || time.Now().Before(deadline) {
		round := tr.begin(fmt.Sprintf("round/%d", rounds), -1)
		var wall time.Duration
		var completed int64
		for _, kind := range rubisKinds {
			sp := tr.begin("cell/"+kind.String(), round)
			c := runCell(tr, sp, kind, r.seed, p)
			tr.end(sp)
			wall += c.wall
			completed += int64(c.completed)
			r.attempted += int64(c.completed + c.errors)
			if c.errors > 0 || c.completed == 0 {
				r.fail(max(int64(c.errors), 1), "sim-rubis %s round %d: %d completed, %d errored requests", kind, rounds, c.completed, c.errors)
			}
			if prev := cells[kind]; len(prev) > 0 && prev[0].outcome() != c.outcome() {
				r.fail(1, "sim-rubis %s round %d is not deterministic: %s, first round %s", kind, rounds, c.outcome(), prev[0].outcome())
			}
			cells[kind] = append(cells[kind], c)
		}
		p.sample(completed, wall)
		tr.end(round)
		rounds++
	}

	var outcome []string
	for _, kind := range rubisKinds {
		cs := cells[kind]
		k := kind.String()
		var rate []float64
		for _, c := range cs {
			rate = append(rate, ratio(float64(c.completed), c.wall.Seconds()))
		}
		outcome = append(outcome, k+": "+cs[0].outcome())
		p.detail[k] = map[string]any{
			"completed_per_cell": cs[0].completed, "mean_rt_ms": float64(cs[0].meanRT) / 1e6,
			"events_per_vreq": ratio(float64(cs[0].events), float64(cs[0].completed)),
			"vreq_per_s":      median(rate),
		}
	}
	p.outcome = strings.Join(outcome, "; ")
	p.detail["rounds"] = rounds
	p.detail["setup_s_each"] = p.setup
	p.detail["clients"] = rubisClients
	p.detail["virtual_s_per_cell"] = rubisVirtual.Seconds()
	return p
}
