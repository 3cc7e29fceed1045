package main

import (
	"fmt"
	"strings"
	"time"

	"hipcloud/internal/experiments"
	"hipcloud/internal/secio"
)

const (
	// stormVirtual is each scenario's virtual duration. The herd (500
	// clients, 8 servers) is RunStorm's default; the fault schedule
	// scales with the duration.
	stormVirtual = 5 * time.Second / 2
	// Each call simulates its own seed, derived from --seed: one seed's
	// worlds cost up to a fifth more or less than another's to simulate,
	// so a run spreads over as many as it has calls. stormMinCalls is the
	// least it makes.
	stormMinCalls = 5
	// stormSetupVirtual is the virtual duration of a set-up call: long
	// enough to build the three worlds, too short to run their herds.
	stormSetupVirtual = time.Millisecond
	stormSetups       = 9
)

func stormOutcome(rs []experiments.StormResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s: contacts=%d redials=%d echo=%d/%d recontacts=%d p50=%v p99=%v dipped=%v recovery=%v shed=%d/%d/%d retrans=%d faults=%d; ",
			r.Kind, r.ContactsOK, r.Redials, r.EchoOK, r.EchoFail, r.Recontacts, r.RecontactP50, r.RecontactP99,
			r.Dipped, r.Recovery, r.CtlShed, r.RVSShed, r.DNSShed, r.Retransmits, len(r.FaultLog))
	}
	return b.String()
}

// stormSeed is the seed of call i.
func stormSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// simStorm times set-up as RunStorm calls too short to run the herd, then
// calls RunStorm, each call on its own seed, until the time is up. A
// last, unmeasured call repeats the first call's seed and must repeat its
// outcome. The operation is one scenario run (three per call); one fails
// when it leaves no client served or differs from its repeat. The echo
// probes that fail during the evacuation are designed into the run and
// fixed per seed, so they are reported as detail, not as failed
// operations.
func simStorm(r *run, tr *tracer) *pass {
	p := newPass()
	for i := 0; i < stormSetups; i++ {
		sp := tr.begin("setup/experiments.RunStorm", -1)
		start := time.Now()
		experiments.RunStorm(experiments.StormConfig{Seed: r.seed, Duration: stormSetupVirtual})
		p.setup = append(p.setup, time.Since(start).Seconds())
		tr.end(sp)
	}

	call := func(i int) []experiments.StormResult {
		rs, _ := experiments.RunStorm(experiments.StormConfig{Seed: stormSeed(r.seed, i), Duration: stormVirtual})
		r.attempted += int64(len(rs))
		for _, res := range rs {
			if res.ContactsOK == 0 || res.EchoOK == 0 {
				r.fail(1, "sim-storm %s call %d: no client served (%d contacts, %d echoes)", res.Kind, i, res.ContactsOK, res.EchoOK)
			}
		}
		return rs
	}
	var first []experiments.StormResult
	var retrans, contacts float64
	deadline := time.Now().Add(r.seconds)
	calls := 0
	for ; calls < stormMinCalls || time.Now().Before(deadline); calls++ {
		sp := tr.begin("experiments.RunStorm", -1)
		m := startMeter()
		rs := call(calls)
		p.sample(int64(len(rs)), m.stop(p, int64(len(rs))))
		tr.end(sp)
		if first == nil {
			first = rs
		}
		for _, res := range rs {
			if res.Kind == secio.HIP {
				retrans += float64(res.Retransmits)
				contacts += float64(res.ContactsOK)
			}
		}
	}
	sp := tr.begin("repeat/experiments.RunStorm", -1)
	again := call(0)
	tr.end(sp)
	for i := range first {
		if a, b := stormOutcome(again[i:i+1]), stormOutcome(first[i:i+1]); a != b {
			r.fail(1, "sim-storm is not deterministic: %s, on repeat %s", b, a)
		}
	}

	echo := map[string]any{}
	for _, res := range first {
		echo[res.Kind.String()] = map[string]int{"ok": res.EchoOK, "failed_by_design": res.EchoFail}
	}
	p.outcome = stormOutcome(first)
	p.detail["calls"] = calls
	p.detail["setup_s_each"] = p.setup
	p.detail["hip_retransmits_per_contact"] = ratio(retrans, contacts)
	p.detail["echo_probes_first_call"] = echo
	p.detail["virtual_s_per_scenario"] = stormVirtual.Seconds()
	return p
}
