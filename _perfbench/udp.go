package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/identity"
)

// The udp-bulk and udp-rr workloads run hipudp stacks on 127.0.0.1 with
// hipd's defaults: DefaultOptions, ECDSA identities and nil Suites. Both
// set up by a base exchange (BEX) between fresh stack pairs.
const (
	setupPairs   = 32 // fresh stack pairs setup_s takes the median over
	setupIDs     = 16 // identity pool the pairs draw from
	rrSize       = 64
	rrWindow     = 100 * time.Millisecond // one udp-rr rate sample
	bulkWrite    = 16 << 10
	bulkTransfer = 1 << 20 // one udp-bulk operation: a verified transfer
	patternLen   = 3 << 19 // a multiple of bulkWrite, so writes never wrap
	ioTimeout    = 5 * time.Second
	bulkPort     = 5001
	rrPort       = 5002
)

var loopback = netip.MustParseAddr("127.0.0.1")

// udpPair is two hipudp stacks that know each other's endpoint.
type udpPair struct {
	a, b     *hipudp.Stack
	idA, idB *identity.HostIdentity
}

func newStack(id *identity.HostIdentity) (*hipudp.Stack, error) {
	h, err := hip.NewHost(hip.Config{Identity: id, Locator: loopback})
	if err != nil {
		return nil, fmt.Errorf("hip host: %w", err)
	}
	return hipudp.NewStackOpts(h, "127.0.0.1:0", hipudp.DefaultOptions())
}

func newPair(idA, idB *identity.HostIdentity) (*udpPair, error) {
	a, err := newStack(idA)
	if err != nil {
		return nil, err
	}
	b, err := newStack(idB)
	if err != nil {
		a.Close()
		return nil, err
	}
	a.AddPeer(idB.HIT(), netip.AddrPortFrom(loopback, uint16(b.LocalAddr().Port)))
	b.AddPeer(idA.HIT(), netip.AddrPortFrom(loopback, uint16(a.LocalAddr().Port)))
	return &udpPair{a: a, b: b, idA: idA, idB: idB}, nil
}

func (p *udpPair) stats() hipudp.Stats { return plus(p.a.Stats(), p.b.Stats(), 1) }

func (p *udpPair) close() {
	p.a.Close()
	p.b.Close()
}

// plus returns x + sign*y field by field.
func plus(x, y hipudp.Stats, sign int) hipudp.Stats {
	f := func(a, b uint64) uint64 {
		if sign < 0 {
			return a - b
		}
		return a + b
	}
	return hipudp.Stats{
		TxPackets: f(x.TxPackets, y.TxPackets), TxBytes: f(x.TxBytes, y.TxBytes),
		TxSyscalls: f(x.TxSyscalls, y.TxSyscalls), TxBatches: f(x.TxBatches, y.TxBatches),
		TxErrors: f(x.TxErrors, y.TxErrors), TxDrops: f(x.TxDrops, y.TxDrops),
		RxPackets: f(x.RxPackets, y.RxPackets), RxBytes: f(x.RxBytes, y.RxBytes),
		RxSyscalls: f(x.RxSyscalls, y.RxSyscalls), RxBatches: f(x.RxBatches, y.RxBatches),
	}
}

// socketDetail records the measured stretch's socket counters, from
// both stacks' Stats, per packet.
func socketDetail(p *pass, st hipudp.Stats) {
	pkts := float64(st.TxPackets)
	p.detail["hipudp"] = map[string]float64{
		"tx_syscalls_per_pkt": ratio(float64(st.TxSyscalls), pkts),
		"rx_syscalls_per_pkt": ratio(float64(st.RxSyscalls), float64(st.RxPackets)),
		"pkts_per_tx_batch":   ratio(pkts, float64(st.TxBatches)),
		"tx_drops_per_pkt":    ratio(float64(st.TxDrops), pkts+float64(st.TxDrops)),
	}
}

func seededID(seed int64, name string) *identity.HostIdentity {
	return identity.MustGenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("perfbench/%d/%s", seed, name))
}

// udpSetup times setupPairs set-ups, each a fresh stack pair and its
// Establish, and returns the last pair for the measurement; nil when a
// set-up failed. Each set-up is an operation.
func udpSetup(r *run, tr *tracer, p *pass) *udpPair {
	ids := make([]*identity.HostIdentity, setupIDs)
	for i := range ids {
		ids[i] = seededID(r.seed, fmt.Sprintf("id%d", i))
	}
	var last *udpPair
	failed := false
	for i := 0; i < setupPairs; i++ {
		r.attempted++
		sp := tr.begin("setup/hipudp.Stack.Establish", -1)
		start := time.Now()
		pair, err := newPair(ids[(2*i)%setupIDs], ids[(2*i+1)%setupIDs])
		if err == nil {
			if err = pair.a.Establish(pair.idB.HIT(), ioTimeout); err != nil {
				pair.close()
			}
		}
		took := time.Since(start)
		tr.end(sp)
		if err != nil {
			r.fail(1, "set-up %d: %v", i, err)
			failed = true
			continue
		}
		p.setup = append(p.setup, took.Seconds())
		if last != nil {
			last.close()
		}
		last = pair
	}
	p.detail["setup_s_each"] = p.setup
	if failed && last != nil {
		last.close()
		return nil
	}
	return last
}

// verifier checks a received byte stream against the repeating pattern.
type verifier struct {
	pattern []byte
	pos     int
}

func (v *verifier) check(b []byte) bool {
	ok := true
	for len(b) > 0 {
		off := v.pos % len(v.pattern)
		k := min(len(b), len(v.pattern)-off)
		ok = ok && bytes.Equal(b[:k], v.pattern[off:off+k])
		b, v.pos = b[k:], v.pos+k
	}
	return ok
}

// udpBulk streams verified 1 MiB transfers over one connection in 16 KiB
// writes. After each transfer the receiver answers one byte: 1 when
// every byte matched the seed's pattern. Its operation is one transfer,
// and each transfer is one rate sample.
func udpBulk(r *run, tr *tracer) *pass {
	p := newPass()
	pair := udpSetup(r, tr, p)
	if pair == nil {
		return p
	}
	// Closing the stacks ends every Read the sink goroutine blocks in, so
	// waiting for it after the close cannot hang.
	var wg sync.WaitGroup
	defer func() {
		pair.close()
		wg.Wait()
	}()

	pattern := make([]byte, patternLen)
	rand.New(rand.NewSource(r.seed)).Read(pattern)
	l, err := pair.b.Listen(bulkPort)
	if err != nil {
		r.fail(1, "bulk: listen: %v", err)
		return p
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		v := verifier{pattern: pattern}
		buf := make([]byte, 64<<10)
		for {
			ok := true
			for got := 0; got < bulkTransfer; {
				n, err := c.Read(buf[:min(len(buf), bulkTransfer-got)])
				if err != nil {
					return
				}
				ok = v.check(buf[:n]) && ok
				got += n
			}
			ack := []byte{0}
			if ok {
				ack[0] = 1
			}
			if _, err := c.Write(ack); err != nil {
				return
			}
		}
	}()

	c, err := pair.a.Dial(pair.idB.HIT(), bulkPort, ioTimeout)
	if err != nil {
		r.attempted++
		r.fail(1, "bulk: dial: %v", err)
		return p
	}
	defer c.Close()

	phase := tr.begin("bulk", -1)
	st0, m := pair.stats(), startMeter()
	var sent int
	var done int64
	ack := make([]byte, 1)
	deadline := m.wall.Add(r.seconds)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		r.attempted++
		t0 := time.Now()
		var err error
		for off := 0; off < bulkTransfer && err == nil; off += bulkWrite {
			at := (sent + off) % patternLen
			sp := tr.begin("hipudp.Conn.Write", phase)
			_, err = c.Write(pattern[at : at+bulkWrite])
			tr.end(sp)
		}
		if err == nil {
			sp := tr.begin("hipudp.Conn.Read", phase)
			_, err = io.ReadFull(c, ack)
			tr.end(sp)
		}
		if err != nil {
			r.fail(1, "bulk transfer %d: %v", n, err)
			break
		}
		sent += bulkTransfer
		if ack[0] != 1 {
			r.fail(1, "bulk transfer %d: received bytes differ from the pattern", n)
			continue
		}
		p.sample(1, time.Since(t0))
		done++
	}
	elapsed := m.stop(p, done)
	st := plus(pair.stats(), st0, -1)
	blocked := tr.total("hipudp.Conn.Write", phase)
	tr.end(phase)

	socketDetail(p, st)
	p.detail["transfers"] = done
	p.detail["goodput_mbit_s"] = ratio(float64(done)*bulkTransfer*8/1e6, elapsed.Seconds())
	p.detail["wire_bytes_per_payload_byte"] = ratio(float64(st.TxBytes), float64(sent))
	if tr != nil {
		p.detail["write_blocked_pct"] = 100 * ratio(blocked.Seconds(), elapsed.Seconds())
	}
	return p
}

// udpRR runs a 64-byte ping-pong on one connection; every echo must
// equal its request. Its operation is one transaction; the transactions
// of each 100 ms window are one rate sample.
func udpRR(r *run, tr *tracer) *pass {
	p := newPass()
	pair := udpSetup(r, tr, p)
	if pair == nil {
		return p
	}
	// Closing the stacks ends every Read the echo goroutine blocks in.
	var wg sync.WaitGroup
	defer func() {
		pair.close()
		wg.Wait()
	}()

	l, err := pair.b.Listen(rrPort)
	if err != nil {
		r.fail(1, "rr: listen: %v", err)
		return p
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, rrSize)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()

	c, err := pair.a.Dial(pair.idB.HIT(), rrPort, ioTimeout)
	if err != nil {
		r.attempted++
		r.fail(1, "rr: dial: %v", err)
		return p
	}
	defer c.Close()

	phase := tr.begin("rr", -1)
	defer tr.end(phase)
	st0, m := pair.stats(), startMeter()
	req, resp := make([]byte, rrSize), make([]byte, rrSize)
	rng := rand.New(rand.NewSource(r.seed))
	var lat []float64
	var done, windowOps int64
	windowStart := m.wall
	deadline := m.wall.Add(r.seconds)
	for i := 0; (len(lat) < 1000 && i < 2000) || time.Now().Before(deadline); i++ {
		r.attempted++
		rng.Read(req)
		binary.BigEndian.PutUint64(req, uint64(i))
		sp := tr.begin("rr.transaction", phase)
		start := time.Now()
		_, err := c.Write(req)
		if err == nil {
			_, err = io.ReadFull(c, resp)
		}
		end := time.Now()
		tr.end(sp)
		if err != nil {
			r.fail(1, "rr transaction %d: %v", i, err)
			break
		}
		if !bytes.Equal(req, resp) {
			r.fail(1, "rr transaction %d: echo differs from request", i)
			continue
		}
		lat = append(lat, float64(end.Sub(start).Nanoseconds())/1e3)
		done++
		windowOps++
		if w := end.Sub(windowStart); w >= rrWindow {
			p.sample(windowOps, w)
			windowStart, windowOps = end, 0
		}
	}
	m.stop(p, done)
	socketDetail(p, plus(pair.stats(), st0, -1))
	p.detail["transactions"] = done
	p.detail["p50_us"] = percentile(lat, 50)
	p.detail["p90_us"] = percentile(lat, 90)
	p.detail["p99_us"] = percentile(lat, 99)
	return p
}
