package stream

import (
	"bytes"
	"testing"

	"hipcloud/internal/netsim"
)

// countingPool wraps the netsim pool and records the largest buffer the
// conn asked for and the largest capacity it handed back.
type countingPool struct {
	netsim.BufPool
	maxGet, maxPut int
}

func (p *countingPool) Get(n int) []byte {
	p.maxGet = max(p.maxGet, n)
	return p.BufPool.Get(n)
}

func (p *countingPool) Put(b []byte) {
	p.maxPut = max(p.maxPut, cap(b))
	p.BufPool.Put(b)
}

// directPair returns two conns with cfg, handshaken by feeding each
// conn's Poll output straight into the other at time zero.
func directPair(t testing.TB, cfg Config) (a, b *Conn) {
	t.Helper()
	a, b = New(cfg, 1000), New(cfg, 5000)
	a.Open(0)
	for i := 0; i < 4 && !(a.Established() && b.Established()); i++ {
		exchange(a, b)
	}
	if !a.Established() || !b.Established() {
		t.Fatal("handshake did not complete")
	}
	return a, b
}

// exchange delivers a's pending output to b and then b's to a, returning
// pooled payloads once delivered, as a driver does after marshaling.
func exchange(a, b *Conn) {
	for _, pair := range [2][2]*Conn{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		segs, _ := from.Poll(0)
		for _, s := range segs {
			to.OnSegment(s, 0)
			if from.cfg.Pool != nil {
				from.cfg.Pool.Put(s.Payload)
			}
		}
	}
}

// TestPooledConnBuffers pins the two rules that keep pooled stream
// buffers from raising resident memory: a drained conn holds no buffer,
// and arrays above maxPooledBuf never pass through the pool (the pool's
// largest class would keep them alive). It also checks that a warmed
// pooled Write/Poll/OnSegment/Read cycle allocates nothing.
func TestPooledConnBuffers(t *testing.T) {
	pool := &countingPool{}
	a, b := directPair(t, Config{Pool: pool})

	msg := bytes.Repeat([]byte{0x5a}, 1000)
	buf := make([]byte, 4096)
	segs := make([]Segment, 0, 16)
	cycle := func() {
		if n, err := a.Write(msg); n != len(msg) || err != nil {
			t.Fatalf("write: %d %v", n, err)
		}
		segs, _ = a.PollAppend(segs[:0], 0)
		for _, s := range segs {
			b.OnSegment(s, 0)
			pool.Put(s.Payload)
		}
		segs, _ = b.PollAppend(segs[:0], 0)
		for _, s := range segs {
			a.OnSegment(s, 0)
			pool.Put(s.Payload)
		}
		if n, _ := b.Read(buf); n != len(msg) {
			t.Fatalf("read %d bytes, want %d", n, len(msg))
		}
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the pool and the output queues
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("pooled Write/Poll/OnSegment/Read cycle allocates %v times, want 0", allocs)
	}
	if a.sndBuf.arr != nil || b.rcvBuf.arr != nil {
		t.Fatalf("drained conns retain buffers: send cap %d, receive cap %d",
			cap(a.sndBuf.arr), cap(b.rcvBuf.arr))
	}

	// Grow both queues past maxPooledBuf (the reader lags), then drain.
	big := make([]byte, DefaultSendBuf)
	n, _ := a.Write(big)
	if n != len(big) {
		t.Fatalf("bulk write accepted %d of %d", n, len(big))
	}
	var sndPeak, rcvPeak int
	for i := 0; i < 2000 && (a.Unacked() > 0 || b.Buffered() > 0); i++ {
		exchange(a, b)
		sndPeak = max(sndPeak, cap(a.sndBuf.arr))
		rcvPeak = max(rcvPeak, cap(b.rcvBuf.arr))
		if i%4 == 3 { // the reader lags, so the receive queue fills up
			for b.Buffered() > 0 {
				b.Read(buf)
			}
			if b.MaybeWindowUpdate() {
				exchange(a, b)
			}
		}
	}
	if sndPeak <= maxPooledBuf || rcvPeak <= maxPooledBuf {
		t.Fatalf("queues never outgrew the pool: send peak %d, receive peak %d", sndPeak, rcvPeak)
	}
	if a.Unacked() != 0 || b.Buffered() != 0 {
		t.Fatalf("bulk transfer did not drain: unacked %d, buffered %d", a.Unacked(), b.Buffered())
	}
	if a.sndBuf.arr != nil || b.rcvBuf.arr != nil {
		t.Fatal("drained conns retain buffers after a bulk transfer")
	}
	if pool.maxGet > maxPooledBuf || pool.maxPut > maxPooledBuf {
		t.Fatalf("pool saw buffers above %d bytes: largest Get %d, largest Put cap %d",
			maxPooledBuf, pool.maxGet, pool.maxPut)
	}
}

// TestOnSegmentDoesNotRetainPayload checks that the receive path copies
// what it keeps: drivers parse segments straight out of reused receive
// buffers, so scribbling on a payload after OnSegment must not change
// the bytes Read later returns.
func TestOnSegmentDoesNotRetainPayload(t *testing.T) {
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	// Each case lists [start, end) ranges of data delivered in order.
	cases := []struct {
		name   string
		ranges [][2]int
	}{
		{"in-order", [][2]int{{0, 1000}, {1000, 2000}, {2000, 3000}}},
		{"out-of-order", [][2]int{{2000, 3000}, {1000, 2000}, {0, 1000}}},
		{"overlapping", [][2]int{{0, 1200}, {800, 2400}, {1500, 3000}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, pool := range []BufferPool{nil, netsim.BufPool{}} {
				a, b := directPair(t, Config{Pool: pool})
				base := a.sndNxt
				for _, r := range tc.ranges {
					wire := append([]byte(nil), data[r[0]:r[1]]...)
					b.OnSegment(Segment{Flags: FlagACK, Seq: base + uint32(r[0]), Ack: b.sndNxt,
						Window: DefaultWindow, Payload: wire}, 0)
					for i := range wire {
						wire[i] = 0xEE
					}
				}
				got := make([]byte, len(data)+1)
				n, _ := b.Read(got)
				if !bytes.Equal(got[:n], data) {
					t.Fatalf("pool %T: read %d bytes, want %d matching the sent data", pool, n, len(data))
				}
			}
		})
	}
}

// FuzzSegment parses fuzzer bytes as a run of length-prefixed segments
// and feeds each to a live conn, as the real-UDP driver does from its
// receive arena. Payload bytes are rewritten to a function of their
// stream offset, so every byte Read returns must match its position: the
// conn may drop or delay data but never reorder, duplicate or invent it.
// The input is scribbled after every OnSegment, like a reused arena.
func FuzzSegment(f *testing.F) {
	hdr := func(flags uint8, seq uint32, n int) []byte {
		b := make([]byte, 1+HeaderSize+n)
		b[0] = byte(HeaderSize + n)
		Segment{Flags: flags, Seq: seq, Window: DefaultWindow, Payload: make([]byte, n)}.MarshalInto(b[1:])
		return b
	}
	f.Add(hdr(FlagACK, 0, 10))
	f.Add(append(hdr(FlagACK, 20, 30), hdr(FlagACK, 0, 20)...))
	f.Add(append(hdr(FlagACK, 0, 40), hdr(FlagACK|FlagFIN, 10, 50)...))
	f.Add(append(hdr(FlagACK, 5, 5), hdr(FlagRST, 0, 0)...))
	f.Add([]byte{3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b := directPair(t, Config{MSS: 200, Window: 1024})
		base := a.sndNxt // stream offset 0 on b's receive side
		at := func(off uint32) byte { return byte(off*31 + off>>5) }
		var readOff uint32
		buf := make([]byte, 512)
		for len(in) > 0 {
			l := min(int(in[0]), len(in)-1)
			rec := in[1 : 1+l]
			in = in[1+l:]
			seg, err := ParseSegment(rec)
			if err != nil {
				continue
			}
			// Keep sequence numbers near the window so reassembly runs.
			seg.Seq = base + seg.Seq%2048
			for i := range seg.Payload {
				seg.Payload[i] = at(seg.Seq - base + uint32(i))
			}
			b.OnSegment(seg, 0)
			for i := range rec {
				rec[i] = 0xEE
			}
			for {
				n, _ := b.Read(buf)
				if n == 0 {
					break
				}
				for i, c := range buf[:n] {
					if want := at(readOff + uint32(i)); c != want {
						t.Fatalf("byte at stream offset %d = %#x, want %#x", readOff+uint32(i), c, want)
					}
				}
				readOff += uint32(n)
			}
			b.Poll(0)
		}
	})
}
