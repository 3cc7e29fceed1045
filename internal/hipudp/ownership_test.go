package hipudp

import (
	"bytes"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Frame ownership: every outgoing frame is one pooled buffer that the tx
// engine releases exactly once — after the write, on a queue-overflow
// drop, or when the socket refuses it. A double release hands one array
// to two later packets at once, which corrupts sealed data or races under
// -race; these tests push byte-verified bulk data over two concurrent
// streams through each release path so such a bug shows up as a
// mismatch or a race report.

const ownershipPort = 20

var loopback = netip.MustParseAddr("127.0.0.1")

// streamData returns stream k's payload: total bytes, distinct per
// stream, so a frame that lands in the wrong stream is caught too.
func streamData(k, total int) []byte {
	b := make([]byte, total)
	for i := range b {
		b[i] = byte(i*7 + i>>9 + k*101)
	}
	return b
}

// runTwoStreams sends total bytes over each of two concurrent streams
// from a to b and verifies every byte on arrival. Each sender first
// writes its stream index, so the receiver knows which data to expect.
// It returns the verified byte count per stream once both receivers
// stop, at total bytes or on error. interrupt, when non-nil, runs once
// both receivers have verified a quarter of their data; it must make the
// streams end (e.g. by closing the stacks).
//
// Senders keep at most streamAhead unverified bytes outstanding, so the
// two streams together stay well inside a default socket receive
// buffer: kernel drops would only exercise the stream layer's loss
// recovery, which is slow for burst losses and not what these tests are
// about.
func runTwoStreams(t *testing.T, a, b *Stack, total int, interrupt func()) [2]int64 {
	t.Helper()
	const chunk, streamAhead = 8 << 10, 16 << 10
	l, err := b.Listen(ownershipPort)
	if err != nil {
		t.Fatal(err)
	}
	data := [2][]byte{streamData(0, total), streamData(1, total)}
	var verified [2]atomic.Int64
	stopped := make(chan struct{}) // closed when a receiver gives up
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() { // receiver
			defer wg.Done()
			off := 0
			defer func() {
				if off < total {
					stopOnce.Do(func() { close(stopped) })
				}
			}()
			c, err := l.Accept()
			if err != nil {
				return
			}
			var id [1]byte
			if _, err := io.ReadFull(c, id[:]); err != nil || id[0] > 1 {
				return
			}
			k, want := id[0], data[id[0]]
			buf := make([]byte, 32<<10)
			for off < total {
				n, err := c.Read(buf)
				if n > 0 {
					if !bytes.Equal(buf[:n], want[off:off+n]) {
						t.Errorf("stream %d: bytes %d..%d differ from the sent data", k, off, off+n)
						return
					}
					off += n
					verified[k].Store(int64(off))
				}
				if err != nil {
					return
				}
			}
		}()
		go func(k int) { // sender
			defer wg.Done()
			c, err := a.Dial(idB.HIT(), ownershipPort, 5*time.Second)
			if err != nil {
				t.Errorf("stream %d: dial: %v", k, err)
				return
			}
			defer c.Close()
			if _, err := c.Write([]byte{byte(k)}); err != nil {
				return
			}
			for off := 0; off < total; off += chunk {
				for verified[k].Load() < int64(off-streamAhead) {
					select {
					case <-stopped:
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
				if _, err := c.Write(data[k][off:min(off+chunk, total)]); err != nil {
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if interrupt != nil {
		deadline := time.Now().Add(30 * time.Second)
		for verified[0].Load() < int64(total/4) || verified[1].Load() < int64(total/4) {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		interrupt()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		a.Close()
		b.Close()
		<-done
		t.Fatalf("transfers stalled at %d and %d of %d bytes", verified[0].Load(), verified[1].Load(), total)
	}
	return [2]int64{verified[0].Load(), verified[1].Load()}
}

func requireComplete(t *testing.T, got [2]int64, total int) {
	t.Helper()
	for k, n := range got {
		if n != int64(total) {
			t.Fatalf("stream %d verified %d of %d bytes", k, n, total)
		}
	}
}

// TestFrameOwnershipShardedEngine covers the sender shards, which release
// a batch after its sendmmsg.
func TestFrameOwnershipShardedEngine(t *testing.T) {
	a, b := pair(t)
	const total = 256 << 10
	requireComplete(t, runTwoStreams(t, a, b, total, nil), total)
	if st := a.Stats(); st.TxErrors != 0 {
		t.Fatalf("TxErrors = %d on a healthy socket", st.TxErrors)
	}
}

// TestFrameOwnershipQueueOverflow floods one sender shard with junk
// control frames until its queue overflows, while the two streams run
// through the other shard: overflowing frames are released at enqueue,
// and a double release would hand one array to two stream packets.
// (Overflowing the streams' own shard would test the stream layer's
// slow multi-loss recovery rather than frame ownership.)
func TestFrameOwnershipQueueOverflow(t *testing.T) {
	a, b := pair(t)
	streamShard := a.sender.shardFor(netip.AddrPortFrom(loopback, uint16(b.LocalAddr().Port)))
	junk := netip.AddrPortFrom(loopback, 9)
	for port := uint16(10); a.sender.shardFor(junk) == streamShard; port++ {
		junk = netip.AddrPortFrom(loopback, port)
	}
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		msg := make([]byte, 64)
		for i := 0; ; i++ {
			if i%256 == 0 && a.Stats().TxDrops > 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
			a.writeControl(junk, msg)
		}
	}()
	const total = 256 << 10
	got := runTwoStreams(t, a, b, total, nil)
	close(stop)
	<-flooded
	requireComplete(t, got, total)
	if st := a.Stats(); st.TxDrops == 0 {
		t.Fatal("no queue-overflow drops: the test did not exercise the drop path")
	}
}

// TestFrameOwnershipClosedSocket breaks the sender's socket mid-transfer:
// frames the socket refuses are released by the shards, and frames
// queued after the stack closes are released at enqueue. What arrived
// before the break must still be byte-exact.
func TestFrameOwnershipClosedSocket(t *testing.T) {
	a, b := pair(t)
	const total = 1 << 20
	got := runTwoStreams(t, a, b, total, func() {
		a.pc.Close()
		deadline := time.Now().Add(10 * time.Second)
		for a.Stats().TxErrors == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		a.Close()
		b.Close()
	})
	if a.Stats().TxErrors == 0 {
		t.Fatal("no socket errors after the socket closed: the test did not exercise the error path")
	}
	for k, n := range got {
		if n < total/4 {
			t.Fatalf("stream %d verified only %d bytes before the break", k, n)
		}
	}
}
