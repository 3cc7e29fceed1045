package hipudp

import (
	"fmt"
	"hash/maphash"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/identity"
)

// pairOpts is pair with explicit I/O options on both stacks.
func pairOpts(t *testing.T, opts Options) (*Stack, *Stack) {
	t.Helper()
	mk := func(id *identity.HostIdentity) *Stack {
		h, err := hip.NewHost(hip.Config{Identity: id, Locator: netip.MustParseAddr("127.0.0.1")})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStackOpts(h, "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(idA), mk(idB)
	t.Cleanup(func() { a.Close(); b.Close() })
	epA := netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", a.LocalAddr().Port))
	epB := netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", b.LocalAddr().Port))
	a.AddPeer(idB.HIT(), epB)
	b.AddPeer(idA.HIT(), epA)
	return a, b
}

// echoBytes pushes total bytes through one stream and reads the echo.
func echoBytes(t *testing.T, a, b *Stack, total int) {
	t.Helper()
	l, err := b.Listen(9)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	c, err := a.Dial(idB.HIT(), 9, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := make([]byte, 1400)
	got := make([]byte, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < total; {
			rn, err := c.Read(got)
			if err != nil {
				t.Errorf("echo read after %d/%d bytes: %v", n, total, err)
				return
			}
			n += rn
		}
	}()
	for n := 0; n < total; n += len(msg) {
		if _, err := c.Write(msg); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("echo stalled")
	}
}

// TestSyncWriteErrorSurfaces is the regression test for the old
// frame writer silently discarding WriteToUDPAddrPort's error and byte
// count: with the synchronous engine, a write on a closed socket must
// bump TxErrors and surface through TxErr.
func TestSyncWriteErrorSurfaces(t *testing.T) {
	h, err := hip.NewHost(hip.Config{Identity: idA, Locator: netip.MustParseAddr("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStackOpts(h, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.sender != nil {
		t.Fatal("Options{} must not start the async sender")
	}
	ep := netip.MustParseAddrPort("127.0.0.1:9")
	s.writeControl(ep, []byte("ok"))
	if st := s.Stats(); st.TxErrors != 0 || st.TxPackets != 1 {
		t.Fatalf("healthy write: TxErrors=%d TxPackets=%d, want 0/1", st.TxErrors, st.TxPackets)
	}
	s.pc.Close() // break the socket under the stack
	s.writeControl(ep, []byte("lost"))
	st := s.Stats()
	if st.TxErrors != 1 {
		t.Fatalf("TxErrors = %d after write on closed socket, want 1", st.TxErrors)
	}
	if st.TxPackets != 1 {
		t.Fatalf("TxPackets = %d, failed frame must not be counted as sent", st.TxPackets)
	}
	if s.TxErr() == nil {
		t.Fatal("TxErr() = nil, want the retained write error")
	}
	s.Close()
}

// TestBatchedWriteErrorSurfaces verifies the async sender path also
// counts socket failures instead of swallowing them.
func TestBatchedWriteErrorSurfaces(t *testing.T) {
	h, err := hip.NewHost(hip.Config{Identity: idA, Locator: netip.MustParseAddr("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStackOpts(h, "127.0.0.1:0", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.pc.Close() // break the socket under the stack
	ep := netip.MustParseAddrPort("127.0.0.1:9")
	for i := 0; i < 4; i++ {
		s.writeControl(ep, []byte("lost"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().TxErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("TxErrors never incremented for writes on a closed socket")
		}
		time.Sleep(time.Millisecond)
	}
	if s.TxErr() == nil {
		t.Fatal("TxErr() = nil, want the retained write error")
	}
	s.Close()
}

// TestBatchingReducesSyscalls drives enough localhost traffic through
// the batched engine that sendmmsg/recvmmsg must coalesce: strictly
// fewer syscalls than packets on both sides of the socket.
func TestBatchingReducesSyscalls(t *testing.T) {
	if !batchIO {
		t.Skip("vectored I/O not compiled in on this platform")
	}
	a, b := pairOpts(t, DefaultOptions())
	echoBytes(t, a, b, 512*1024)
	for _, tc := range []struct {
		name string
		st   Stats
	}{{"dialer", a.Stats()}, {"listener", b.Stats()}} {
		if tc.st.TxPackets == 0 || tc.st.RxPackets == 0 {
			t.Fatalf("%s: no traffic counted: %+v", tc.name, tc.st)
		}
		if tc.st.TxSyscalls >= tc.st.TxPackets {
			t.Errorf("%s: TxSyscalls=%d >= TxPackets=%d — sendmmsg batching ineffective",
				tc.name, tc.st.TxSyscalls, tc.st.TxPackets)
		}
		if tc.st.RxSyscalls >= tc.st.RxPackets {
			t.Errorf("%s: RxSyscalls=%d >= RxPackets=%d — recvmmsg batching ineffective",
				tc.name, tc.st.RxSyscalls, tc.st.RxPackets)
		}
		if tc.st.TxErrors != 0 {
			t.Errorf("%s: TxErrors=%d during healthy echo", tc.name, tc.st.TxErrors)
		}
	}
}

// TestSyncEngineStillWorks runs the echo over the fully synchronous
// engine (the pre-batching behavior) to keep that path honest.
func TestSyncEngineStillWorks(t *testing.T) {
	a, b := pairOpts(t, Options{})
	echoBytes(t, a, b, 64*1024)
	st := a.Stats()
	if st.TxSyscalls != st.TxBatches || st.TxPackets != st.TxSyscalls {
		t.Errorf("sync engine must be one syscall per packet: %+v", st)
	}
	if st.TxErrors != 0 {
		t.Errorf("TxErrors=%d during healthy echo", st.TxErrors)
	}
}

// TestShardOrderingSingleAssociation checks the sharding invariant the
// sender relies on: every frame of one association hashes to one shard.
func TestShardOrderingSingleAssociation(t *testing.T) {
	sd := &sender{shards: make([]*senderShard, 4), seed: maphash.MakeSeed()}
	ep := netip.MustParseAddrPort("10.0.0.1:4500")
	first := sd.shardFor(ep)
	for i := 0; i < 100; i++ {
		if sd.shardFor(ep) != first {
			t.Fatal("same endpoint hashed to different shards")
		}
	}
	if runtime.GOOS == "linux" && !batchIO && runtime.GOARCH == "amd64" {
		t.Fatal("amd64 linux must compile the vectored engine")
	}
}
