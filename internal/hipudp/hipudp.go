// Package hipudp runs the HIP stack over real UDP sockets: the same
// sans-io protocol cores (hipcloud/internal/hip, /esp, /stream) that power
// the simulator drive actual network I/O here, so the base exchange, the
// BEET-ESP data plane and reliable streams work between OS processes —
// e.g. on localhost, or between the paper's "power user" workstation and
// a cloud VM.
//
// Framing: one UDP socket carries both planes, distinguished by a leading
// byte (0 = HIP control packet, 1 = ESP). Inside ESP, payloads use the
// same inner-type byte + port-pair mux as the simulator fabric.
//
// Buffers follow the simulator's ownership contract (netsim.GetBuf /
// PutBuf): every outgoing frame is one pooled buffer, sealed in place
// after its type byte and released by the sender once it is written to
// the socket (or dropped). Inbound ESP is opened straight out of the
// receive arena into per-stack scratch, which the stream core copies
// from; only HIP control packets are copied out of the arena, because
// the control plane may retain them.
package hipudp

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hip"
	"hipcloud/internal/netsim"
	"hipcloud/internal/stream"
)

// Frame type bytes.
const (
	frameHIP byte = 0
	frameESP byte = 1
)

// Inner ESP payload types (must match across implementations).
const (
	innerStream byte = 1
)

// muxHeader is the inner ESP header in front of each stream segment: the
// inner type byte, then the sender's and receiver's ports.
const muxHeader = 5

// Errors returned by the stack.
var (
	ErrClosed      = errors.New("hipudp: stack closed")
	ErrTimeout     = errors.New("hipudp: timed out")
	ErrUnknownPeer = errors.New("hipudp: unknown peer HIT")
	ErrRefused     = errors.New("hipudp: connection refused")
	ErrPortInUse   = errors.New("hipudp: port already bound")
)

// Options is kept for source compatibility; the stack has no tunable
// I/O settings.
//
// Deprecated: use NewStack.
type Options struct{}

// DefaultOptions returns the zero Options.
//
// Deprecated: use NewStack.
func DefaultOptions() Options { return Options{} }

// Stack is a HIP endpoint over one UDP socket.
type Stack struct {
	mu    sync.Mutex
	host  *hip.Host
	pc    *net.UDPConn
	rc    syscall.RawConn
	epoch time.Time

	// peers maps HITs to UDP endpoints (the static hosts-file role).
	peers map[netip.Addr]netip.AddrPort
	// hitToEP maps peer HITs to their last-observed UDP endpoints: HIP
	// locators carry no port, so several peers may share one IP (e.g.
	// localhost demos) and only the HIT disambiguates them.
	hitToEP map[netip.Addr]netip.AddrPort
	// locToEP maps peer locators back to UDP endpoints as a last resort.
	locToEP map[netip.Addr]netip.AddrPort

	estab map[netip.Addr][]chan error

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	rng       *rand.Rand

	closed bool
	done   chan struct{}

	// Data-path scratch, guarded by mu: the segments one pump drains and
	// the plaintext one inbound ESP packet opens into. Both are reused for
	// every packet; the stream core copies what it keeps.
	segs   []stream.Segment
	rxOpen []byte

	// Socket counters and the async sender.
	stats   ioStats
	txErrMu sync.Mutex
	txErr   error
	sender  *sender
}

type connKey struct {
	peer       netip.Addr // HIT
	localPort  uint16
	remotePort uint16
}

// cryptoSeed draws the per-stack RNG seed from crypto/rand. This RNG
// feeds puzzle nonces and ISNs on a real network path, so a predictable
// seed (the old time.Now().UnixNano()) would let an observer who knows
// the rough start time reconstruct the stream and pre-solve puzzles.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("hipudp: crypto/rand unavailable: " + err.Error())
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// NewStackOpts is NewStack.
//
// Deprecated: use NewStack.
func NewStackOpts(host *hip.Host, listen string, _ Options) (*Stack, error) {
	return NewStack(host, listen)
}

// NewStack binds a UDP socket at listen (e.g. "127.0.0.1:10500") for the
// given HIP host, with batched socket I/O. The host's configured locator
// should match the bound address.
func NewStack(host *hip.Host, listen string) (*Stack, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	s := &Stack{
		host:      host,
		pc:        pc,
		epoch:     time.Now(),
		peers:     make(map[netip.Addr]netip.AddrPort),
		hitToEP:   make(map[netip.Addr]netip.AddrPort),
		locToEP:   make(map[netip.Addr]netip.AddrPort),
		estab:     make(map[netip.Addr][]chan error),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  41000,
		rng:       rand.New(rand.NewSource(cryptoSeed())),
		done:      make(chan struct{}),
	}
	// RawConn enables the sendmmsg/recvmmsg fast path; on failure the
	// engines fall back to one syscall per packet.
	if rc, rcErr := pc.SyscallConn(); rcErr == nil {
		s.rc = rc
	}
	s.sender = newSender(s)
	go s.readLoop()
	go s.timerLoop()
	return s, nil
}

// LocalAddr returns the bound UDP address.
func (s *Stack) LocalAddr() *net.UDPAddr { return s.pc.LocalAddr().(*net.UDPAddr) }

// Host returns the underlying HIP host. The host is guarded by the
// stack's internal lock; prefer AssociationState for concurrent reads.
func (s *Stack) Host() *hip.Host { return s.host }

// AssociationState safely reads the association state with peerHIT.
func (s *Stack) AssociationState(peerHIT netip.Addr) (hip.State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.host.Association(peerHIT)
	if !ok {
		return 0, false
	}
	return a.State(), true
}

// now returns the stack's monotonic time as a duration from its epoch
// (what the sans-io cores expect).
func (s *Stack) now() time.Duration { return time.Since(s.epoch) }

// AddPeer registers a peer HIT at a UDP endpoint.
func (s *Stack) AddPeer(hit netip.Addr, ep netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers[hit] = ep
	s.locToEP[ep.Addr()] = ep
}

// Close shuts the stack down.
func (s *Stack) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	for _, c := range s.conns {
		c.inner.Abort()
		c.cond.Broadcast()
	}
	for _, l := range s.listeners {
		l.closed = true
		l.cond.Broadcast()
	}
	s.mu.Unlock()
	// Drain the async sender before tearing the socket down so already
	// queued frames still reach the wire.
	s.sender.close()
	return s.pc.Close()
}

// readLoop drains inbound datagrams in recvmmsg-sized vectors and
// dispatches them. ESP frames are opened in place from the reusable
// receive arena; HIP control packets are copied out of it, since the
// control plane may hold on to them.
func (s *Stack) readLoop() {
	eng := newRxEngine()
	bufs := make([][]byte, rxBatchMax)
	for i := range bufs {
		bufs[i] = make([]byte, 64*1024)
	}
	sizes := make([]int, rxBatchMax)
	eps := make([]netip.AddrPort, rxBatchMax)
	for {
		cnt, nsys, err := eng.read(s.pc, s.rc, bufs, sizes, eps)
		s.stats.rxSyscalls.Add(uint64(nsys))
		if cnt > 0 {
			s.stats.rxBatches.Add(1)
		}
		for i := 0; i < cnt; i++ {
			n := sizes[i]
			s.stats.rxPackets.Add(1)
			s.stats.rxBytes.Add(uint64(n))
			if n < 1 {
				continue
			}
			buf := bufs[i]
			switch buf[0] {
			case frameHIP:
				s.onControl(append([]byte(nil), buf[1:n]...), eps[i])
			case frameESP:
				s.onData(buf[1:n])
			}
		}
		if err != nil {
			// Stop only on shutdown; transient socket errors (e.g. an ICMP
			// port-unreachable surfacing on the UDP socket) must not kill
			// the read loop.
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
		}
	}
}

func (s *Stack) onControl(data []byte, from netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locToEP[from.Addr()] = from
	// Remember the sender HIT's endpoint (header bytes 8..24).
	if len(data) >= 40 {
		var h [16]byte
		copy(h[:], data[8:24])
		s.hitToEP[netip.AddrFrom16(h)] = from
	}
	s.host.OnPacket(data, from.Addr(), s.now())
	s.host.TakeCost() // real CPU already paid
	s.flushLocked()
}

// onData opens one inbound ESP packet, which aliases the receive arena
// and is dead once this returns, into the stack's reusable plaintext
// scratch and feeds the segment to its conn.
func (s *Stack) onData(pkt []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, peerHIT, err := s.host.OpenDataAppend(s.rxOpen[:0], pkt, false)
	s.host.TakeCost()
	if err != nil {
		return
	}
	s.rxOpen = payload[:0] // keep the grown capacity for the next packet
	if len(payload) < muxHeader || payload[0] != innerStream {
		return
	}
	remotePort := binary.BigEndian.Uint16(payload[1:])
	localPort := binary.BigEndian.Uint16(payload[3:])
	seg, err := stream.ParseSegment(payload[muxHeader:])
	if err != nil {
		return
	}
	key := connKey{peer: peerHIT, localPort: localPort, remotePort: remotePort}
	c, ok := s.conns[key]
	if !ok {
		if seg.Flags&stream.FlagSYN == 0 || seg.Flags&stream.FlagACK != 0 {
			return
		}
		l, ok := s.listeners[localPort]
		if !ok || len(l.backlog) >= 64 {
			return
		}
		c = s.newConnLocked(key)
		l.backlog = append(l.backlog, c)
		l.cond.Broadcast()
	}
	c.inner.OnSegment(seg, s.now())
	s.pumpLocked(c)
	c.cond.Broadcast()
}

// flushLocked sends pending control packets and resolves establishment
// waiters. Callers hold s.mu.
func (s *Stack) flushLocked() {
	for _, op := range s.host.Outgoing() {
		s.writeControl(s.controlEndpoint(op), op.Data)
	}
	for _, ev := range s.host.Events() {
		var res error
		switch ev.Kind {
		case hip.EventEstablished:
			res = nil
		case hip.EventFailed:
			res = ErrRefused
		default:
			continue
		}
		for _, ch := range s.estab[ev.PeerHIT] {
			ch <- res
		}
		delete(s.estab, ev.PeerHIT)
	}
}

// controlEndpoint resolves a control packet's destination: by the
// receiver HIT in the packet header first (several peers may share one
// IP), then by registered peers, then by locator.
func (s *Stack) controlEndpoint(op hip.OutPacket) netip.AddrPort {
	if len(op.Data) >= 40 {
		var h [16]byte
		copy(h[:], op.Data[24:40])
		hit := netip.AddrFrom16(h)
		if ep, ok := s.hitToEP[hit]; ok && ep.Addr() == op.Dst {
			return ep
		}
		if ep, ok := s.peers[hit]; ok && ep.Addr() == op.Dst {
			return ep
		}
	}
	if ep, ok := s.locToEP[op.Dst]; ok {
		return ep
	}
	return netip.AddrPortFrom(op.Dst, uint16(s.LocalAddr().Port))
}

// writeControl frames a HIP control packet into a pooled buffer and
// sends it.
func (s *Stack) writeControl(ep netip.AddrPort, data []byte) {
	frame := netsim.GetBuf(1 + len(data))
	frame[0] = frameHIP
	copy(frame[1:], data)
	s.sender.enqueue(s, txPacket{buf: frame, ep: ep})
}

// timerLoop drives HIP retransmissions and stream RTOs.
func (s *Stack) timerLoop() {
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		now := s.now()
		if dl := s.host.NextDeadline(); dl != 0 && now >= dl {
			s.host.OnTimer(now)
			s.host.TakeCost()
			s.flushLocked()
		}
		s.host.Maintain(now)
		s.host.TakeCost()
		s.flushLocked()
		for _, c := range s.conns {
			if c.deadline != 0 && now >= c.deadline {
				c.inner.OnTimer(now)
				s.pumpLocked(c)
				c.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// Establish runs (or reuses) the base exchange with peerHIT.
func (s *Stack) Establish(peerHIT netip.Addr, timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if a, ok := s.host.Association(peerHIT); ok && a.State() == hip.Established {
		s.mu.Unlock()
		return nil
	}
	ep, ok := s.peers[peerHIT]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownPeer
	}
	ch := make(chan error, 1)
	s.estab[peerHIT] = append(s.estab[peerHIT], ch)
	s.host.Connect(peerHIT, ep.Addr(), s.now())
	s.host.TakeCost()
	s.flushLocked()
	s.mu.Unlock()
	select {
	case err := <-ch:
		return err
	case <-time.After(timeout):
		return ErrTimeout
	case <-s.done:
		return ErrClosed
	}
}

func (s *Stack) newConnLocked(key connKey) *Conn {
	c := &Conn{
		stack: s,
		key:   key,
		inner: stream.New(stream.Config{Pool: netsim.BufPool{}}, s.rng.Uint32()),
	}
	c.cond = sync.NewCond(&s.mu)
	s.conns[key] = c
	return c
}

// pumpLocked flushes a conn's outgoing segments through ESP. Callers hold
// s.mu. Each segment is marshaled behind the mux header into a pooled
// plaintext buffer and sealed straight into a pooled frame after its
// type byte; the frame then belongs to the sender. A conn whose
// stream has finished (closed or reset) leaves the conn table here; its
// holder can still drain what it buffered.
func (s *Stack) pumpLocked(c *Conn) {
	segs, deadline := c.inner.PollAppend(s.segs[:0], s.now())
	c.deadline = deadline
	for i, seg := range segs {
		plain := netsim.GetBuf(muxHeader + stream.HeaderSize + len(seg.Payload))
		mux := (*[muxHeader]byte)(plain)
		mux[0] = innerStream
		binary.BigEndian.PutUint16(mux[1:], c.key.localPort)
		binary.BigEndian.PutUint16(mux[3:], c.key.remotePort)
		seg.MarshalInto(plain[muxHeader:])
		// The payload came from the stream core's pool (Config.Pool); it
		// is dead once marshaled.
		netsim.PutBuf(seg.Payload)
		frame := netsim.GetBuf(1 + len(plain) + esp.MaxOverhead)
		frame[0] = frameESP
		pkt, dst, err := s.host.SealDataAppend(frame[:1], c.key.peer, plain, false)
		s.host.TakeCost()
		netsim.PutBuf(plain)
		if err != nil {
			netsim.PutBuf(frame)
			for _, rest := range segs[i+1:] {
				netsim.PutBuf(rest.Payload)
			}
			c.inner.Abort()
			break
		}
		ep, ok := s.espEndpoint(c.key.peer, dst)
		if !ok {
			netsim.PutBuf(pkt)
			continue
		}
		// pkt is frame grown in place: the type byte plus the ESP packet.
		s.sender.enqueue(s, txPacket{buf: pkt, ep: ep})
	}
	clear(segs) // drop payload references
	s.segs = segs[:0]
	if st := c.inner.State(); (st == stream.StateClosed || st == stream.StateReset) && s.conns[c.key] == c {
		delete(s.conns, c.key)
	}
}

// espEndpoint resolves where an ESP packet to peer's locator dst goes:
// by peer HIT first (shared-IP safety), then by registered peers, then
// by locator.
func (s *Stack) espEndpoint(peer, dst netip.Addr) (netip.AddrPort, bool) {
	if ep, ok := s.hitToEP[peer]; ok && ep.Addr() == dst {
		return ep, true
	}
	if ep, ok := s.peers[peer]; ok && ep.Addr() == dst {
		return ep, true
	}
	ep, ok := s.locToEP[dst]
	return ep, ok
}

// Dial opens a reliable stream to peerHIT:port over ESP.
func (s *Stack) Dial(peerHIT netip.Addr, port uint16, timeout time.Duration) (*Conn, error) {
	if err := s.Establish(peerHIT, timeout); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextPort++
	key := connKey{peer: peerHIT, localPort: s.nextPort, remotePort: port}
	c := s.newConnLocked(key)
	c.inner.Open(s.now())
	s.pumpLocked(c)
	deadline := time.Now().Add(timeout)
	for !c.inner.Established() && c.inner.State() != stream.StateReset {
		if time.Now().After(deadline) {
			delete(s.conns, key)
			s.mu.Unlock()
			return nil, ErrTimeout
		}
		c.waitLocked(100 * time.Millisecond)
	}
	if c.inner.State() == stream.StateReset {
		s.mu.Unlock()
		return nil, ErrRefused
	}
	s.mu.Unlock()
	return c, nil
}

// Listener accepts inbound streams.
type Listener struct {
	stack   *Stack
	port    uint16
	backlog []*Conn
	cond    *sync.Cond
	closed  bool
}

// Listen binds a stream listener on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.listeners[port]; used {
		return nil, ErrPortInUse
	}
	l := &Listener{stack: s, port: port}
	l.cond = sync.NewCond(&s.mu)
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept() (*Conn, error) {
	l.stack.mu.Lock()
	defer l.stack.mu.Unlock()
	for len(l.backlog) == 0 {
		if l.closed || l.stack.closed {
			return nil, ErrClosed
		}
		l.cond.Wait()
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close stops the listener.
func (l *Listener) Close() {
	l.stack.mu.Lock()
	defer l.stack.mu.Unlock()
	l.closed = true
	delete(l.stack.listeners, l.port)
	l.cond.Broadcast()
}

// Conn is a reliable stream inside the ESP tunnel. It implements
// io.ReadWriteCloser.
type Conn struct {
	stack    *Stack
	key      connKey
	inner    *stream.Conn
	cond     *sync.Cond
	deadline time.Duration
}

// PeerHIT returns the remote host identity tag.
func (c *Conn) PeerHIT() netip.Addr { return c.key.peer }

// waitLocked waits on the conn's condition with a wake-up bound so
// timer-driven progress is observed.
func (c *Conn) waitLocked(max time.Duration) {
	t := time.AfterFunc(max, func() { c.cond.Broadcast() })
	c.cond.Wait()
	t.Stop()
}

// Read blocks until data, EOF or reset.
func (c *Conn) Read(b []byte) (int, error) {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	for {
		n, err := c.inner.Read(b)
		if n > 0 {
			if c.inner.MaybeWindowUpdate() {
				c.stack.pumpLocked(c)
			}
			return n, nil
		}
		switch err {
		case stream.ErrEOF:
			return 0, ErrClosed
		case stream.ErrReset:
			return 0, ErrRefused
		}
		if c.stack.closed {
			return 0, ErrClosed
		}
		c.waitLocked(200 * time.Millisecond)
	}
}

// Write blocks until all of b is buffered.
func (c *Conn) Write(b []byte) (int, error) {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	total := 0
	for len(b) > 0 {
		n, err := c.inner.Write(b)
		if err != nil {
			return total, ErrClosed
		}
		if n > 0 {
			total += n
			b = b[n:]
			c.stack.pumpLocked(c)
		} else {
			if c.stack.closed {
				return total, ErrClosed
			}
			c.waitLocked(200 * time.Millisecond)
		}
	}
	return total, nil
}

// Close starts an orderly shutdown.
func (c *Conn) Close() error {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	c.inner.Close()
	c.stack.pumpLocked(c)
	return nil
}
