package stream

// maxPooledBuf bounds the backing arrays a conn draws from its pool.
// Larger arrays come from make and return to the GC when drained: parked
// in the pool's largest class, a 256 KiB send buffer would stay resident
// behind a 64 KiB slot.
const maxPooledBuf = 64 << 10

// byteQueue is a FIFO of bytes over one reusable backing array. Bytes
// leave at the front (acknowledged, or read) and arrive at the back.
// When the back runs out of room the queue compacts its live bytes to
// the front of the array if that leaves at least half of it free, so
// compaction copies at most one byte per byte pushed; otherwise the
// array doubles, up to twice the caller's bound on queued bytes. A
// drained queue holds no array, so idle conns cost no buffer memory.
type byteQueue struct {
	arr  []byte // backing array at full capacity; nil when drained
	live []byte // queued bytes: a window into arr
}

func (q *byteQueue) len() int { return len(q.live) }

// push appends p. limit bounds len(q.live) after the push; callers clip
// p to it.
func (q *byteQueue) push(pool BufferPool, p []byte, limit int) {
	need := len(q.live) + len(p)
	if need > cap(q.live) {
		if 2*need <= cap(q.arr) {
			q.live = append(q.arr[:0], q.live...) // overlapping move to the front
		} else {
			q.grow(pool, min(max(2*need, 2*cap(q.arr)), 2*limit))
		}
	}
	q.live = append(q.live, p...)
}

// grow moves the live bytes into a fresh n-byte array.
func (q *byteQueue) grow(pool BufferPool, n int) {
	var arr []byte
	if pool != nil && n <= maxPooledBuf {
		arr = pool.Get(n)
	} else {
		arr = make([]byte, n)
	}
	arr = arr[:cap(arr)]
	m := copy(arr, q.live)
	q.release(pool)
	q.arr, q.live = arr, arr[:m]
}

// pop drops the first n queued bytes, releasing the array once drained.
func (q *byteQueue) pop(pool BufferPool, n int) {
	if uint(n) < uint(len(q.live)) {
		q.live = q.live[n:]
		return
	}
	q.release(pool)
}

// release hands a pool-drawn array back and forgets the array.
func (q *byteQueue) release(pool BufferPool) {
	if pool != nil && q.arr != nil && cap(q.arr) <= maxPooledBuf {
		pool.Put(q.arr)
	}
	q.arr, q.live = nil, nil
}
