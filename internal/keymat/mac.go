package keymat

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// MAC is a reusable keyed HMAC-SHA-256 state shared by the ESP data plane
// and the tlslite record layer. The keyed inner/outer pads are computed
// once at construction; every Sum afterwards reset-reuses the state, so
// the steady-state per-packet MAC cost is two compression runs and zero
// heap allocations (versus hmac.New + Sum(nil) per packet).
//
// A MAC is stateful scratch: it is not safe for concurrent use, and the
// slice returned by Sum aliases internal storage that the next Reset/Sum
// overwrites. Callers must copy the tag out (or compare in place) before
// reusing the MAC.
type MAC struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewMAC builds a reusable HMAC-SHA-256 over key. The first Reset/Sum
// cycle caches the keyed pad states; all later cycles are allocation-free.
func NewMAC(key []byte) *MAC {
	m := &MAC{h: hmac.New(sha256.New, key)}
	// Warm the state cache: the stdlib HMAC marshals its keyed inner and
	// outer digests on the first Sum+Reset so later cycles only restore
	// them. Doing it here keeps the first real packet off the slow path.
	m.h.Sum(m.sum[:0])
	m.h.Reset()
	return m
}

// Reset rewinds the MAC to its keyed initial state.
func (m *MAC) Reset() { m.h.Reset() }

// Write absorbs p into the MAC.
func (m *MAC) Write(p []byte) { m.h.Write(p) }

// Sum finalizes the MAC and returns the 32-byte digest. The result
// aliases internal scratch valid until the next Reset/Sum on this MAC.
func (m *MAC) Sum() []byte { return m.h.Sum(m.sum[:0]) }

// SumTrunc finalizes the MAC and returns its first n bytes (n <= 32),
// aliasing internal scratch like Sum.
func (m *MAC) SumTrunc(n int) []byte { return m.Sum()[:n] }

// VerifyTrunc finalizes the MAC and compares its n-byte truncation
// against tag in constant time.
func (m *MAC) VerifyTrunc(tag []byte, n int) bool {
	return hmac.Equal(tag, m.Sum()[:n])
}

// Zeroize drops the keyed state and wipes the digest scratch. The
// stdlib HMAC holds keyed pad copies internally that cannot be wiped
// portably; releasing the reference is the best that can be done for
// them. The MAC is unusable afterwards.
func (m *MAC) Zeroize() {
	m.h = nil
	m.sum = [sha256.Size]byte{}
}

// ctrChunk is how many keystream blocks CTRXor builds per pass: enough
// that one vectorized XOR covers several blocks, small enough that the
// scratch stays a few cache lines per SA.
const ctrChunk = 8

// CTRScratch holds the keystream chunk CTRXor works in. Embedding it in
// a long-lived owner (an SA, a connection) keeps the blocks off the
// per-packet heap: they must not live on CTRXor's own stack because they
// are passed through the cipher.Block interface, which forces them to
// escape.
type CTRScratch struct {
	ks [ctrChunk * 16]byte
}

// CTRXor applies AES-CTR keystream derived from block and iv to src,
// writing into dst (dst and src must either overlap entirely or not at
// all, and len(dst) >= len(src)). Unlike cipher.NewCTR it allocates no
// stream state, so per-packet encryption stays on the zero-allocation
// fast path; the counter is the big-endian 128-bit increment of iv,
// matching cipher.NewCTR's layout so wire formats are unchanged. The
// keystream is built ctrChunk blocks at a time and applied with one
// subtle.XORBytes per chunk.
func CTRXor(block cipher.Block, scratch *CTRScratch, iv *[16]byte, dst, src []byte) {
	hi := binary.BigEndian.Uint64(iv[:8])
	lo := binary.BigEndian.Uint64(iv[8:])
	ks := scratch.ks[:]
	for len(src) > 0 {
		n := min(len(src), len(ks))
		// len(ks) is a whole number of blocks, so blocks never runs short
		// before n is covered; the length test lets the compiler drop the
		// bounds checks.
		blocks := ks
		for off := 0; off < n && len(blocks) >= 16; off += 16 {
			b := (*[16]byte)(blocks)
			blocks = blocks[16:]
			binary.BigEndian.PutUint64(b[:8], hi)
			binary.BigEndian.PutUint64(b[8:], lo)
			block.Encrypt(b[:], b[:])
			lo++
			if lo == 0 {
				hi++
			}
		}
		subtle.XORBytes(dst, src[:n], ks[:n])
		dst, src = dst[n:], src[n:]
	}
}
