package fold

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"repo leaf", []string{
			"hipcloud/internal/keymat.CTRXor",
			"hipcloud/internal/esp.(*SA).SealAppend",
			"hipcloud/internal/hipsim.(*Fabric).send",
			"hipcloud/internal/netsim.(*Proc).runBody",
		}, "keymat"},
		{"stdlib crypto counts toward its caller", []string{
			"crypto/aes.encryptBlockAsm",
			"crypto/cipher.(*ctr).XORKeyStream",
			"hipcloud/internal/tlslite.(*Conn).sealRecordAppend",
			"hipcloud/internal/secio.(*tlsConn).Write",
		}, "tlslite"},
		{"math/big counts toward identity", []string{
			"math/big.nat.montgomery",
			"math/big.nat.expNN",
			"crypto/rsa.GenerateKey",
			"hipcloud/internal/identity.detRSAKey",
			"hipcloud/internal/experiments.Deploy.func1",
		}, "identity"},
		{"syscall counts toward hipudp", []string{
			"internal/runtime/syscall.Syscall6",
			"syscall.Syscall6",
			"hipcloud/internal/hipudp.sendmmsg",
			"hipcloud/internal/hipudp.(*Stack).transmit",
		}, "hipudp"},
		{"allocation counts toward the allocating layer", []string{
			"runtime.mallocgc",
			"runtime.makeslice",
			"hipcloud/internal/stream.(*Conn).Write",
		}, "stream"},
		{"GC assist inside repo code is GC", []string{
			"runtime.scanobject",
			"runtime.gcDrainN",
			"runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"hipcloud/internal/microhttp.ReadRequest",
		}, GC},
		{"background mark worker", []string{
			"runtime.greyobject", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		}, GC},
		{"write barrier flush", []string{
			"runtime.wbBufFlush1", "runtime.wbBufFlush", "runtime.gcWriteBarrier2",
			"hipcloud/internal/netsim.(*Sim).fire",
		}, GC},
		{"scheduler without repo frame", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep",
			"runtime.stopm", "runtime.findRunnable", "runtime.schedule",
			"runtime.park_m", "runtime.mcall",
		}, Sched},
		{"park under repo frame counts toward the repo layer", []string{
			"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup",
			"runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready",
			"runtime.chansend1",
			"hipcloud/internal/netsim.(*Proc).park",
		}, "netsim"},
		{"unlisted repo package is other", []string{
			"strconv.Itoa",
			"hipcloud/internal/metrics.(*Table).Row",
			"hipcloud/internal/netsim.(*Proc).runBody",
		}, Other},
		{"generic repo function", []string{
			"hipcloud/internal/metrics.Percentile[...]",
			"hipcloud/internal/hip.(*Host).OnTimer",
		}, Other},
		{"harness frame", []string{"bytes.Equal", "main.(*verifier).check", "main.bulk.func1"}, Harness},
		{"repo frame inside the harness", []string{
			"hipcloud/internal/hipudp.(*Conn).Write", "main.bulk",
		}, "hipudp"},
		{"no repo frame", []string{"runtime.memmove", "runtime.main"}, Other},
		{"empty stack", nil, Other},
	}
	for _, c := range cases {
		if got := Classify(c.frames); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSharesRoute(t *testing.T) {
	samples := []Sample{
		{Weight: 30, Frames: []string{"net/netip.Prefix.Contains", routeFrame, "hipcloud/internal/netsim.(*Node).SendRaw"}},
		{Weight: 10, Frames: []string{"hipcloud/internal/netsim.(*Sim).fire"}},
		{Weight: 40, Frames: []string{"hipcloud/internal/hip.(*Host).OnPacket"}},
		{Weight: 20, Frames: []string{"runtime.gcBgMarkWorker"}},
	}
	got := Shares(samples)
	want := map[string]float64{"netsim": 40, Route: 30, "hip": 40, GC: 20, Sched: 0, Other: 0, "esp": 0}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
	layers := LayerShares(got)
	if layers["net"] != 40 || layers["hip"] != 40 || layers["crypto"] != 0 || layers["app"] != 0 {
		t.Errorf("layer shares %v, want net 40, hip 40, crypto 0, app 0", layers)
	}
	if len(got) != len(Modules)+4 {
		t.Errorf("Shares has %d keys, want %d", len(got), len(Modules)+4)
	}
	var sum float64
	for k, v := range got {
		if k != Route {
			sum += v
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
}

// TestLayersCoverModules checks that every module is in exactly one layer.
func TestLayersCoverModules(t *testing.T) {
	seen := map[string]string{}
	for _, l := range Layers {
		for _, m := range l.Modules {
			if prev, dup := seen[m]; dup {
				t.Errorf("module %s is in layers %s and %s", m, prev, l.Name)
			}
			seen[m] = l.Name
		}
	}
	for _, m := range Modules {
		if _, ok := seen[m]; !ok {
			t.Errorf("module %s is in no layer", m)
		}
	}
	if len(seen) != len(Modules) {
		t.Errorf("layers name %d modules, Modules has %d", len(seen), len(Modules))
	}
}

// protobuf encoding helpers for synthetic profiles.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, body []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return pbBytes(b, num, body)
}

// synthProfile builds a two-sample profile: sample 1 uses packed
// location/value lists and an inlined location, sample 2 unpacked ones.
func synthProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/aes.encryptBlockAsm", "hipcloud/internal/keymat.CTRXor",
		"hipcloud/internal/esp.(*SA).SealAppend", "runtime.gcBgMarkWorker"}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2)) // samples/count
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	// sample 1: locations [1, 2], values [3, 30000000] (packed)
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 1, 2), 2, 3, 30000000))
	// sample 2: location [3], values [1, 10000000] (unpacked)
	p = pbBytes(p, 2, pbVarint(pbVarint(pbVarint(nil, 1, 3), 2, 1), 2, 10000000))
	line := func(fn uint64) []byte { return pbVarint(pbVarint(nil, 1, fn), 2, 7) }
	// location 1 is aes (leaf) inlined into CTRXor.
	p = pbBytes(p, 4, pbBytes(pbBytes(pbVarint(nil, 1, 1), 4, line(1)), 4, line(2)))
	p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, 2), 4, line(3)))
	p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, 3), 4, line(4)))
	for id, name := range []uint64{5, 6, 7, 8} {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, uint64(id+1)), 2, name))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	p = pbVarint(p, 12, 10000000) // period, ignored
	return p
}

func TestParseSynthetic(t *testing.T) {
	raw := synthProfile()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		samples, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if len(samples) != 2 {
			t.Fatalf("%s: %d samples, want 2", name, len(samples))
		}
		wantFrames := "crypto/aes.encryptBlockAsm hipcloud/internal/keymat.CTRXor hipcloud/internal/esp.(*SA).SealAppend"
		if got := strings.Join(samples[0].Frames, " "); got != wantFrames {
			t.Errorf("%s: sample 0 frames %q, want %q", name, got, wantFrames)
		}
		if samples[0].Weight != 30000000 || samples[1].Weight != 10000000 {
			t.Errorf("%s: weights %d, %d: want the cpu value", name, samples[0].Weight, samples[1].Weight)
		}
		sh := Shares(samples)
		if sh["keymat"] != 75 || sh[GC] != 25 {
			t.Errorf("%s: shares keymat=%v gc=%v, want 75 and 25", name, sh["keymat"], sh[GC])
		}
	}
}

// TestParseTruncated cuts the profile at every length: no cut may panic,
// and a cut inside the final multi-byte varint must be an error.
func TestParseTruncated(t *testing.T) {
	raw := synthProfile()
	for n := range raw {
		Parse(raw[:n])
	}
	if _, err := Parse(raw[:len(raw)-1]); err == nil {
		t.Error("Parse accepted a profile cut inside a varint")
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestParseRuntimeProfile decodes a profile written by runtime/pprof.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Weight <= 0 {
			t.Fatalf("sample weight %d, want > 0", s.Weight)
		}
		for _, f := range s.Frames {
			if f == "hipcloud/perfbench/fold.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample in %d has the spin frame", len(samples))
	}
}
