package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb is a minimal protobuf encoder for building fixed test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.b) }

func packed(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// fixedProfile encodes a CPU profile (samples/count, cpu/nanoseconds) with
// five stacks, leaf first:
//
//	json.Marshal <- sweep.Point.Fingerprint           300ns -> sweep
//	[sha256.block, sweep.(*Engine).plan inlined]      200ns -> sweep
//	runtime.mallocgc <- pipeline.(*Pipeline).Step     500ns -> pipeline
//	runtime.mallocgc                                   70ns -> runtime
//	apiv1.Encode[go.shape.int]                         11ns -> apiv1
//
// The first and fourth samples use one-element-per-field encoding, the
// others packed, as runtime/pprof mixes both.
func fixedProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"encoding/json.Marshal",
		"repro/internal/sweep.Point.Fingerprint",
		"crypto/sha256.block",
		"repro/internal/sweep.(*Engine).plan",
		"runtime.mallocgc",
		"repro/internal/pipeline.(*Pipeline).Step",
		"repro/internal/campaign/apiv1.Encode[go.shape.int]",
	}
	p := &pb{}
	p.msg(1, (&pb{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&pb{}).varint(1, 3).varint(2, 4))
	// functions: id i names string i+4 (5..11)
	for id := uint64(1); id <= 7; id++ {
		p.msg(5, (&pb{}).varint(1, id).varint(2, id+4))
	}
	line := func(fn uint64) *pb { return (&pb{}).varint(1, fn).varint(2, 10) }
	p.msg(4, (&pb{}).varint(1, 1).msg(4, line(1)))                 // json.Marshal
	p.msg(4, (&pb{}).varint(1, 2).msg(4, line(2)))                 // Fingerprint
	p.msg(4, (&pb{}).varint(1, 3).msg(4, line(3)).msg(4, line(4))) // sha256 inlined into plan
	p.msg(4, (&pb{}).varint(1, 4).msg(4, line(5)))                 // mallocgc
	p.msg(4, (&pb{}).varint(1, 5).msg(4, line(6)))                 // Step
	p.msg(4, (&pb{}).varint(1, 6).msg(4, line(7)))                 // apiv1.Encode
	p.msg(2, (&pb{}).varint(1, 1).varint(1, 2).varint(2, 3).varint(2, 300))
	p.msg(2, (&pb{}).bytes(1, packed(3)).bytes(2, packed(2, 200)))
	p.msg(2, (&pb{}).bytes(1, packed(4, 5)).bytes(2, packed(5, 500)))
	p.msg(2, (&pb{}).varint(1, 4).varint(2, 1).varint(2, 70))
	p.msg(2, (&pb{}).bytes(1, packed(6)).bytes(2, packed(1, 11)))
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfileByInnermostRepoFrame(t *testing.T) {
	f, err := foldProfile(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sweep": 500, "pipeline": 500, "runtime": 70, "apiv1": 11}
	if len(f.ByLayer) != len(want) {
		t.Errorf("layers %v, want %v", f.ByLayer, want)
	}
	var sum int64
	for l, v := range f.ByLayer {
		sum += v
		if want[l] != v {
			t.Errorf("%s = %d ns, want %d", l, v, want[l])
		}
	}
	if f.TotalNS != 1081 || sum != f.TotalNS {
		t.Errorf("total %d ns, layers sum %d ns; want both 1081", f.TotalNS, sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sweep.(*Engine).RunAll.func1":             "sweep",
		"repro/internal/campaign/apiv1.EncodeCheckpointRecord":    "apiv1",
		"repro/internal/campaign.(*Server).handleSubmit":          "campaign",
		"repro/internal/report.Render[go.shape.struct { a.b/c }]": "report",
		"encoding/json.Marshal":                                   "",
		"main.main":                                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldRealProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i % 7
	}
	f, err := p.stop()
	if err != nil {
		t.Fatalf("fold of a runtime/pprof profile: %v (x=%d)", err, x)
	}
	var sum int64
	for _, v := range f.ByLayer {
		sum += v
	}
	if sum != f.TotalNS {
		t.Errorf("layers sum %d ns, total %d ns", sum, f.TotalNS)
	}
}
