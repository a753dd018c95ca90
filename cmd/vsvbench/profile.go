package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The CPU profile is folded by package without the pprof tool: the
// benchmark decodes runtime/pprof's gzipped profile.proto itself (only the
// fields it needs) so it stays stdlib-only.

// cpuProfile is one profiling window in progress.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the window and folds it.
func (p *cpuProfile) stop() (fold, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// cpuWindows accumulates the CPU profile fold and the GC's CPU share over
// the traced repetitions of a run.
type cpuWindows struct {
	f         fold
	gc, total float64
	n         int

	cur *cpuProfile
	rt  runtimeSample
}

func (w *cpuWindows) start() error {
	runtime.GC()
	p, err := startCPUProfile()
	if err != nil {
		return err
	}
	w.cur, w.rt = p, readRuntime()
	return nil
}

func (w *cpuWindows) stop() error {
	f, err := w.cur.stop()
	if err != nil {
		return err
	}
	runtime.GC() // the runtime's CPU classes are brought up to date at a GC
	rt := readRuntime()
	w.gc += rt.gcCPU - w.rt.gcCPU
	w.total += rt.totalCPU - w.rt.totalCPU
	w.f.add(f)
	w.n++
	return nil
}

// fold is CPU nanoseconds by layer, plus the profile's total.
type fold struct {
	ByLayer map[string]int64
	TotalNS int64
}

func (f *fold) add(o fold) {
	if f.ByLayer == nil {
		f.ByLayer = map[string]int64{}
	}
	for k, v := range o.ByLayer {
		f.ByLayer[k] += v
	}
	f.TotalNS += o.TotalNS
}

// repoPrefix marks the frames that are attributed to a layer.
const repoPrefix = "repro/internal/"

// layerOf returns the layer (last element of the package path) of a
// repro/internal function name, or "" for any other frame.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn[slash+1:]
	}
	return fn[slash+1 : slash+1+dot]
}

// foldProfile attributes every sample to the innermost repro/internal frame
// on its stack, inlined frames included, so time in encoding/json or
// crypto/sha256 called from Point.Fingerprint counts as sweep. Samples with
// no such frame count as runtime. The per-layer sums add up to TotalNS
// exactly.
func foldProfile(gz []byte) (fold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fold{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fold{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fold{}, err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st.unit) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return fold{}, errors.New("profile: no nanoseconds sample type")
	}
	funcLayer := map[uint64]string{}
	for _, fn := range p.funcs {
		funcLayer[fn.id] = layerOf(p.str(fn.name))
	}
	locLayer := map[uint64]string{}
	for id, fns := range p.locFuncs {
		for _, fid := range fns { // innermost inlined frame first
			if l := funcLayer[fid]; l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	f := fold{ByLayer: map[string]int64{}}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return fold{}, errors.New("profile: sample without cpu value")
		}
		v := s.values[valueIdx]
		layer := "runtime"
		for _, loc := range s.locs { // leaf first
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		f.ByLayer[layer] += v
		f.TotalNS += v
	}
	return f, nil
}

type valueType struct{ unit int64 }

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []valueType
	samples     []sample
	locFuncs    map[uint64][]uint64
	funcs       []function
	strings     []string
}

// function is a profile function: its ID and its name's string index.
type function struct {
	id   uint64
	name int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the profile.proto fields the fold needs: sample_type
// (1), sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			var vt valueType
			if err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				if n == 2 {
					vt.unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case 2:
			var s sample
			if err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeatedVarint(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeatedVarint(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id=1, line=2}
					return eachField(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var fn function
			if err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					fn.id = v
				case 2:
					fn.name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs = append(p.funcs, fn)
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// repeatedVarint handles both encodings of a repeated varint field:
// packed (wire type 2) and one element per field (wire type 0).
func repeatedVarint(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, handing each field's number, wire
// type and payload (varint value or length-delimited bytes) to fn.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
