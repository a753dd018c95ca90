package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/rng"
)

// streamPort is a deterministic MemPort that exercises every port outcome:
// hits, async misses completed some cycles later through LoadDone and
// IFetchDone, MSHR-full stalls on loads and I-fetches, and store-commit
// retries. Its choices draw from one seeded stream in call order, so any
// change to the order or number of port calls changes the run.
type streamPort struct {
	r *rng.Source
	p *Pipeline

	loadsDue  []dueLoad // async loads in request order
	ifetchDue int64     // step at which the outstanding I-fetch fills (0 none)
}

type dueLoad struct {
	token uint64
	at    int64
}

func (f *streamPort) IFetch(block uint64, now int64) IFetchResult {
	switch f.r.Intn(32) {
	case 0:
		return IFetchResult{Stall: true}
	case 1:
		f.ifetchDue = now + 4 + int64(f.r.Intn(20))
		return IFetchResult{Async: true}
	}
	return IFetchResult{HitCycles: 2}
}

func (f *streamPort) Load(addr uint64, token uint64, isPrefetch bool, now int64) LoadResult {
	if isPrefetch {
		return LoadResult{HitCycles: 1}
	}
	switch f.r.Intn(12) {
	case 0:
		return LoadResult{Stall: true}
	case 1, 2:
		f.loadsDue = append(f.loadsDue, dueLoad{token: token, at: now + 6 + int64(f.r.Intn(60))})
		return LoadResult{Async: true}
	case 3:
		return LoadResult{HitCycles: 3, BufferHit: true}
	}
	return LoadResult{HitCycles: 1 + f.r.Intn(3)}
}

func (f *streamPort) StoreCommit(addr uint64, now int64) bool {
	return f.r.Intn(8) != 0
}

// deliver completes every fill due by now, in request order.
func (f *streamPort) deliver(now int64) {
	kept := f.loadsDue[:0]
	for _, d := range f.loadsDue {
		if d.at <= now {
			f.p.LoadDone(d.token)
		} else {
			kept = append(kept, d)
		}
	}
	f.loadsDue = kept
	if f.ifetchDue != 0 && f.ifetchDue <= now {
		f.ifetchDue = 0
		f.p.IFetchDone()
	}
}

// smallConfig shrinks every structure so the RUU, LSQ and fetch queue
// fill, wrap and stall often.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = 4, 4, 4, 4
	cfg.RUUSize, cfg.LSQSize, cfg.FetchQueueSize = 16, 8, 6
	cfg.IntALU, cfg.IntMulDiv, cfg.FPAdd, cfg.FPMulDiv = 2, 1, 1, 1
	return cfg
}

// streamDigest runs a random program through the pipeline and hashes
// every StepResult and the final Stats.
func streamDigest(h hash.Hash, cfg Config, seed uint64, progLen, steps int) {
	r := rng.New(seed)
	prog := randomProgram(r.Split(), progLen)
	for i := range prog {
		// Fold addresses into 16 blocks so loads meet older same-block
		// stores: forwarding and unknown-address waits both occur.
		prog[i].Addr &= 0x1ff
	}
	port := &streamPort{r: r.Split()}
	p := New(cfg, &progSource{prog: prog}, branch.New(branch.DefaultConfig()), port)
	port.p = p
	for i := 0; i < steps; i++ {
		now := int64(i)
		port.deliver(now)
		fmt.Fprintf(h, "%d %+v\n", i, p.Step(now))
	}
	fmt.Fprintf(h, "%+v\n", p.Stats())
}

// stepStreamDigest is the digest TestStepStreamDigest must reproduce,
// recorded before the ready list and the fetch ring replaced a walk over
// every unissued entry and a shifting fetch queue. Reworking the
// pipeline's data structures must leave it unchanged.
const stepStreamDigest = "fbdc5d072a916437ad11e5a0fabbe14ed727772f04a09c9f7137c9ea594fbfb4"

// TestStepStreamDigest pins the pipeline's exact cycle-by-cycle output:
// Issued, Committed and the whole Activity record of every step, plus the
// final Stats, over a fixed set of random programs on the default and a
// shrunken geometry.
func TestStepStreamDigest(t *testing.T) {
	h := sha256.New()
	for _, cfg := range []Config{DefaultConfig(), smallConfig()} {
		for seed := uint64(1); seed <= 6; seed++ {
			streamDigest(h, cfg, seed, 4000, 3000)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != stepStreamDigest {
		t.Fatalf("step stream digest = %s, want %s", got, stepStreamDigest)
	}
}

// TestWakeOrderIssuesOldestFirst wakes two dividers in the same writeback
// in reverse age order — the older producer wakes the younger consumer
// first — with a single divider unit free. The older consumer must issue.
func TestWakeOrderIssuesOldestFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntMulDiv = 1
	prog := []isa.Inst{
		alu(0x0, isa.RegNone, isa.RegNone, 1),                           // P1 (older producer)
		alu(0x4, isa.RegNone, isa.RegNone, 2),                           // P2 (younger producer)
		{PC: 0x8, Op: isa.OpIntDiv, Src1: 2, Src2: isa.RegNone, Dst: 3}, // A: waits on P2
		{PC: 0xc, Op: isa.OpIntDiv, Src1: 1, Src2: isa.RegNone, Dst: 4}, // B: waits on P1
	}
	p := New(cfg, &progSource{prog: prog}, branch.New(branch.DefaultConfig()), newFakePort())
	find := func(pc uint64) *ruuEntry {
		for i := range p.ruu {
			if e := &p.ruu[i]; e.valid && e.inst.PC == pc {
				return e
			}
		}
		t.Fatalf("no in-flight entry at pc %#x", pc)
		return nil
	}
	for i := 0; i < 10; i++ {
		r := p.Step(int64(i))
		if r.Activity.FUOps[isa.FUIntMulDiv] == 0 {
			continue
		}
		a, b := find(0x8), find(0xc)
		if a.execLeft == 0 || b.execLeft != 0 {
			t.Fatalf("step %d: divider went to the younger entry (A execLeft %d, B execLeft %d)",
				i, a.execLeft, b.execLeft)
		}
		return
	}
	t.Fatal("no divider issued within 10 steps")
}
