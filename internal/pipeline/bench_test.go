package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/workload"
)

// missPort is a fixed-latency hit/miss MemPort for layer benchmarks: a
// hashed 1-in-16 of demand-load blocks miss and fill missLatency steps
// later, at most mshrs misses are in flight (further misses stall), and
// I-fetches and store commits always hit. Its fill queue is preallocated,
// so steady-state stepping allocates nothing.
type missPort struct {
	p     *Pipeline
	now   int64
	fills []dueLoad // in-flight misses in due order (fixed latency)
}

const (
	missLatency = 80
	mshrs       = 8
)

func newMissPort() *missPort { return &missPort{fills: make([]dueLoad, 0, mshrs)} }

func (m *missPort) IFetch(block uint64, now int64) IFetchResult {
	return IFetchResult{HitCycles: 2}
}

func (m *missPort) Load(addr uint64, token uint64, isPrefetch bool, now int64) LoadResult {
	if isPrefetch {
		return LoadResult{HitCycles: 1}
	}
	if (addr>>5)*0x9e3779b97f4a7c15>>60 != 0 {
		return LoadResult{HitCycles: 3}
	}
	if len(m.fills) == mshrs {
		return LoadResult{Stall: true}
	}
	m.fills = append(m.fills, dueLoad{token: token, at: m.now + missLatency})
	return LoadResult{Async: true}
}

func (m *missPort) StoreCommit(addr uint64, now int64) bool { return true }

// step delivers the fills due now and advances the pipeline one cycle.
func (m *missPort) step() StepResult {
	n := 0
	for n < len(m.fills) && m.fills[n].at <= m.now {
		m.p.LoadDone(m.fills[n].token)
		n++
	}
	if n > 0 {
		m.fills = m.fills[:copy(m.fills, m.fills[n:])]
	}
	r := m.p.Step(m.now)
	m.now++
	return r
}

// newBenchPipeline builds a default pipeline over the named benchmark's
// canonical instruction stream and the miss port, stepped past warm-up so
// the window, predictor and per-entry dependent lists are in steady state.
func newBenchPipeline(tb testing.TB, bench string) *missPort {
	prof, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	port := newMissPort()
	port.p = New(DefaultConfig(), workload.NewGenerator(prof),
		branch.New(branch.DefaultConfig()), port)
	for i := 0; i < 50_000; i++ {
		port.step()
	}
	return port
}

// BenchmarkPipelineStep measures the per-cycle cost of Pipeline.Step on a
// compute-bound ("gcc") and a miss-bound ("mcf") instruction stream; one
// op is one step.
func BenchmarkPipelineStep(b *testing.B) {
	for _, bench := range []string{"gcc", "mcf"} {
		b.Run(bench, func(b *testing.B) {
			port := newBenchPipeline(b, bench)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				port.step()
			}
		})
	}
}

// TestStepZeroAlloc pins the zero-alloc property of steady-state stepping.
func TestStepZeroAlloc(t *testing.T) {
	for _, bench := range []string{"gcc", "mcf"} {
		port := newBenchPipeline(t, bench)
		if n := testing.AllocsPerRun(5000, func() { port.step() }); n != 0 {
			t.Errorf("%s: Step allocates %.2f times per call, want 0", bench, n)
		}
	}
}
