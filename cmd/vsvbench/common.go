package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Short windows are the golden-output gate's (scripts/check_golden.sh):
// the campaign every workload's set-up runs and checks against
// testdata/golden_short.sha256.
const (
	shortWarmup  = 5000
	shortMeasure = 20000
	goldenFile   = "testdata/golden_short.sha256"
)

// run is one benchmark invocation's state: its inputs, the tracer (nil
// when untraced), the failure tally and the metrics reported so far.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	nproc    int
	tmp      string
	tr       *tracer

	t       tally
	metrics map[string]Metric
	notes   []string
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// engine returns a fresh sweep engine sized to the host.
func (r *run) engine(opts ...sweep.Option) *sweep.Engine {
	return sweep.New(append([]sweep.Option{sweep.Workers(r.nproc)}, opts...)...)
}

// shortOptions are the golden gate's campaign options on eng.
func (r *run) shortOptions(eng *sweep.Engine) experiments.Options {
	return experiments.Options{
		WarmupInstructions:  shortWarmup,
		MeasureInstructions: shortMeasure,
		Parallelism:         r.nproc,
		Engine:              eng,
	}
}

// golden runs the paper campaign at the golden short windows on a fresh
// engine and checks its stdout bytes against the committed digest. It is
// the set-up every workload starts with: it fills the process-wide arena
// pool (the cold construction a command-line invocation pays) and proves
// the build simulates the committed physics before anything is timed.
func (r *run) golden() (*sweep.Engine, error) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, fmt.Errorf("golden digest: %w", err)
	}
	eng := r.engine()
	h := sha256.New()
	if _, err := experiments.RunArtefacts(h, r.shortOptions(eng), experiments.Spec{},
		experiments.AllArtefacts(), false); err != nil {
		return nil, fmt.Errorf("golden campaign: %w", err)
	}
	got := hex.EncodeToString(h.Sum(nil))
	r.t.check(got == strings.TrimSpace(string(want)),
		fmt.Sprintf("golden short digest %s, want %s", got, strings.TrimSpace(string(want))))
	return eng, nil
}

// timeSetups runs setup n times and reports the median as setup_s. The
// state of the last set-up is the one the workload keeps. A traced run
// does not report setup_s and sets up once.
func timeSetups[T any](r *run, n int, setup func() (T, error)) (T, error) {
	if r.traced {
		n = 1
	}
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	if !r.traced {
		r.set("setup_s", "s", median(secs))
	}
	return last, nil
}

// figurePoints returns the Figure 4 and Figure 7 points of every benchmark
// under o's windows, with the exact configurations those figures submit,
// so on an engine that ran the campaign they are all memo hits.
func figurePoints(o experiments.Options) []sweep.Point {
	cfgs := map[string]sim.Config{
		"base":  experiments.BenchConfig(o),
		"nofsm": experiments.BenchConfig(o).WithVSV(core.PolicyNoFSM()),
		"fsm":   experiments.BenchConfig(o).WithVSV(core.PolicyFSM()),
		"tk":    experiments.BenchConfig(o).WithTimeKeeping(),
		"fsmtk": experiments.BenchConfig(o).WithTimeKeeping().WithVSV(core.PolicyFSM()),
	}
	var pts []sweep.Point
	for _, n := range workload.Names() {
		for _, c := range []string{"base", "nofsm", "fsm", "tk", "fsmtk"} {
			pts = append(pts, sweep.Point{Key: c + "/" + n, Benchmark: n, Config: cfgs[c]})
		}
	}
	return pts
}

// simCounts re-runs the figure points on eng (memo hits) and aggregates
// the simulated statistics. They are exact functions of the physics: a
// speed-only change must leave every one bit-identical. It reports how
// many of the points had to simulate (0 when they were all hits).
func simCounts(ctx context.Context, eng *sweep.Engine, o experiments.Options) (map[string]float64, int, error) {
	pts := figurePoints(o)
	before := eng.Stats().Ran
	res, err := eng.Run(ctx, pts)
	if err != nil {
		return nil, 0, fmt.Errorf("figure points: %w", err)
	}
	var ticks, insts, trans, energy, zi, mp, dl1, l2, low float64
	var vsv int
	for i, rs := range res {
		ticks += float64(rs.Ticks)
		insts += float64(rs.Instructions)
		trans += float64(rs.Transitions)
		energy += rs.EnergyNJ
		zi += rs.ZeroIssueFrac
		mp += rs.MispredictRate
		dl1 += rs.DL1MissRate
		l2 += rs.MR
		if pts[i].Config.VSV != nil {
			low += rs.LowFrac
			vsv++
		}
	}
	n := float64(len(res))
	return map[string]float64{
		"sim.ticks":                ticks,
		"sim.instructions":         insts,
		"pipeline.zero_issue_frac": zi / n,
		"branch.mispredict_rate":   mp / n,
		"cache.dl1_miss_rate":      dl1 / n,
		"cache.l2_mr":              l2 / n,
		"core.low_frac":            low / float64(vsv),
		"core.transitions":         trans,
		"power.energy_mj":          energy / 1e6,
	}, eng.Stats().Ran - before, nil
}

// countUnits are the simulated counts' units.
var countUnits = map[string]string{
	"sim.ticks":                "ticks",
	"sim.instructions":         "count",
	"pipeline.zero_issue_frac": "frac",
	"branch.mispredict_rate":   "frac",
	"cache.dl1_miss_rate":      "frac",
	"cache.l2_mr":              "1/kinst",
	"core.low_frac":            "frac",
	"core.transitions":         "count",
	"power.energy_mj":          "mJ",
}

// checkCounts compares the simulated counts with their committed values
// exactly and reports them as metrics in a traced run.
func (r *run) checkCounts(ctx context.Context, eng *sweep.Engine, o experiments.Options, want map[string]string) error {
	got, ran, err := simCounts(ctx, eng, o)
	if err != nil {
		return err
	}
	r.t.check(ran == 0, fmt.Sprintf("figure points re-run simulated %d points, want all memo hits", ran))
	for _, name := range sortedKeys(countUnits) {
		s := strconv.FormatFloat(got[name], 'g', -1, 64)
		r.t.check(s == want[name], fmt.Sprintf("simulated %s = %s, committed %s", name, s, want[name]))
		if r.traced {
			r.set(name, countUnits[name], got[name])
		}
	}
	return nil
}

// paperErr is the mean absolute difference, in percentage points, between
// the measured §6 headline numbers and the paper's, from Figure 7 re-run on
// eng.
func paperErr(eng *sweep.Engine, o experiments.Options) (float64, error) {
	o.Engine = eng
	rows, err := experiments.Figure7(o, workload.Names())
	if err != nil {
		return 0, fmt.Errorf("figure 7: %w", err)
	}
	got, want := experiments.ComputeSummary(rows), experiments.PaperSummary()
	diffs := []float64{
		got.HighMRSavePct - want.HighMRSavePct, got.HighMRDegPct - want.HighMRDegPct,
		got.AllSavePct - want.AllSavePct, got.AllDegPct - want.AllDegPct,
		got.TKHighMRSavePct - want.TKHighMRSavePct, got.TKHighMRDegPct - want.TKHighMRDegPct,
		got.TKAllSavePct - want.TKAllSavePct,
	}
	var sum float64
	for _, d := range diffs {
		sum += math.Abs(d)
	}
	return sum / float64(len(diffs)), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// runtimeSample reads the runtime counters the per-layer metrics use.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// scratchDir makes a fresh directory under the run's temp area.
func (r *run) scratchDir(name string) (string, error) {
	dir := filepath.Join(r.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
