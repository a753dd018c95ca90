package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// paperDigest is the SHA-256 of `experiments -exp all` stdout at
// experiments.DefaultOptions windows (the same bytes for any -parallel).
const paperDigest = "d52777378d7c91531573112fbde75ea1f34bdafe90fc400f3fdc2364de9f5788"

// replaysPerRep is how many all-hit replays follow each campaign: one
// replay takes milliseconds, too short to time alone.
const replaysPerRep = 50

// paperAll times the paper campaign: every artefact of AllArtefacts at the
// default windows, run concurrently on a fresh engine per repetition,
// exactly as cmd/experiments -exp all does.
func paperAll(ctx context.Context, r *run) error {
	if _, err := timeSetups(r, 3, r.golden); err != nil {
		return err
	}
	o := experiments.DefaultOptions()
	o.Parallelism = r.nproc

	var walls, runsPS, ratePS, hitsPS, ttr, inflight, replayMS []float64
	var tracedWalls, untracedWalls []float64
	var agg sweep.Stats
	var writeAlloc, readAlloc, writePts, readPts float64
	var cpu cpuWindows
	var warm *sweep.Engine
	t0 := time.Now()
	for rep := 0; rep < 3 || time.Since(t0) < r.seconds; rep++ {
		traced := r.traced && rep%2 == 1
		tr := (*tracer)(nil)
		if traced {
			tr = r.tr
		}
		var mu sync.Mutex
		var done []float64
		start := time.Now()
		eng := r.engine(sweep.OnProgress(func(sweep.Progress) {
			mu.Lock()
			done = append(done, ms(time.Since(start)))
			mu.Unlock()
		}))
		o.Engine = eng
		runtime.GC() // the previous repetition's garbage is not this one's cost
		if traced {
			if err := cpu.start(); err != nil {
				return err
			}
		}
		a0 := readRuntime()
		sp := tr.begin("experiments.RunArtefacts", nil, fmt.Sprintf("rep-%d", rep))
		start = time.Now()
		h := sha256.New()
		_, err := experiments.RunArtefacts(h, o, experiments.Spec{}, experiments.AllArtefacts(), false)
		wall := time.Since(start)
		sp.end()
		a1 := readRuntime()
		if traced {
			if err := cpu.stop(); err != nil {
				return err
			}
		}
		if err != nil {
			return fmt.Errorf("paper campaign: %w", err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		r.t.check(got == paperDigest, fmt.Sprintf("paper campaign stdout digest %s, want %s", got, paperDigest))
		st := eng.Stats()
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			addStats(&agg, st)
			inflight = append(inflight, st.SimTime.Seconds()/wall.Seconds())
			writeAlloc += float64(a1.allocBytes - a0.allocBytes)
			writePts += float64(st.Points)
		} else {
			untracedWalls = append(untracedWalls, wall.Seconds())
			walls = append(walls, wall.Seconds())
			runsPS = append(runsPS, float64(st.Ran)/wall.Seconds())
			ratePS = append(ratePS, float64(st.Points)/wall.Seconds())
			ttr = append(ttr, done...)
		}

		// All-hit replays on the warm engine: only planning, fingerprinting
		// and rendering remain.
		for i := 0; i < replaysPerRep; i++ {
			before := eng.Stats().Points
			b0 := readRuntime()
			sp := tr.begin("experiments.replay", nil, fmt.Sprintf("rep-%d", rep))
			t := time.Now()
			h := sha256.New()
			_, err := experiments.RunArtefacts(h, o, experiments.Spec{}, experiments.AllArtefacts(), false)
			d := time.Since(t)
			sp.end()
			b1 := readRuntime()
			if err != nil {
				return fmt.Errorf("paper replay: %w", err)
			}
			r.t.check(hex.EncodeToString(h.Sum(nil)) == paperDigest, "paper replay stdout digest differs")
			n := float64(eng.Stats().Points - before)
			if traced {
				replayMS = append(replayMS, ms(d))
				readAlloc += float64(b1.allocBytes - b0.allocBytes)
				readPts += n
			} else {
				hitsPS = append(hitsPS, n/d.Seconds())
			}
		}
		warm = eng
	}

	o.Engine = warm
	if err := r.checkCounts(ctx, warm, o, defaultCounts); err != nil {
		return err
	}
	if !r.traced {
		perr, err := paperErr(warm, o)
		if err != nil {
			return err
		}
		p50, tl := median(ttr), tailPercentile(ttr)
		r.set("wall_s", "s", median(walls))
		r.set("runs_per_s", "1/s", median(runsPS))
		r.set("hits_per_s", "1/s", median(hitsPS))
		r.set("max_rate_per_s", "1/s", median(ratePS))
		r.set("latency_p50_ms", "ms", p50)
		r.set("latency_p99_ms", "ms", tl.Value)
		r.set("paper_err_pp", "pp", perr)
		r.note("latency is each simulation's time to result from campaign start; tail is p%.2f of n=%d", 100*tl.Q, tl.N)
		r.note("max_rate_per_s is points resolved per second: the campaign is a closed loop, so it offers exactly what the engine absorbs")
		return nil
	}

	r.setCPU(cpu)
	r.setSweep(agg, float64(cpu.n), median(inflight))
	r.set("experiments.replay_ms", "ms", median(replayMS))
	r.set("runtime.write_alloc_kb_per_point", "KB", writeAlloc/1024/writePts)
	r.set("runtime.read_alloc_kb_per_point", "KB", readAlloc/1024/readPts)
	r.set("trace.overhead_pct", "%", 100*(median(tracedWalls)/median(untracedWalls)-1))
	// Concurrent artefacts oversubscribe the workers, so wall x workers
	// undercounts a point's time in a worker; the engine's own simulation
	// time per run is the busy time here.
	if err := r.probeLayers(ctx, warm, figurePoints(o), us(agg.SimTime)/float64(agg.Ran)); err != nil {
		return err
	}
	return r.probeService(ctx, warm, figurePoints(o))
}

// addStats sums engine counters across repetitions.
func addStats(a *sweep.Stats, s sweep.Stats) {
	a.Points += s.Points
	a.Ran += s.Ran
	a.CacheHits += s.CacheHits
	a.Failed += s.Failed
	a.Retried += s.Retried
	a.ArenaReuses += s.ArenaReuses
	a.FreshBuilds += s.FreshBuilds
	a.SimTime += s.SimTime
	if s.WorstRun > a.WorstRun {
		a.WorstRun, a.WorstKey = s.WorstRun, s.WorstKey
	}
}

// setSweep reports the engine counters of the traced repetitions, per
// repetition where they are counts.
func (r *run) setSweep(s sweep.Stats, reps, inflight float64) {
	r.set("sweep.inflight_mean", "count", inflight)
	r.set("sweep.hit_ratio", "frac", float64(s.CacheHits)/float64(s.Points))
	r.set("sweep.worst_run_ms", "ms", ms(s.WorstRun))
	r.set("sweep.failed", "count", float64(s.Failed)/reps)
	r.set("sweep.retried", "count", float64(s.Retried)/reps)
	r.set("sweep.fresh_builds", "count", float64(s.FreshBuilds)/reps)
	r.set("sweep.reuse_rate", "frac", s.ReuseRate())
}

// cpuLayers are the layers the CPU fold reports; any other repo package
// is summed into other.cpu_s.
var cpuLayers = []string{
	"pipeline", "branch", "cache", "power", "core", "prefetch", "bus", "mem",
	"workload", "sim", "sweep", "experiments", "campaign", "apiv1", "report", "rng",
	"isa", "failpoint", "runtime",
}

// setCPU reports the folded CPU profile, per traced repetition. The
// layers plus other add up to cpu.total_s; the fold is checked for that.
func (r *run) setCPU(w cpuWindows) {
	f, reps := w.f, float64(w.n)
	known := map[string]bool{}
	var sum, other int64
	for _, l := range cpuLayers {
		known[l] = true
		r.set(l+".cpu_s", "s", float64(f.ByLayer[l])/1e9/reps)
	}
	for l, v := range f.ByLayer {
		sum += v
		if !known[l] {
			other += v
		}
	}
	r.set("other.cpu_s", "s", float64(other)/1e9/reps)
	r.set("cpu.total_s", "s", float64(f.TotalNS)/1e9/reps)
	r.set("runtime.gc_cpu_frac", "frac", w.gc/w.total)
	r.t.check(sum == f.TotalNS && f.TotalNS > 0,
		fmt.Sprintf("cpu fold sums to %d ns, profile total %d ns", sum, f.TotalNS))
}
