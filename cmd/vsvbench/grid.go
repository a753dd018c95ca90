package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const (
	gridSeeds     = 40  // workload seeds per (benchmark, configuration)
	gridMeasure   = 100 // instructions per point: orchestration, not physics, dominates
	readsPerWrite = 5   // read passes after each write pass (each takes milliseconds)
)

// gridPoints builds the micro grid: every benchmark x base/VSV/VSV+TK x
// gridSeeds workload seeds drawn from seed, no warm-up, no prewarm.
func gridPoints(seed uint64) []sweep.Point {
	rng := rand.New(rand.NewPCG(seed, 0x9e1d))
	micro := func(c sim.Config) sim.Config {
		c.Prewarm = nil
		c.WarmupInstructions, c.MeasureInstructions = 0, gridMeasure
		return c
	}
	base := sim.BenchConfig()
	cfgs := []sim.Config{
		micro(base),
		micro(base.WithVSV(core.PolicyFSM())),
		micro(base.WithVSV(core.PolicyFSM()).WithTimeKeeping()),
	}
	seeds := make([]uint64, gridSeeds)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1
	}
	var pts []sweep.Point
	for _, n := range workload.Names() {
		for ci, c := range cfgs {
			for _, s := range seeds {
				pts = append(pts, sweep.Point{Key: fmt.Sprintf("%s/c%d/%x", n, ci, s), Benchmark: n, Seed: s, Config: c})
			}
		}
	}
	return pts
}

// sweepGrid times the engine's per-point orchestration: a write pass runs
// the grid on a fresh engine with a single-writer ledger, so every point
// executes and is appended; read passes then run the same grid on the
// same engine, so every point is a memo hit.
func sweepGrid(ctx context.Context, r *run) error {
	type state struct {
		golden *sweep.Engine
		pts    []sweep.Point
	}
	st, err := timeSetups(r, 3, func() (state, error) {
		eng, err := r.golden()
		return state{eng, gridPoints(r.seed)}, err
	})
	if err != nil {
		return err
	}
	pts := st.pts
	n := float64(len(pts))

	var walls, runsPS, hitsPS, ratePS, p50s, tails, inflight []float64
	var tl tail
	var tracedWalls, untracedWalls []float64
	var agg sweep.Stats
	var writeAlloc, readAlloc, writePts, readPts float64
	var cpu cpuWindows
	var warm *sweep.Engine
	var busy []float64
	// The last repetition's engine stays warm for the layer replays, so
	// its ledger stays open until the workload returns.
	var led *sweep.Ledger
	defer func() {
		if led != nil {
			_ = led.Close()
		}
	}()
	t0 := time.Now()
	for rep := 0; rep < 3 || time.Since(t0) < r.seconds; rep++ {
		traced := r.traced && rep%2 == 1
		tr := (*tracer)(nil)
		if traced {
			tr = r.tr
		}
		if led != nil {
			if err := led.Close(); err != nil {
				return fmt.Errorf("close ledger: %w", err)
			}
		}
		dir, err := r.scratchDir(fmt.Sprintf("grid-%d", rep))
		if err != nil {
			return err
		}
		led, err = sweep.OpenLedger(filepath.Join(dir, "ledger.jsonl"), sweep.LedgerWorker("bench"))
		if err != nil {
			return fmt.Errorf("open ledger: %w", err)
		}
		var mu sync.Mutex
		var done []float64
		start := time.Now()
		eng := r.engine(sweep.WithLedger(led), sweep.OnProgress(func(sweep.Progress) {
			mu.Lock()
			done = append(done, ms(time.Since(start)))
			mu.Unlock()
		}))
		runtime.GC() // the previous repetition's garbage is not this one's cost
		if traced {
			if err := cpu.start(); err != nil {
				return err
			}
		}
		a0 := readRuntime()
		sp := tr.begin("sweep.Engine.RunAll/write", nil, fmt.Sprintf("rep-%d", rep))
		start = time.Now()
		written, err := eng.RunAll(ctx, pts)
		wall := time.Since(start)
		sp.end()
		a1 := readRuntime()
		if err == nil {
			for _, pr := range written {
				r.t.check(pr.Err == nil, fmt.Sprintf("write pass %s: %v", pr.Key, pr.Err))
			}
		}
		ws := eng.Stats()
		var reads []float64
		for i := 0; i < readsPerWrite && err == nil; i++ {
			b0 := readRuntime()
			sp := tr.begin("sweep.Engine.RunAll/read", nil, fmt.Sprintf("rep-%d", rep))
			t := time.Now()
			var read []sweep.PointResult
			read, err = eng.RunAll(ctx, pts)
			d := time.Since(t)
			sp.end()
			b1 := readRuntime()
			if err != nil {
				break
			}
			reads = append(reads, d.Seconds())
			if traced {
				readAlloc += float64(b1.allocBytes - b0.allocBytes)
				readPts += n
			}
			if i == 0 {
				for j, pr := range read {
					r.t.check(pr.Err == nil && reflect.DeepEqual(pr.Res, written[j].Res),
						fmt.Sprintf("read pass %s differs from the write pass", pr.Key))
				}
			}
		}
		if traced {
			if cerr := cpu.stop(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("grid: %w", err)
		}
		rs := eng.Stats()
		r.t.check(ws.Ran == len(pts) && rs.Ran == ws.Ran,
			fmt.Sprintf("grid: %d points executed in the write pass and %d in all, want %d and %d", ws.Ran, rs.Ran, len(pts), len(pts)))
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			addStats(&agg, rs)
			inflight = append(inflight, ws.SimTime.Seconds()/wall.Seconds())
			busy = append(busy, us(wall)*float64(r.nproc)/n)
			writeAlloc += float64(a1.allocBytes - a0.allocBytes)
			writePts += n
		} else {
			untracedWalls = append(untracedWalls, wall.Seconds())
			walls = append(walls, wall.Seconds())
			runsPS = append(runsPS, n/wall.Seconds())
			for _, d := range reads {
				hitsPS = append(hitsPS, n/d)
			}
			ratePS = append(ratePS, n*float64(1+len(reads))/(wall.Seconds()+sum(reads)))
			// Per pass, then the median over passes: a pass slowed by a
			// burst of host noise moves one sample, not the pooled tail.
			tl = tailPercentile(done)
			p50s = append(p50s, median(done))
			tails = append(tails, tl.Value)
		}
		warm = eng
	}

	o := r.shortOptions(st.golden)
	if err := r.checkCounts(ctx, st.golden, o, shortCounts); err != nil {
		return err
	}
	if !r.traced {
		perr, err := paperErr(st.golden, o)
		if err != nil {
			return err
		}
		r.set("wall_s", "s", median(walls))
		r.set("runs_per_s", "1/s", median(runsPS))
		r.set("hits_per_s", "1/s", median(hitsPS))
		r.set("max_rate_per_s", "1/s", median(ratePS))
		r.set("latency_p50_ms", "ms", median(p50s))
		r.set("latency_p99_ms", "ms", median(tails))
		r.set("paper_err_pp", "pp", perr)
		r.note("grid: %d points; latency is each point's time to result in a write pass, median over %d passes of each pass's p50 and p%.2f (n=%d)",
			len(pts), len(tails), 100*tl.Q, tl.N)
		r.note("paper_err_pp is the golden short campaign's (set-up); max_rate_per_s is points resolved per second over write and read passes")
		return nil
	}
	var replay []float64
	for _, d := range r.tr.durations()["sweep.Engine.RunAll/read"] {
		replay = append(replay, ms(d))
	}
	r.setCPU(cpu)
	r.setSweep(agg, float64(cpu.n), median(inflight))
	r.set("experiments.replay_ms", "ms", median(replay))
	r.set("runtime.write_alloc_kb_per_point", "KB", writeAlloc/1024/writePts)
	r.set("runtime.read_alloc_kb_per_point", "KB", readAlloc/1024/readPts)
	r.set("trace.overhead_pct", "%", 100*(median(tracedWalls)/median(untracedWalls)-1))
	if err := r.probeLayers(ctx, warm, pts, median(busy)); err != nil {
		return err
	}
	return r.probeService(ctx, warm, pts)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
