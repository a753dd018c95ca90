package main

import (
	"context"
	"math"
	"time"

	"repro/internal/sweep"
)

// The service load: an open loop at fixed rates, sized for a 2-vCPU host.
// nominalRate is the rate latency is reported at; ladder holds the rates
// tried, in order, for max_rate_per_s. A rung passes when no job fails,
// the tail latency stays under p99LimitMS, the generator keeps to its
// schedule and the backlog does not grow.
var ladder = []float64{100, 300, 600, 1600}

const (
	nominalRate = 100
	p99LimitMS  = 250
	lateLimitMS = 50
	poolSize    = 1024
)

// serviceWorkload drives the campaign service: a journal (fsync on), a
// bounded record of finished jobs, nproc job slots on an nproc-worker
// engine, behind a loopback HTTP server.
func serviceWorkload(ctx context.Context, r *run) error {
	pool := servicePool(r.seed, poolSize)
	golden, err := timeSetups(r, 5, func() (*sweep.Engine, error) {
		eng, err := r.golden()
		if err != nil {
			return nil, err
		}
		// Start a server and answer one job, as a fresh deployment would.
		_, err = r.session(ctx, r.engine(), nil, pool, []int{1}, 1, &r.t)
		return eng, err
	})
	if err != nil {
		return err
	}
	o := r.shortOptions(golden)
	if err := r.checkCounts(ctx, golden, o, shortCounts); err != nil {
		return err
	}
	jobsAt := func(rate float64, d time.Duration, salt uint64) []int {
		return schedule(r.seed+salt, int(rate*d.Seconds()), len(pool))
	}

	if r.traced {
		return serviceTraced(ctx, r, pool, jobsAt)
	}

	// Nominal rate first, then the ladder above it, each on a fresh
	// engine (cold memo) so every rung serves the same mix.
	nominalDur := r.seconds * 60 / 100
	nom, err := r.session(ctx, r.engine(), nil, pool, jobsAt(nominalRate, nominalDur, 0), nominalRate, &r.t)
	if err != nil {
		return err
	}
	// Peak memory as of the nominal session: an overloaded rung's backlog
	// would otherwise set it, and how far an overload backs up is the
	// ladder's measurement, not a steady number.
	r.set("peak_rss_mb", "MB", peakRSSMB())
	best := math.NaN()
	if passes(nom) {
		best = rateOf(nom)
	} else {
		r.note("the nominal rate %v/s misses the p99 limit; max_rate_per_s is its achieved rate", nominalRate)
	}
	rungDur := (r.seconds - nominalDur) / time.Duration(len(ladder)-1)
	for i, rate := range ladder[1:] {
		if math.IsNaN(best) {
			break
		}
		st, err := r.session(ctx, r.engine(), nil, pool, jobsAt(rate, rungDur, uint64(i+1)), rate, nil)
		if err != nil {
			return err
		}
		tl := tailPercentile(st.load.Latency)
		r.note("rung %v/s: %d jobs, %d failed, tail p%.1f %.1f ms, growing=%v", rate, len(st.out),
			st.load.Failed, 100*tl.Q, tl.Value, st.growing)
		if !passes(st) {
			break
		}
		best = rateOf(st)
	}
	if math.IsNaN(best) {
		best = rateOf(nom)
	}

	perr, err := paperErr(golden, o)
	if err != nil {
		return err
	}
	span := nom.load.Span.Seconds()
	tl := tailPercentile(nom.load.Latency)
	r.set("wall_s", "s", span)
	r.set("runs_per_s", "1/s", float64(nom.eng.Ran)/span)
	r.set("hits_per_s", "1/s", float64(nom.eng.CacheHits)/span)
	r.set("latency_p50_ms", "ms", median(nom.load.Latency))
	r.set("latency_p99_ms", "ms", tl.Value)
	r.set("max_rate_per_s", "1/s", best)
	r.set("paper_err_pp", "pp", perr)
	r.note("nominal %v/s: %d jobs; latency due-to-artefacts tail p%.2f of n=%d; wall_s is the session span",
		nominalRate, len(nom.out), 100*tl.Q, tl.N)
	return nil
}

// passes applies the ladder's rule to one session.
func passes(st sessionStats) bool {
	tl, late := tailPercentile(st.load.Latency), tailPercentile(st.load.Late)
	return st.load.Failed == 0 && tl.OK && tl.Value <= p99LimitMS &&
		late.Value <= lateLimitMS && !st.growing
}

// serviceTraced alternates untraced and traced nominal-rate sessions: the
// traced ones give the per-layer numbers, the pair gives the tracing
// overhead (on the median job latency: an open loop's wall time is its
// schedule).
func serviceTraced(ctx context.Context, r *run, pool []request, jobsAt func(float64, time.Duration, uint64) []int) error {
	var cpu cpuWindows
	var traced []sessionStats
	var tracedP50, untracedP50, inflight, replayMS []float64
	var agg sweep.Stats
	var driveAlloc, replayAlloc, jobs float64
	var last *sweep.Engine
	dur := r.seconds / 4
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		tr := (*tracer)(nil)
		if on {
			tr = r.tr
			if err := cpu.start(); err != nil {
				return err
			}
		}
		eng := r.engine()
		st, err := r.session(ctx, eng, tr, pool, jobsAt(nominalRate, dur, 0), nominalRate, &r.t)
		if on {
			if cerr := cpu.stop(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		if !on {
			untracedP50 = append(untracedP50, median(st.load.Latency))
			continue
		}
		tracedP50 = append(tracedP50, median(st.load.Latency))
		traced = append(traced, st)
		addStats(&agg, st.eng)
		inflight = append(inflight, st.eng.SimTime.Seconds()/st.load.Span.Seconds())
		replayMS = append(replayMS, ms(st.replay))
		driveAlloc += float64(st.driveAlloc)
		replayAlloc += float64(st.replayAlloc)
		jobs += float64(len(st.out))
		last = eng
	}
	r.setCPU(cpu)
	r.setSweep(agg, float64(cpu.n), median(inflight))
	r.setCampaign(traced)
	r.set("experiments.replay_ms", "ms", median(replayMS))
	r.set("runtime.write_alloc_kb_per_point", "KB", driveAlloc/1024/jobs)
	r.set("runtime.read_alloc_kb_per_point", "KB", replayAlloc/1024/jobs)
	r.set("trace.overhead_pct", "%", 100*(median(tracedP50)/median(untracedP50)-1))

	var pts []sweep.Point
	seen := map[int]bool{}
	for _, o := range traced[len(traced)-1].out {
		if seen[o.pool] {
			continue
		}
		seen[o.pool] = true
		for _, p := range pool[o.pool].req.Points {
			pts = append(pts, sweep.Point{Key: pool[o.pool].id, Benchmark: p.Benchmark, Seed: p.Seed, Config: p.Config})
		}
	}
	busy := us(agg.SimTime) / float64(agg.Ran)
	return r.probeLayers(ctx, last, pts, busy)
}
