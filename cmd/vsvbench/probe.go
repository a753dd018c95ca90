package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/apiv1"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Layer replays: in a traced run the benchmark calls each layer's public
// functions directly on a sample of the workload's own points, timing
// every call with a span. The campaign hides these calls inside its
// workers; replaying them one at a time attributes a run's cost to them.
const (
	probeSample = 24              // points replayed through build/reset/run/ledger/codec
	probeBudget = 3 * time.Second // cap on the simulate replays at long windows
	maxFPProbe  = 4000            // points fingerprinted
)

// probeLayers replays the layer calls on pts (which eng has already run,
// so their results are memo hits) and reports the per-call medians.
// busyUS is the workload's measured worker-busy time per executed point,
// from which sweep.overhead_us subtracts the replayed reset, run and
// ledger costs.
func (r *run) probeLayers(ctx context.Context, eng *sweep.Engine, pts []sweep.Point, busyUS float64) error {
	tr := r.tr
	fps := map[string]string{}
	for i, p := range pts {
		if i == maxFPProbe {
			break
		}
		sp := tr.begin("sweep.Point.Fingerprint", nil, p.Key)
		fp, err := p.Fingerprint()
		sp.end()
		if err != nil {
			return fmt.Errorf("fingerprint %s: %w", p.Key, err)
		}
		fps[p.Key] = fp
	}

	sample := strided(pts, probeSample)
	res, err := eng.Run(ctx, sample)
	if err != nil {
		return fmt.Errorf("probe sample: %w", err)
	}

	// Build, reset and run, checking each replayed run against the
	// engine's answer for the same point.
	var m *sim.Machine
	t0 := time.Now()
	for i, p := range sample {
		if i > 1 && time.Since(t0) > probeBudget {
			break
		}
		opts := []sim.Option{sim.WithConfig(p.Config), sim.WithSeed(p.Seed)}
		sp := tr.begin("sim.NewBench", nil, p.Key)
		fresh, err := sim.NewBench(p.Benchmark, opts...)
		sp.end()
		if err != nil {
			return fmt.Errorf("build %s: %w", p.Key, err)
		}
		if m == nil {
			m = fresh
		}
		sp = tr.begin("sim.Machine.ResetBench", nil, p.Key)
		err = m.ResetBench(p.Benchmark, opts...)
		sp.end()
		if err != nil {
			return fmt.Errorf("reset %s: %w", p.Key, err)
		}
		sp = tr.begin("sim.Machine.Run", nil, p.Key)
		got := m.Run(p.Benchmark)
		sp.end()
		r.t.check(reflect.DeepEqual(got, res[i]),
			fmt.Sprintf("replayed run of %s differs from the engine's result", p.Key))
	}

	dir, err := r.scratchDir("probe")
	if err != nil {
		return err
	}
	led, err := sweep.OpenLedger(filepath.Join(dir, "ledger.jsonl"), sweep.LedgerWorker("probe"))
	if err != nil {
		return fmt.Errorf("open ledger: %w", err)
	}
	jr, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		_ = led.Close()
		return fmt.Errorf("open journal: %w", err)
	}
	for i, p := range sample {
		fp := fps[p.Key]
		if fp == "" {
			if fp, err = p.Fingerprint(); err != nil {
				break
			}
		}
		sp := tr.begin("sweep.Ledger.TryClaim+Complete", nil, p.Key)
		won, _, cerr := led.TryClaim(fp, p.Key)
		if cerr == nil && won {
			cerr = led.Complete(fp, p.Key, res[i])
		}
		sp.end()
		if err = cerr; err != nil {
			break
		}
		r.t.check(won, "probe ledger: claim on a fresh ledger lost")

		req := apiv1.JobRequest{V: 1, Points: []apiv1.Point{{Key: p.Key, Benchmark: p.Benchmark, Seed: p.Seed, Config: p.Config}}}
		sp = tr.begin("apiv1.encode", nil, p.Key)
		_, err = apiv1.EncodeCheckpointRecord(fp, p.Key, res[i])
		if err == nil {
			_, err = json.Marshal(req)
		}
		sp.end()
		if err != nil {
			break
		}

		id := fmt.Sprintf("probe-%d", i)
		sp = tr.begin("campaign.Journal.Submit+Record", nil, id)
		err = jr.Submit(id, &req)
		if err == nil {
			err = jr.Record(id, apiv1.StateDone, nil)
		}
		sp.end()
		if err != nil {
			break
		}
	}
	lerr, jerr := led.Close(), jr.Close()
	for _, e := range []error{err, lerr, jerr} {
		if e != nil {
			return fmt.Errorf("layer probe: %w", e)
		}
	}

	d := tr.durations()
	med := func(name string, unit func(time.Duration) float64) float64 {
		var xs []float64
		for _, x := range d[name] {
			xs = append(xs, unit(x))
		}
		return median(xs)
	}
	mean := func(name string) float64 {
		var sum time.Duration
		for _, x := range d[name] {
			sum += x
		}
		return us(sum) / float64(len(d[name]))
	}
	r.set("sweep.fingerprint_us", "us", med("sweep.Point.Fingerprint", us))
	r.set("sim.build_ms", "ms", med("sim.NewBench", ms))
	r.set("sim.reset_us", "us", med("sim.Machine.ResetBench", us))
	r.set("sim.run_us", "us", med("sim.Machine.Run", us))
	r.set("sweep.ledger_us", "us", med("sweep.Ledger.TryClaim+Complete", us))
	r.set("apiv1.encode_us", "us", med("apiv1.encode", us))
	r.set("campaign.journal_us", "us", med("campaign.Journal.Submit+Record", us))
	r.set("sweep.overhead_us", "us", busyUS-mean("sim.Machine.ResetBench")-
		mean("sim.Machine.Run")-mean("sweep.Ledger.TryClaim+Complete"))
	return nil
}

// strided picks up to n points spread evenly over pts.
func strided(pts []sweep.Point, n int) []sweep.Point {
	if len(pts) <= n {
		return pts
	}
	out := make([]sweep.Point, n)
	for i := range out {
		out[i] = pts[i*len(pts)/n]
	}
	return out
}

// probeService drives a short open-loop session of single-point jobs
// built from pts against a campaign server on the warm engine eng, so a
// batch workload's traced run reports the service layer's per-call costs
// on its own inputs (every job is a memo hit).
func (r *run) probeService(ctx context.Context, eng *sweep.Engine, pts []sweep.Point) error {
	sample := strided(pts, 16)
	pool := make([]request, len(sample))
	for i, p := range sample {
		pool[i] = request{id: p.Key, req: apiv1.JobRequest{V: 1,
			Points: []apiv1.Point{{Key: p.Key, Benchmark: p.Benchmark, Seed: p.Seed, Config: p.Config}}}}
	}
	jobs := schedule(r.seed, 48, len(pool))
	st, err := r.session(ctx, eng, r.tr, pool, jobs, 48, &r.t)
	if err != nil {
		return err
	}
	r.setCampaign([]sessionStats{st})
	return nil
}

// setCampaign reports the service layer's per-job costs over sessions.
func (r *run) setCampaign(sessions []sessionStats) {
	var submit, fetch, wait, runMS, late []float64
	var polls, jobs, rejected float64
	for _, st := range sessions {
		for _, o := range st.out {
			if o.rejected {
				rejected++
			}
			if !o.submitted {
				continue
			}
			jobs++
			polls += float64(o.polls)
			submit = append(submit, ms(o.submit))
			if o.fetch > 0 {
				fetch = append(fetch, ms(o.fetch))
			}
			s := o.status
			if s.StartedAt != nil && s.FinishedAt != nil {
				wait = append(wait, ms(s.StartedAt.Sub(s.CreatedAt)))
				runMS = append(runMS, ms(s.FinishedAt.Sub(*s.StartedAt)))
			}
		}
		late = append(late, st.load.Late...)
	}
	r.set("campaign.submit_ms", "ms", median(submit))
	r.set("campaign.fetch_ms", "ms", median(fetch))
	r.set("campaign.queue_wait_ms", "ms", median(wait))
	r.set("campaign.run_ms", "ms", median(runMS))
	r.set("campaign.rejected", "count", rejected/float64(len(sessions)))
	r.set("campaign.polls_per_job", "count", polls/jobs)
	r.set("loadgen.late_p99_ms", "ms", tailPercentile(late).Value)
}
