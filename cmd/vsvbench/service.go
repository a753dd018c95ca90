package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/apiv1"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Service requests are small: raw single-point jobs at half the golden
// gate's windows, and Figure 4 jobs on two benchmarks at twice them. A
// first-time Figure 4 job is the heaviest job and sets the tail; at these
// windows its latency is mostly simulation, not scheduling jitter.
const (
	svcWarmup   = 2000
	svcMeasure  = 10000
	fig4Measure = 40000
	fig4Share   = 5 // every fig4Share-th pool request is a Figure 4 job
	fastPolls   = 8 // polls sent back to back before sleeping between them
	// maxOutstanding bounds the jobs the generator has in flight. A job due
	// while the window is full fails at once: past that point the service
	// is not keeping up, and an unbounded backlog of waiting clients would
	// only measure how much memory the generator can pile up.
	maxOutstanding = 256
	pollEvery      = time.Millisecond
	jobDeadline    = 60 * time.Second
)

// request is one distinct job of a pool.
type request struct {
	id  string
	req apiv1.JobRequest
}

// servicePool returns n distinct requests drawn from seed. One in
// fig4Share is a Figure 4 job on a benchmark pair (6 points); the pairs
// are fixed (the i-th and i-th-from-last benchmark, so every pair costs
// about the same) and each reuse of a pair warms up one instruction
// longer, so no two requests share a point. The rest are single VSV
// points cycling through the benchmarks on a random nonzero workload seed
// (the figures use seed 0, so raw points share nothing with them). The
// seed changes the instruction streams, not the mix of benchmarks, so a
// session's cost is the same for every seed.
func servicePool(seed uint64, n int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	names := workload.Names()
	vsv := sim.BenchConfig().WithVSV(core.PolicyFSM())
	vsv.WarmupInstructions, vsv.MeasureInstructions = svcWarmup, svcMeasure
	pairs := len(names) / 2
	pool := make([]request, n)
	figs, raws := 0, 0
	for i := range pool {
		if i%fig4Share == 0 {
			p := figs % pairs
			pool[i] = request{id: fmt.Sprintf("fig4-%d", i), req: apiv1.JobRequest{
				V:                   1,
				Artefacts:           []string{"fig4"},
				Benchmarks:          []string{names[p], names[len(names)-1-p]},
				WarmupInstructions:  svcWarmup + uint64(figs/pairs),
				MeasureInstructions: fig4Measure,
			}}
			figs++
			continue
		}
		b := names[raws%len(names)]
		raws++
		pool[i] = request{id: fmt.Sprintf("pt-%d", i), req: apiv1.JobRequest{
			V:      1,
			Points: []apiv1.Point{{Key: "p", Benchmark: b, Seed: rng.Uint64() | 1, Config: vsv}},
		}}
	}
	return pool
}

// slot is job j's place in a session's fixed pattern (period 100): a
// first-time Figure 4 job every 50th job, a first-time raw point every
// 4th otherwise, a repeated Figure 4 job every 10th (offset 5) and a
// repeated raw point for the rest. About one job in four simulates; the
// first-time Figure 4 jobs, the heaviest, are 2% of jobs, so the p99
// falls in the middle of their latencies rather than on one of their
// outliers.
func slot(j int) (fig4, first bool) {
	switch {
	case j%50 == 0:
		return true, true
	case j%4 == 0:
		return false, true
	case j%10 == 5:
		return true, false
	}
	return false, false
}

// schedule lays out a session of n jobs over a pool whose every
// fig4Share-th request is a Figure 4 job, following slot: heavy jobs
// arrive at the same moments for every seed and the session simulates
// and hits exactly as many points. First-time requests take the pool's
// requests of their kind in order and simulate; repeats (memo hits) draw
// among the requests of their kind issued so far with Zipf(1) popularity,
// the earliest the most popular. The seed picks the repeats; the pool's
// seed picked the raw points.
func schedule(seed uint64, n, poolLen int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed))
	nth := [2]func(i int) int{
		func(i int) int { return i * fig4Share },           // Figure 4 requests
		func(i int) int { return i + i/(fig4Share-1) + 1 }, // raw points
	}
	var used [2]int
	var issued [2][]int
	var cum [2][]float64
	jobs := make([]int, n)
	for j := range jobs {
		fig4, first := slot(j)
		kind := 1
		if fig4 {
			kind = 0
		}
		if !first && len(issued[kind]) == 0 {
			first = true
		}
		if first {
			k := nth[kind](used[kind]) % poolLen
			used[kind]++
			issued[kind] = append(issued[kind], k)
			w := 1 / float64(len(issued[kind]))
			if c := cum[kind]; len(c) > 0 {
				w += c[len(c)-1]
			}
			cum[kind] = append(cum[kind], w)
			jobs[j] = k
			continue
		}
		c := cum[kind]
		x := rng.Float64() * c[len(c)-1]
		r := sort.SearchFloat64s(c, x)
		jobs[j] = issued[kind][min(r, len(c)-1)]
	}
	return jobs
}

// server is a campaign service behind a loopback HTTP server, with a
// client limited to nproc connections.
type server struct {
	srv    *campaign.Server
	hs     *httptest.Server
	jr     *campaign.Journal
	eng    *sweep.Engine
	client *http.Client
}

// openServer starts the service on eng with an fsync-per-record journal
// in dir and a bounded record of finished jobs.
func (r *run) openServer(eng *sweep.Engine, dir string) (*server, error) {
	jr, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	srv := campaign.New(campaign.Config{
		Engine: eng,
		Options: experiments.Options{
			WarmupInstructions:  svcWarmup,
			MeasureInstructions: svcMeasure,
			Parallelism:         r.nproc,
		},
		MaxQueue:      64,
		MaxConcurrent: r.nproc,
		MaxDoneJobs:   256,
		Journal:       jr,
	})
	return &server{
		srv: srv,
		hs:  httptest.NewServer(srv),
		jr:  jr,
		eng: eng,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     r.nproc,
			MaxIdleConnsPerHost: r.nproc,
		}},
	}, nil
}

func (s *server) close() error {
	s.client.CloseIdleConnections()
	s.hs.Close()
	s.srv.Close()
	return s.jr.Close()
}

// outcome is one job of a session.
type outcome struct {
	arrival
	pool      int
	status    apiv1.JobStatus
	body      []byte
	polls     int
	submit    time.Duration
	fetch     time.Duration
	rejected  bool
	mismatch  bool
	problem   string
	submitted bool
}

// drive runs an open-loop session: job i is due at due[i] regardless of
// how earlier jobs fare, and its latency runs from that due time to its
// artefacts received. Completion is detected by polling job status.
func (s *server) drive(ctx context.Context, tr *tracer, pool []request, jobs []int, due []time.Duration) []outcome {
	bodies := make([][]byte, len(pool))
	for i, rq := range pool {
		b, err := json.Marshal(rq.req)
		if err != nil {
			panic(err) // the pool is built from marshalable types
		}
		bodies[i] = b
	}
	out := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	window := make(chan struct{}, maxOutstanding)
	t0 := time.Now()
	for i, k := range jobs {
		if d := due[i] - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		o := &out[i]
		o.pool, o.Due = k, due[i]
		select {
		case window <- struct{}{}:
		default:
			o.Sent, o.Done = time.Since(t0), time.Since(t0)
			o.problem = "load generator saturated: too many jobs outstanding"
			continue
		}
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			defer func() { <-window }()
			o.Sent = time.Since(t0)
			s.job(ctx, tr, o, fmt.Sprintf("job-%d", i), bodies[k])
			o.Done = time.Since(t0)
			o.OK = o.problem == ""
		}(i, k)
	}
	wg.Wait()
	return out
}

// job submits one request, polls it to a terminal state and fetches its
// artefacts, recording spans around each call.
func (s *server) job(ctx context.Context, tr *tracer, o *outcome, req string, body []byte) {
	ctx, cancel := context.WithTimeout(ctx, jobDeadline)
	defer cancel()
	root := tr.begin("loadgen.job", nil, req)
	defer root.end()

	sp := tr.begin("campaign.submit", root, req)
	t := time.Now()
	var created apiv1.JobCreated
	code, err := s.call(ctx, http.MethodPost, "/v1/jobs", body, &created)
	o.submit = time.Since(t)
	sp.end()
	switch {
	case err != nil:
		o.problem = "submit: " + err.Error()
		return
	case code == http.StatusTooManyRequests:
		o.rejected, o.problem = true, "submit refused: queue full"
		return
	case code != http.StatusAccepted:
		o.problem = fmt.Sprintf("submit: HTTP %d", code)
		return
	}
	o.submitted = true
	for {
		sp := tr.begin("campaign.poll", root, req)
		code, err := s.call(ctx, http.MethodGet, "/v1/jobs/"+created.ID, nil, &o.status)
		sp.end()
		o.polls++
		if err != nil || code != http.StatusOK {
			o.problem = fmt.Sprintf("poll %s: HTTP %d %v", created.ID, code, err)
			return
		}
		if o.status.State.Terminal() {
			break
		}
		if o.polls <= fastPolls {
			// A memo hit finishes within a few round trips; the timer's
			// millisecond granularity would quantize its latency.
			continue
		}
		select {
		case <-ctx.Done():
			o.problem = "poll: " + ctx.Err().Error()
			return
		case <-time.After(pollEvery):
		}
	}
	if o.status.State != apiv1.StateDone {
		o.problem = fmt.Sprintf("job %s ended %s: %v", created.ID, o.status.State, o.status.Error)
		return
	}
	sp = tr.begin("campaign.fetch", root, req)
	t = time.Now()
	code, err = s.call(ctx, http.MethodGet, "/v1/jobs/"+created.ID+"/artefacts", nil, &o.body)
	o.fetch = time.Since(t)
	sp.end()
	if err != nil || code != http.StatusOK {
		o.problem = fmt.Sprintf("fetch %s: HTTP %d %v", created.ID, code, err)
	}
}

// call makes one request. A *[]byte out receives the raw body; any other
// out is JSON-decoded from a 2xx body.
func (s *server) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.hs.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = b
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// expected renders a request in process on eng, as the server would: the
// artefact text and each raw point's results in wire form.
func expected(ctx context.Context, eng *sweep.Engine, rq apiv1.JobRequest) (string, [][]byte, error) {
	var text strings.Builder
	if len(rq.Artefacts) > 0 {
		arts, err := experiments.Artefacts(rq.Artefacts...)
		if err != nil {
			return "", nil, err
		}
		o := experiments.Options{
			WarmupInstructions:  rq.WarmupInstructions,
			MeasureInstructions: rq.MeasureInstructions,
			Engine:              eng,
			Context:             ctx,
		}
		if _, err := experiments.RunArtefacts(&text, o, experiments.Spec{Benchmarks: rq.Benchmarks}, arts, false); err != nil {
			return "", nil, err
		}
	}
	var pts [][]byte
	if len(rq.Points) > 0 {
		sp := make([]sweep.Point, len(rq.Points))
		for i, p := range rq.Points {
			sp[i] = sweep.Point{Key: p.Key, Benchmark: p.Benchmark, Seed: p.Seed, Config: p.Config}
		}
		res, err := eng.Run(ctx, sp)
		if err != nil {
			return "", nil, err
		}
		for _, r := range res {
			b, err := json.Marshal(apiv1.FromResults(r))
			if err != nil {
				return "", nil, err
			}
			pts = append(pts, b)
		}
	}
	return text.String(), pts, nil
}

// verify checks every completed job's artefacts byte for byte against a
// direct in-process run of the same request on the server's (warm)
// engine, marking mismatches failed. It returns the in-process replay's
// wall time.
func (s *server) verify(ctx context.Context, tr *tracer, pool []request, out []outcome) (time.Duration, error) {
	type want struct {
		text string
		pts  [][]byte
	}
	wants := map[int]want{}
	var replay time.Duration
	for i := range out {
		o := &out[i]
		if !o.OK {
			continue
		}
		w, ok := wants[o.pool]
		if !ok {
			sp := tr.begin("experiments.replay", nil, pool[o.pool].id)
			t := time.Now()
			text, pts, err := expected(ctx, s.eng, pool[o.pool].req)
			replay += time.Since(t)
			sp.end()
			if err != nil {
				return replay, fmt.Errorf("in-process %s: %w", pool[o.pool].id, err)
			}
			w = want{text, pts}
			wants[o.pool] = w
		}
		if p := compareArtefacts(o.body, w.text, w.pts); p != "" {
			o.OK, o.mismatch, o.problem = false, true, pool[o.pool].id+": "+p
		}
	}
	return replay, nil
}

// compareArtefacts checks a served artefacts response against the
// in-process rendering; it returns "" on a byte-exact match.
func compareArtefacts(body []byte, text string, pts [][]byte) string {
	var got apiv1.ArtefactsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return "artefacts: " + err.Error()
	}
	var b strings.Builder
	for _, a := range got.Artefacts {
		b.WriteString(a.Text)
	}
	if b.String() != text {
		return "artefact text differs from the in-process run"
	}
	if len(got.Points) != len(pts) {
		return fmt.Sprintf("%d points served, %d expected", len(got.Points), len(pts))
	}
	for i, p := range got.Points {
		if p.Error != nil || p.Res == nil {
			return fmt.Sprintf("point %d failed: %v", i, p.Error)
		}
		gb, err := json.Marshal(*p.Res)
		if err != nil || !bytes.Equal(gb, pts[i]) {
			return fmt.Sprintf("point %d results differ from the in-process run", i)
		}
	}
	return ""
}

// sessionStats is what one driven session yields.
type sessionStats struct {
	load    loadSummary
	out     []outcome
	eng     sweep.Stats // the session's share of the engine counters
	growing bool
	// replay is the in-process re-rendering of every distinct answered
	// request on the warm engine (the output check); the alloc counts are
	// heap bytes allocated while driving the jobs and while replaying.
	replay                  time.Duration
	driveAlloc, replayAlloc uint64
}

// session runs one open-loop session of jobs at rate on a fresh server
// over eng and verifies every answer. Failed jobs are tallied into t; a
// nil t tallies only wrong answers into the run (a ladder rung past the
// service's capacity refuses jobs by design).
func (r *run) session(ctx context.Context, eng *sweep.Engine, tr *tracer, pool []request, jobs []int, rate float64, t *tally) (sessionStats, error) {
	dir, err := r.scratchDir("service")
	if err != nil {
		return sessionStats{}, err
	}
	runtime.GC() // earlier work's garbage is not this session's cost
	s, err := r.openServer(eng, dir)
	if err != nil {
		return sessionStats{}, err
	}
	before := eng.Stats()
	a0 := readRuntime()
	out := s.drive(ctx, tr, pool, jobs, uniformSchedule(len(jobs), rate))
	a1 := readRuntime()
	after := eng.Stats()
	replay, verr := s.verify(ctx, tr, pool, out)
	a2 := readRuntime()
	if cerr := s.close(); verr == nil {
		verr = cerr
	}
	if verr != nil {
		return sessionStats{}, verr
	}
	st := sessionStats{
		out:         out,
		growing:     backlogGrowing(arrivals(out)),
		replay:      replay,
		driveAlloc:  a1.allocBytes - a0.allocBytes,
		replayAlloc: a2.allocBytes - a1.allocBytes,
		load:        summarizeLoad(arrivals(out)),
	}
	st.eng = after
	subStats(&st.eng, before)
	for _, o := range out {
		switch {
		case t != nil:
			t.check(o.OK, o.problem)
		case o.mismatch:
			r.t.fail(o.problem)
		case o.OK:
			r.t.ok(1)
		}
	}
	return st, nil
}

// subStats turns lifetime engine counters into a session's share.
func subStats(a *sweep.Stats, before sweep.Stats) {
	a.Points -= before.Points
	a.Ran -= before.Ran
	a.CacheHits -= before.CacheHits
	a.Failed -= before.Failed
	a.Retried -= before.Retried
	a.ArenaReuses -= before.ArenaReuses
	a.FreshBuilds -= before.FreshBuilds
	a.SimTime -= before.SimTime
}

func arrivals(out []outcome) []arrival {
	a := make([]arrival, len(out))
	for i, o := range out {
		a[i] = o.arrival
	}
	return a
}

// rateOf is the completed-job rate a session achieved.
func rateOf(st sessionStats) float64 {
	if st.load.Span <= 0 {
		return math.NaN()
	}
	return float64(len(st.load.Latency)) / st.load.Span.Seconds()
}
