// Package sweep is the batch simulation engine behind every campaign: it
// takes a set of (benchmark × configuration) points, executes them on a
// bounded worker pool with context cancellation, and memoizes completed
// runs under a stable configuration hash so points repeated across
// experiments (for example the shared baselines of Figures 4–7) are
// simulated exactly once. Results come back in submission order regardless
// of scheduling, so campaign output is byte-identical for any worker count.
//
// Work is scoped in two layers. The Engine owns the shared, contended
// resources — the worker pool, its reusable machine arenas, the
// fingerprint-keyed memo cache and the optional ledger — and
// survives across campaigns. Each worker holds a persistent machine slot,
// so consecutive memo-missed runs recycle one arena in place
// (Machine.Reset) instead of reallocating tens of megabytes of simulator
// state per point. A Job (NewJob) is one campaign's view of the engine: it
// carries its own progress callback and its own Stats, so two jobs running
// concurrently on one engine share the cache without interleaving each
// other's counters. RunAll is the primitive (every point's individual
// outcome, in submission order); Run and RunMap are thin wrappers over it.
//
// The shared state is engineered to scale with worker count. The memo
// cache is lock-striped into power-of-two shards keyed by the run
// fingerprint, so concurrent campaigns contend per shard, not on one
// global mutex; eviction under CacheBound stays deterministic FIFO within
// each shard. The per-run hot counters (runs, simulation time, arena
// reuse) live in padded per-worker slots that are only summed when Stats
// is called, so workers never bounce a shared cache line, and run items
// are claimed from an atomic cursor instead of a channel, so one worker
// can burn through a contiguous span of points with its arena hot in
// cache.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sim"
)

// Point is one simulation of a campaign: a benchmark (and workload seed)
// on a machine configuration.
type Point struct {
	// Key labels the point in the caller's result map. It has no effect on
	// execution or memoization.
	Key string
	// Benchmark names the synthetic SPEC2K workload.
	Benchmark string
	// Seed selects the workload's pseudo-random streams (0 = canonical).
	Seed uint64
	// Config is the full machine configuration.
	Config sim.Config
}

// Stats aggregates counters across Run calls. Engine.Stats returns the
// engine's lifetime totals (every job summed); Job.Stats returns one job's
// share.
type Stats struct {
	// Points counts every submitted point; Ran counts the simulations that
	// actually executed; CacheHits counts points satisfied by a memoized
	// (or in-flight duplicate) run. For all-success campaigns,
	// Points == Ran + CacheHits + LedgerHits.
	Points, Ran, CacheHits int
	// LedgerHits counts points satisfied from the attached ledger
	// (completed in an earlier process lifetime, or by another worker
	// process); Steals counts expired foreign claims this engine took over.
	LedgerHits, Steals int
	// Failed counts points that genuinely failed (cancellations are not
	// failures); Retried counts extra attempts spent on transient failures.
	Failed, Retried int
	// ArenaReuses counts executed simulations that recycled a worker's
	// machine arena in place (Machine.ResetBench); FreshBuilds counts the
	// ones that had to construct a machine. ArenaReuses + FreshBuilds is the
	// number of run attempts (Ran plus retries).
	ArenaReuses, FreshBuilds int
	// Evicted counts memo-cache entries dropped by the CacheBound policy
	// (summed across shards).
	Evicted int
	// SimTime is the summed wall time of executed simulations; WorstRun is
	// the longest single simulation and WorstKey its point key.
	SimTime  time.Duration
	WorstRun time.Duration
	WorstKey string
}

// RunsPerSec returns executed simulations per second of simulation wall
// time — the engine's throughput over the work it actually did, independent
// of idle periods between campaigns. Zero until something has run.
func (s Stats) RunsPerSec() float64 {
	if s.SimTime <= 0 {
		return 0
	}
	return float64(s.Ran) / s.SimTime.Seconds()
}

// ReuseRate returns the fraction of run attempts that recycled a worker
// arena instead of constructing a machine (0 when nothing has run).
func (s Stats) ReuseRate() float64 {
	attempts := s.ArenaReuses + s.FreshBuilds
	if attempts == 0 {
		return 0
	}
	return float64(s.ArenaReuses) / float64(attempts)
}

// Progress is a point-in-time snapshot delivered to the progress callback
// after every completed simulation of a RunAll call.
type Progress struct {
	// Done and Total count points of the current RunAll call; CacheHits is
	// how many of Done were served from the memo cache.
	Done, Total, CacheHits int
	// SimsPerSec is executed simulations per wall-clock second since the
	// RunAll call started.
	SimsPerSec float64
	// WorstRun and WorstKey identify the slowest simulation so far (across
	// the owning job's lifetime).
	WorstRun time.Duration
	WorstKey string
}

// Option configures an Engine.
type Option func(*Engine)

// Workers bounds concurrent simulations (minimum 1). The default is
// runtime.GOMAXPROCS(0).
func Workers(n int) Option {
	if n < 1 {
		n = 1
	}
	return func(e *Engine) { e.workers = n }
}

// OnProgress installs the engine's default progress callback, inherited by
// every job that does not set its own (JobProgress). It is invoked from
// worker goroutines (serialized per RunAll call, but concurrent with the
// caller), so it must be safe to call from another goroutine.
func OnProgress(fn func(Progress)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithoutCache disables memoization: every point runs, even duplicates.
func WithoutCache() Option {
	return func(e *Engine) { e.noCache = true }
}

// RunTimeout bounds each simulation's wall-clock time. A run past its
// deadline fails with a structured *sim.CheckError of kind FailDeadline —
// classified transient, so it is retried when Retries allows. Zero (the
// default) disables the bound.
func RunTimeout(d time.Duration) Option {
	return func(e *Engine) { e.runTimeout = d }
}

// Retries allows up to n extra attempts for transiently-failed points
// (currently: wall-clock deadline expiries), with linear backoff between
// attempts. Deterministic failures — self-check trips, watchdog expiries,
// validation errors, panics — are never retried.
func Retries(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(e *Engine) { e.retries = n }
}

// ContinueOnError keeps the campaign draining after a point fails: the
// remaining points still execute and the failure is reported at the end (or
// per point, via RunAll). The default is fail-fast — the first failure
// cancels pending points and promptly aborts in-flight simulations through
// their stop channels.
func ContinueOnError() Option {
	return func(e *Engine) { e.keepGoing = true }
}

// WithLedger attaches a ledger: completed points are served from it,
// unclaimed points are claimed before they run (and completed into it
// afterwards), and points claimed by another live worker process are
// waited for — or stolen once the claim's deadline expires. A ledger that
// one process owns is that process's checkpoint: a reopened one resumes
// the campaign. The caller owns the ledger's lifetime. See Ledger.
func WithLedger(l *Ledger) Option {
	return func(e *Engine) { e.led = l }
}

// CacheBound bounds the memo cache to at most n entries. When an insertion
// would exceed a shard's share of the bound, that shard's oldest-inserted
// completed entries are evicted first — deterministic FIFO per shard, so a
// campaign replayed against a bounded engine hits and misses identically
// every time. In-flight entries are never evicted (waiters hold their done
// channels), so the cache may transiently exceed n while more than n runs
// are in flight. Zero or negative n (the default) leaves the cache
// unbounded. Small bounds use a single shard, so the historical global
// FIFO order is preserved exactly; sharding begins once every shard can
// hold at least a few entries.
func CacheBound(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(e *Engine) { e.cacheBound = n }
}

// entry is one memoized (or in-flight) simulation.
type entry struct {
	res  sim.Results
	err  error
	done chan struct{} // closed once res/err are valid
}

// resolved reports whether the entry's run has finished (done closed). It
// is safe to call from any goroutine.
func (en *entry) resolved() bool {
	select {
	case <-en.done:
		return true
	default:
		return false
	}
}

// cacheRecord is one memo-cache insertion, in order, for FIFO eviction.
// The entry pointer distinguishes a fingerprint's current cache entry from
// a stale record left behind when a failed run uncached and a later
// campaign re-inserted the same fingerprint.
type cacheRecord struct {
	fp string
	en *entry
}

// maxCacheShards bounds the lock striping of the memo cache. Shard count
// is always a power of two so the fingerprint maps to a shard with a mask.
const maxCacheShards = 16

// cacheShard is one lock stripe of the memo cache: its own map, its own
// FIFO insertion order and its own slice of the engine's CacheBound.
// Everything under sh.mu.
type cacheShard struct {
	// mu is held for map/slice bookkeeping only — never across I/O or a
	// channel. //vsv:hotlock
	mu      sync.Mutex
	cache   map[string]*entry
	order   []cacheRecord // insertion order, for bound eviction
	bound   int           // this shard's share of the engine bound (0 = unbounded)
	evicted int
	// pad keeps neighbouring shards off one cache line so shard locks do
	// not false-share (fields above are 56 bytes; 56+72 = 128).
	_ [72]byte
}

// addLocked inserts an entry under the shard's bound policy. Caller holds
// sh.mu.
func (sh *cacheShard) addLocked(fp string, en *entry) {
	sh.cache[fp] = en
	if sh.bound > 0 {
		sh.order = append(sh.order, cacheRecord{fp: fp, en: en})
		sh.evictLocked()
	}
}

// evictLocked enforces the shard's bound: while the shard is over it, the
// oldest-inserted resolved entries are dropped, skipping (and preserving
// the relative order of) in-flight ones. Stale records — fingerprints
// already uncached by a failure, or re-inserted under a newer entry — are
// compacted away as they are encountered. Caller holds sh.mu.
func (sh *cacheShard) evictLocked() {
	if sh.bound <= 0 || len(sh.cache) <= sh.bound {
		return
	}
	kept := sh.order[:0]
	for i, rec := range sh.order {
		if len(sh.cache) <= sh.bound {
			kept = append(kept, sh.order[i:]...)
			break
		}
		if cur, ok := sh.cache[rec.fp]; !ok || cur != rec.en {
			continue // stale record; nothing to evict
		}
		if !rec.en.resolved() {
			kept = append(kept, rec) // never evict an in-flight run
			continue
		}
		delete(sh.cache, rec.fp)
		sh.evicted++
	}
	sh.order = kept
}

// shardCount picks the cache's stripe width. Unbounded caches stripe to
// the maximum. Bounded caches stripe only as far as keeps at least four
// entries per shard — and a small bound therefore collapses to one shard,
// preserving the exact historical global-FIFO eviction order that the
// bound semantics were specified (and tested) under.
func shardCount(bound int) int {
	if bound <= 0 {
		return maxCacheShards
	}
	n := 1
	for n*2 <= bound/4 && n*2 <= maxCacheShards {
		n *= 2
	}
	return n
}

// shardIndex maps a fingerprint (lowercase hex, as produced by
// Point.Fingerprint) to its shard: the first fingerprint byte masked by
// the power-of-two shard count. SHA-256 output is uniform, so shards load
// evenly; the mapping is pure, so every process sharding the same
// fingerprint space agrees on shard ownership.
func shardIndex(fp string, n int) int {
	if n <= 1 || len(fp) < 2 {
		return 0
	}
	return int(hexVal(fp[0])<<4|hexVal(fp[1])) & (n - 1)
}

// ShardOwner partitions the fingerprint space across n cooperating
// processes (not necessarily a power of two): the peer index that owns the
// fingerprint. Every process given the same n computes the same owner, so
// a sharded deployment routes a point to one home deterministically. The
// cache's internal shardIndex and ShardOwner both key off the fingerprint's
// leading byte, so a peer's local cache shards stay evenly loaded under
// peer-sliced traffic.
func ShardOwner(fp string, n int) int {
	if n <= 1 || len(fp) < 2 {
		return 0
	}
	return int(hexVal(fp[0])<<4|hexVal(fp[1])) % n
}

func hexVal(c byte) uint {
	switch {
	case c >= '0' && c <= '9':
		return uint(c - '0')
	case c >= 'a' && c <= 'f':
		return uint(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return uint(c-'A') + 10
	}
	return 0
}

// hotSlot is one worker's private share of the engine's hot counters,
// padded so neighbouring workers' slots never share a cache line. Workers
// add to their own slot with uncontended atomics; Stats sums the slots.
// Two campaigns running concurrently on one job may share a slot index,
// so the adds stay atomic rather than plain stores.
type hotSlot struct {
	ran         atomic.Int64
	simTimeNS   atomic.Int64
	arenaReuses atomic.Int64
	freshBuilds atomic.Int64
	_           [96]byte
}

// addInto folds the slot into a Stats aggregate.
func (h *hotSlot) addInto(s *Stats) {
	s.Ran += int(h.ran.Load())
	s.SimTime += time.Duration(h.simTimeNS.Load())
	s.ArenaReuses += int(h.arenaReuses.Load())
	s.FreshBuilds += int(h.freshBuilds.Load())
}

// worstTracker tracks the slowest run and its key. The fast path is one
// atomic load (almost always "not a new worst"); the mutex is taken only
// to install a new maximum.
type worstTracker struct {
	ns atomic.Int64
	// mu is taken only to install a new maximum. //vsv:hotlock
	mu  sync.Mutex
	key string
}

func (w *worstTracker) note(d time.Duration, key string) {
	if d.Nanoseconds() <= w.ns.Load() {
		return
	}
	w.mu.Lock()
	if d.Nanoseconds() > w.ns.Load() {
		w.ns.Store(d.Nanoseconds())
		w.key = key
	}
	w.mu.Unlock()
}

func (w *worstTracker) get() (time.Duration, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(w.ns.Load()), w.key
}

// arena is a worker's persistent machine slot: one reusable simulation
// arena (caches, MSHRs, pipeline, recorder buffers, pooled transactions)
// that consecutive memo-missed runs reset in place instead of
// reallocating. An arena belongs to exactly one worker goroutine at a
// time; between campaigns it parks in the process-wide pool.
type arena struct {
	m *sim.Machine
}

// arenaPool recycles machine arenas across engines, not just campaigns:
// Machine.Reset is geometry-aware and bit-identical to fresh construction
// under any configuration, so an arena is config-agnostic and a short-lived
// engine (one figure, one CLI invocation, one test) can inherit the
// machines a previous engine built. A plain bounded free list rather than
// sync.Pool: pooled machines must survive GC cycles (a cleared pool would
// silently reintroduce full construction cost mid-campaign), and the cap
// bounds pinned simulation memory to one arena per plausible worker. The
// list is striped by worker index so concurrent campaign starts and ends
// do not serialize on one mutex; a worker prefers its own stripe (the
// arena it parked last time, still warm) and steals from neighbours only
// when its stripe is empty.
var arenaPool = newArenaFreeList()

// arenaStripes is the free list's stripe count (power of two).
const arenaStripes = 8

type arenaStripe struct {
	// mu guards the free list only. //vsv:hotlock
	mu   sync.Mutex
	free []*arena
	// fields above are 32 bytes; 32+32 = 64 keeps stripes one line apart.
	_ [32]byte
}

type arenaFreeList struct {
	stripes [arenaStripes]arenaStripe
	perCap  int // bound per stripe, so total pinned memory stays bounded
}

func newArenaFreeList() *arenaFreeList {
	c := runtime.GOMAXPROCS(0)
	// Engines may run more workers than cores (the oversubscribed regime
	// still overlaps memory stalls), so keep a sensible floor.
	if c < 16 {
		c = 16
	}
	return &arenaFreeList{perCap: (c + arenaStripes - 1) / arenaStripes}
}

func (p *arenaFreeList) get(w int) *arena {
	idx := w & (arenaStripes - 1)
	for i := 0; i < arenaStripes; i++ {
		s := &p.stripes[(idx+i)&(arenaStripes-1)]
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			a := s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			s.mu.Unlock()
			return a
		}
		s.mu.Unlock()
	}
	return &arena{}
}

func (p *arenaFreeList) put(w int, a *arena) {
	idx := w & (arenaStripes - 1)
	for i := 0; i < arenaStripes; i++ {
		s := &p.stripes[(idx+i)&(arenaStripes-1)]
		s.mu.Lock()
		if len(s.free) < p.perCap {
			s.free = append(s.free, a)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	// Every stripe is at capacity: drop the arena; the GC reclaims it.
}

// Engine executes sweep points with bounded parallelism and a memoization
// cache that persists across campaigns. An Engine is safe for concurrent
// use; concurrent campaigns share its cache (duplicate in-flight points are
// joined, not re-run).
type Engine struct {
	workers    int
	progress   func(Progress)
	noCache    bool
	cacheBound int
	runTimeout time.Duration
	retries    int
	backoff    time.Duration
	keepGoing  bool
	led        *Ledger

	// shards is the lock-striped memo cache (power-of-two length).
	shards []cacheShard
	// hot is the per-worker counter block; worker w owns hot[w].
	hot   []hotSlot
	worst worstTracker

	// mu guards the cold counters in stats (planning-path hits, failures,
	// retries) and every job's cold counters; the hot per-run counters
	// live in the padded slots above. //vsv:hotlock
	mu    sync.Mutex
	stats Stats
}

// New returns an engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(e)
	}
	n := shardCount(e.cacheBound)
	e.shards = make([]cacheShard, n)
	for i := range e.shards {
		e.shards[i].cache = make(map[string]*entry)
		if e.cacheBound > 0 {
			// Split the bound evenly; the first bound%n shards absorb the
			// remainder so the shard bounds sum exactly to the engine bound.
			e.shards[i].bound = e.cacheBound / n
			if i < e.cacheBound%n {
				e.shards[i].bound++
			}
		}
	}
	e.hot = make([]hotSlot, e.workers)
	return e
}

// shard returns the cache shard owning the fingerprint.
func (e *Engine) shard(fp string) *cacheShard {
	return &e.shards[shardIndex(fp, len(e.shards))]
}

// Stats returns a snapshot of the engine's lifetime counters (every job's
// counters summed).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	for i := range e.hot {
		e.hot[i].addInto(&s)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Evicted += sh.evicted
		sh.mu.Unlock()
	}
	s.WorstRun, s.WorstKey = e.worst.get()
	return s
}

// CacheLen returns how many fingerprints the memo cache currently holds
// (completed or in flight), summed across shards.
func (e *Engine) CacheLen() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.cache)
		sh.mu.Unlock()
	}
	return n
}

// CacheShards returns the memo cache's shard count.
func (e *Engine) CacheShards() int { return len(e.shards) }

// ShardLens returns each shard's current entry count, in shard order.
func (e *Engine) ShardLens() []int {
	out := make([]int, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.cache)
		sh.mu.Unlock()
	}
	return out
}

// acquireArena hands a worker its machine slot, recycling a parked arena
// when one is available. Each worker holds exactly one arena for the span
// of a campaign, so an engine never pins more than one arena's simulation
// memory per configured worker.
func (e *Engine) acquireArena(w int) *arena {
	return arenaPool.get(w)
}

// releaseArena parks a worker's arena in the process-wide pool for the
// next campaign — on this engine or any other. Arenas whose machine was
// dropped (unstructured panic, failed reset) are not parked; the next
// acquirer builds fresh.
func (e *Engine) releaseArena(w int, a *arena) {
	if a.m == nil {
		return
	}
	arenaPool.put(w, a)
}

// Job is one campaign's scoped view of an engine: it shares the engine's
// worker pool, memo cache and ledger, but owns its progress callback,
// its Stats and its run budget, so concurrent jobs on one engine do not
// interleave counters or callbacks. The zero value is not usable; call
// Engine.NewJob. A Job is safe for concurrent use (a job running several
// campaigns concurrently aggregates them into one set of counters).
type Job struct {
	e         *Engine
	progress  func(Progress)
	maxPoints int

	// stats holds the job's cold counters, guarded by e.mu (updated on the
	// same paths, under the same critical sections, as the engine's); the
	// hot per-run counters live in the job's own per-worker slots.
	stats Stats
	hot   []hotSlot
	worst worstTracker
}

// JobOption configures a Job.
type JobOption func(*Job)

// JobProgress installs the job's progress callback, overriding the
// engine-level default. Same calling convention as OnProgress.
func JobProgress(fn func(Progress)) JobOption {
	return func(j *Job) { j.progress = fn }
}

// MaxPoints caps how many points the job may submit across all of its
// RunAll calls — the admission-control run budget. A call that would exceed
// the budget fails as a whole with a *BudgetError before simulating
// anything. Zero (the default) disables the cap.
func MaxPoints(n int) JobOption {
	if n < 0 {
		n = 0
	}
	return func(j *Job) { j.maxPoints = n }
}

// NewJob returns a job-scoped handle on the engine. Jobs inherit the
// engine's default progress callback unless JobProgress overrides it.
func (e *Engine) NewJob(opts ...JobOption) *Job {
	j := &Job{e: e, progress: e.progress, hot: make([]hotSlot, e.workers)}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Stats returns a snapshot of the job's counters.
func (j *Job) Stats() Stats {
	j.e.mu.Lock()
	s := j.stats
	j.e.mu.Unlock()
	for i := range j.hot {
		j.hot[i].addInto(&s)
	}
	s.WorstRun, s.WorstKey = j.worst.get()
	return s
}

// runItem is one simulation scheduled by a RunAll call.
type runItem struct {
	fp string
	p  Point
	en *entry
}

// PointResult is one point's outcome in a RunAll campaign: its results, or
// the error that prevented them (a *RunError for genuine failures, a
// cancellation error for points dropped by fail-fast or the caller's
// context).
type PointResult struct {
	Key string
	Res sim.Results
	Err error
}

// RunAll is the engine's primitive: it executes the points and returns
// every point's individual outcome in submission order — the
// graceful-degradation interface. With ContinueOnError, a campaign with
// failing points still yields results for every point that could run, each
// failure annotated in place; the default is fail-fast (the first genuine
// failure cancels pending points, which report cancellation errors). The
// returned error is only non-nil for planning problems (unhashable
// configurations, an exceeded run budget) — per-point failures live in the
// PointResults.
func (j *Job) RunAll(ctx context.Context, points []Point) ([]PointResult, error) {
	waiters, err := j.execute(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make([]PointResult, len(points))
	for i, en := range waiters {
		<-en.done
		out[i] = PointResult{Key: points[i].Key, Res: en.res, Err: en.err}
	}
	return out, nil
}

// Run is a thin wrapper over RunAll for all-or-nothing campaigns: it
// returns just the results, in submission order, or the first genuine
// failure (a *RunError, in submission order). Cancellations are reported
// only when no genuine failure explains them.
func (j *Job) Run(ctx context.Context, points []Point) ([]sim.Results, error) {
	all, err := j.RunAll(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Results, len(points))
	var cancelErr error
	for i, pr := range all {
		switch {
		case pr.Err == nil:
			out[i] = pr.Res
		case isCancel(pr.Err):
			if cancelErr == nil {
				cancelErr = fmt.Errorf("sweep: point %q: %w", points[i].Key, pr.Err)
			}
		default:
			return nil, pr.Err
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return out, nil
}

// RunMap is a thin wrapper over Run that keys the results by Point.Key.
func (j *Job) RunMap(ctx context.Context, points []Point) (map[string]sim.Results, error) {
	res, err := j.Run(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sim.Results, len(points))
	for i, p := range points {
		out[p.Key] = res[i]
	}
	return out, nil
}

// RunAll executes the points on an anonymous job (engine-default progress,
// no budget). See Job.RunAll.
func (e *Engine) RunAll(ctx context.Context, points []Point) ([]PointResult, error) {
	return e.NewJob().RunAll(ctx, points)
}

// Run executes the points on an anonymous job. See Job.Run.
func (e *Engine) Run(ctx context.Context, points []Point) ([]sim.Results, error) {
	return e.NewJob().Run(ctx, points)
}

// RunMap executes the points on an anonymous job. See Job.RunMap.
func (e *Engine) RunMap(ctx context.Context, points []Point) (map[string]sim.Results, error) {
	return e.NewJob().RunMap(ctx, points)
}

// plan maps each point to its cache entry, creating entries for the runs
// this call owns. It walks the points in submission order, so hit
// accounting and per-shard insertion order are deterministic for any
// worker count (concurrent planners walking the same point sequence
// insert each fingerprint exactly once, in sequence position order).
func (j *Job) plan(points []Point, waiters []*entry) (toRun []runItem, hits int, err error) {
	e := j.e
	// The fingerprint is only needed when something is keyed by it; a
	// memoization-disabled engine with no ledger skips the hash entirely
	// (it is pure per-point overhead there).
	needFP := !e.noCache || e.led != nil
	var cacheHits, ledHits int
	defer func() {
		if cacheHits == 0 && ledHits == 0 {
			return
		}
		e.mu.Lock()
		e.stats.CacheHits += cacheHits
		j.stats.CacheHits += cacheHits
		e.stats.LedgerHits += ledHits
		j.stats.LedgerHits += ledHits
		e.mu.Unlock()
	}()
	for i, p := range points {
		var fp string
		if needFP {
			if fp, err = p.Fingerprint(); err != nil {
				return nil, hits, fmt.Errorf("sweep: point %q: %w", p.Key, err)
			}
		}
		// warm resolves a point the ledger already holds.
		warm := func() (*entry, bool) {
			if e.led != nil {
				if res, ok := e.led.Lookup(fp); ok {
					ledHits++
					return resolvedEntry(res), true
				}
			}
			return nil, false
		}
		if e.noCache {
			if needFP {
				if en, ok := warm(); ok {
					hits++
					waiters[i] = en
					continue
				}
			}
			en := &entry{done: make(chan struct{})}
			waiters[i] = en
			toRun = append(toRun, runItem{fp: fp, p: p, en: en})
			continue
		}
		sh := e.shard(fp)
		sh.mu.Lock()
		if en, ok := sh.cache[fp]; ok {
			sh.mu.Unlock()
			cacheHits++
			hits++
			waiters[i] = en
			continue
		}
		if en, ok := warm(); ok {
			sh.addLocked(fp, en)
			sh.mu.Unlock()
			hits++
			waiters[i] = en
			continue
		}
		en := &entry{done: make(chan struct{})}
		sh.addLocked(fp, en)
		sh.mu.Unlock()
		waiters[i] = en
		toRun = append(toRun, runItem{fp: fp, p: p, en: en})
	}
	return toRun, hits, nil
}

func resolvedEntry(res sim.Results) *entry {
	en := &entry{res: res, done: make(chan struct{})}
	close(en.done)
	return en
}

// execute plans the campaign and fans it out over the worker pool,
// returning each point's entry (resolved or in flight).
func (j *Job) execute(ctx context.Context, points []Point) ([]*entry, error) {
	e := j.e
	e.mu.Lock()
	if j.maxPoints > 0 && j.stats.Points+len(points) > j.maxPoints {
		submitted := j.stats.Points
		e.mu.Unlock()
		return nil, &BudgetError{Submitted: submitted, Requested: len(points), Budget: j.maxPoints}
	}
	e.stats.Points += len(points)
	j.stats.Points += len(points)
	e.mu.Unlock()

	if e.led != nil {
		// One refresh per campaign absorbs everything other worker
		// processes have completed so far; the run loop refreshes again as
		// it claims and waits.
		if err := e.led.Refresh(); err != nil {
			return nil, fmt.Errorf("sweep: ledger refresh: %w", err)
		}
	}

	waiters := make([]*entry, len(points))
	toRun, hits, err := j.plan(points, waiters)
	if err != nil {
		return nil, err
	}
	if len(toRun) == 0 {
		return waiters, nil
	}

	// runCtx is the campaign's cancellation scope: it follows the caller's
	// context and, under fail-fast, is cancelled on the first genuine point
	// failure. Its Done channel is threaded into every simulation as the
	// stop channel, so in-flight runs abort within a few thousand ticks.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	start := time.Now()
	done := 0
	var progMu sync.Mutex
	note := func(it runItem, dur time.Duration, executed bool, ehs, jhs *hotSlot) {
		if executed {
			if e.cacheBound > 0 && !e.noCache {
				// The entry just resolved; entries inserted in-flight become
				// evictable only now, so re-enforce the owning shard's bound.
				sh := e.shard(it.fp)
				sh.mu.Lock()
				sh.evictLocked()
				sh.mu.Unlock()
			}
			ehs.ran.Add(1)
			ehs.simTimeNS.Add(dur.Nanoseconds())
			jhs.ran.Add(1)
			jhs.simTimeNS.Add(dur.Nanoseconds())
			e.worst.note(dur, it.p.Key)
			j.worst.note(dur, it.p.Key)
		}
		if j.progress == nil {
			return
		}
		worst, worstKey := j.worst.get()
		progMu.Lock()
		done++
		p := Progress{
			Done:       hits + done,
			Total:      len(points),
			CacheHits:  hits,
			SimsPerSec: float64(done) / time.Since(start).Seconds(),
			WorstRun:   worst,
			WorstKey:   worstKey,
		}
		j.progress(p)
		progMu.Unlock()
	}

	// Fan the owned runs out over the worker pool. Items are claimed from
	// an atomic cursor rather than a channel: a worker that keeps getting
	// scheduled burns through a contiguous span of points with its arena
	// hot in cache, and nothing blocks on a rendezvous. Workers drain the
	// whole range even after cancellation, failing (and uncaching) the
	// items they skip, so every entry's done channel is guaranteed to
	// close.
	workers := e.workers
	if workers > len(toRun) {
		workers = len(toRun)
	}
	// deferred holds items another process's live ledger claim pushed past:
	// a worker skips ahead to unclaimed work first and comes back to wait on
	// (or steal) the stragglers only once the cursor is drained, so K
	// processes stream through disjoint spans instead of convoying on each
	// other's claims.
	var defMu sync.Mutex
	var deferred []runItem
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ehs, jhs := &e.hot[w], &j.hot[w]
			// Each worker holds one persistent machine slot for its
			// lifetime, acquired lazily on its first real run: consecutive
			// memo-missed runs reset the same arena in place. Between
			// campaigns the arena parks in the process pool, so reuse
			// carries across RunAll calls too.
			var a *arena
			defer func() {
				if a != nil {
					e.releaseArena(w, a)
				}
			}()
			// runItemFull resolves one item end to end. With block=false a
			// live foreign ledger claim defers the item instead of waiting.
			runItemFull := func(it runItem, block bool) {
				if runCtx.Err() != nil {
					j.fail(it, runCtx.Err(), false)
					return
				}
				var res sim.Results
				var dur time.Duration
				var executed bool
				var err error
				if e.led != nil {
					var wait bool
					res, dur, executed, wait, err = j.runLedgerItem(runCtx, it, &a, w, ehs, jhs, block)
					if wait {
						defMu.Lock()
						deferred = append(deferred, it)
						defMu.Unlock()
						return
					}
				} else {
					if a == nil {
						a = e.acquireArena(w)
					}
					t0 := time.Now()
					res, err = j.runPoint(runCtx, it, a, ehs, jhs)
					dur, executed = time.Since(t0), true
				}
				if err != nil {
					genuine := !isCancel(err)
					j.fail(it, err, genuine)
					if genuine && !e.keepGoing {
						cancelRun()
					}
					return
				}
				it.en.res = res
				close(it.en.done)
				note(it, dur, executed, ehs, jhs)
			}
			for {
				n := next.Add(1) - 1
				if n >= int64(len(toRun)) {
					break
				}
				runItemFull(toRun[n], false)
			}
			// Cursor drained: pick up the items parked behind foreign
			// claims, this time waiting them out (or stealing on expiry).
			for {
				defMu.Lock()
				if len(deferred) == 0 {
					defMu.Unlock()
					return
				}
				it := deferred[len(deferred)-1]
				deferred = deferred[:len(deferred)-1]
				defMu.Unlock()
				runItemFull(it, true)
			}
		}(w)
	}
	wg.Wait()
	return waiters, nil
}

// runLedgerItem resolves one item through the work-stealing ledger: a
// point another process already completed is a ledger hit; an unclaimed
// (or stale-claimed) point is claimed, executed locally and completed into
// the ledger. A point under another live worker's claim is waited for —
// polling until it completes or its claim expires and can be stolen — when
// block is set; otherwise it is handed back (wait=true) so the caller can
// defer it and move on to unclaimed work.
func (j *Job) runLedgerItem(ctx context.Context, it runItem, ap **arena, w int, ehs, jhs *hotSlot, block bool) (res sim.Results, dur time.Duration, executed bool, wait bool, err error) {
	e := j.e
	led := e.led
	for {
		if r, ok := led.Lookup(it.fp); ok {
			e.mu.Lock()
			e.stats.LedgerHits++
			j.stats.LedgerHits++
			e.mu.Unlock()
			return r, 0, false, false, nil
		}
		if reason, ok := led.PoisonReason(it.fp); ok {
			// Quarantined by a supervisor: the same point crashed enough
			// workers that running it again would only crash this one too.
			return sim.Results{}, 0, false, false,
				&PoisonedError{Key: it.p.Key, Fingerprint: it.fp, Reason: reason}
		}
		won, stole, cerr := led.TryClaim(it.fp, it.p.Key)
		if cerr != nil {
			return sim.Results{}, 0, false, false, fmt.Errorf("sweep: ledger claim: %w", cerr)
		}
		if won {
			if stole {
				e.mu.Lock()
				e.stats.Steals++
				j.stats.Steals++
				e.mu.Unlock()
			}
			// Chaos hook: a crash schedule keyed to this point kills the
			// process here — after the claim, before the run — modeling a
			// poisoned input. No-op (one atomic load) unless armed.
			failpoint.CrashIf(FPLedgerClaimed, it.p.Key)
			if *ap == nil {
				*ap = e.acquireArena(w)
			}
			t0 := time.Now()
			r, rerr := j.runPoint(ctx, it, *ap, ehs, jhs)
			dur = time.Since(t0)
			if rerr != nil {
				// The claim is left to expire; another worker will steal
				// and re-attempt the point (and, for deterministic
				// failures, reach the same verdict independently).
				return sim.Results{}, dur, true, false, rerr
			}
			if werr := led.Complete(it.fp, it.p.Key, r); werr != nil {
				return sim.Results{}, dur, true, false, fmt.Errorf("sweep: ledger write: %w", werr)
			}
			return r, dur, true, false, nil
		}
		if !block {
			return sim.Results{}, 0, false, true, nil
		}
		// Another live worker owns the claim: wait a poll interval, then
		// re-check (TryClaim refreshes the ledger view each attempt).
		select {
		case <-ctx.Done():
			return sim.Results{}, 0, false, false, ctx.Err()
		case <-time.After(led.pollEvery()):
		}
	}
}

// runPoint executes one point with panic isolation, the per-run deadline,
// and bounded retry of transient failures, on the worker's arena.
func (j *Job) runPoint(ctx context.Context, it runItem, a *arena, ehs, jhs *hotSlot) (sim.Results, error) {
	e := j.e
	attempt := 0
	for {
		attempt++
		res, err := j.runOnce(ctx, it.p, a, ehs, jhs)
		if err == nil {
			return res, nil
		}
		var ce *sim.CheckError
		if errors.As(err, &ce) && ce.Kind == sim.FailAborted {
			// Stopped through the stop channel: a cancellation, not a
			// failure of this point.
			if cerr := ctx.Err(); cerr != nil {
				return sim.Results{}, cerr
			}
			return sim.Results{}, context.Canceled
		}
		if attempt <= e.retries && transient(err) && ctx.Err() == nil {
			e.mu.Lock()
			e.stats.Retried++
			j.stats.Retried++
			e.mu.Unlock()
			time.Sleep(time.Duration(attempt) * e.backoff)
			continue
		}
		re := &RunError{
			Key:         it.p.Key,
			Benchmark:   it.p.Benchmark,
			Seed:        it.p.Seed,
			Fingerprint: it.fp,
			Attempts:    attempt,
			Err:         err,
		}
		var pe *panicError
		if errors.As(err, &pe) {
			re.Stack = pe.stack
		}
		return sim.Results{}, re
	}
}

// runOnce executes one attempt on the worker's arena, converting panics —
// the simulator's structured failures and anything else — into errors. The
// arena's machine is reset in place when present (the steady-state path:
// zero arena allocation) and constructed on first use. A structured
// failure leaves the arena reusable — Machine.Reset restores a
// bit-identical fresh machine from any mid-run state — but an unstructured
// panic or a failed reset drops it, since its invariants are unknown.
// The reuse accounting goes to this worker's padded counter slots, so the
// hot path never takes the engine mutex.
//
//vsv:hotpath
func (j *Job) runOnce(ctx context.Context, p Point, a *arena, ehs, jhs *hotSlot) (res sim.Results, err error) {
	e := j.e
	//vsvlint:ignore hotpath the panic-recovery boundary must be a deferred function literal; one closure per attempt, amortized against the whole run
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ce, ok := r.(*sim.CheckError); ok {
			err = ce
			return
		}
		a.m = nil
		err = &panicError{value: r, stack: debug.Stack()}
	}()
	opts := []sim.Option{
		sim.WithConfig(p.Config), sim.WithSeed(p.Seed), sim.WithStop(ctx.Done()),
	}
	if e.runTimeout > 0 {
		opts = append(opts, sim.WithWallDeadline(time.Now().Add(e.runTimeout)))
	}
	reused := a.m != nil
	if reused {
		if err := a.m.ResetBench(p.Benchmark, opts...); err != nil {
			a.m = nil
			return sim.Results{}, err
		}
	} else {
		m, err := sim.NewBench(p.Benchmark, opts...)
		if err != nil {
			return sim.Results{}, err
		}
		a.m = m
	}
	if reused {
		ehs.arenaReuses.Add(1)
		jhs.arenaReuses.Add(1)
	} else {
		ehs.freshBuilds.Add(1)
		jhs.freshBuilds.Add(1)
	}
	return a.m.Run(p.Benchmark), nil
}

// fail marks an entry as errored and removes it from the cache so a later
// campaign re-executes the point; genuine failures (not cancellations) are
// counted.
func (j *Job) fail(it runItem, err error, genuine bool) {
	e := j.e
	if !e.noCache && it.fp != "" {
		sh := e.shard(it.fp)
		sh.mu.Lock()
		if cur, ok := sh.cache[it.fp]; ok && cur == it.en {
			delete(sh.cache, it.fp)
		}
		sh.mu.Unlock()
	}
	if genuine {
		e.mu.Lock()
		e.stats.Failed++
		j.stats.Failed++
		e.mu.Unlock()
	}
	it.en.err = err
	close(it.en.done)
}
