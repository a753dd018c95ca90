package sweep

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/applog"
	"repro/internal/campaign/apiv1"
	"repro/internal/sim"
)

// FPLedgerClaimed is a failpoint site (a no-op unless armed; see
// internal/failpoint) that fires between winning a claim and running the
// point. Armed with crash and a key, it models a poisoned input that kills
// any worker that picks it up — the supervisor's quarantine drill. Exported
// so drivers can name the site in chaos schedules. The ledger's other site,
// "ledger.append", guards the one write of every claim, completion and
// poison record (internal/applog).
const FPLedgerClaimed = "ledger.claimed"

// Ledger is the sweep engine's durable record of completed points, in two
// roles. A single process uses it as a resumable checkpoint: every finished
// simulation is appended as it completes, and a reopened ledger serves those
// points instead of re-running them (-checkpoint/-resume). Several worker
// processes share one as a work-stealing ledger: they announce which points
// they are running (claim records) and publish results as they finish
// (completion records). Completion records are apiv1 checkpoint records, so
// checkpoint files written before the ledger existed still load. The
// coordination protocol is deliberately minimal because the simulations
// themselves are deterministic:
//
//   - Appends are single O_APPEND write(2) calls of one whole line (see
//     internal/applog), so concurrent writers never interleave bytes within
//     a record.
//   - Claims are advisory. Two workers that race the same fingerprint both
//     run it; the duplicate is wasted work, not an error, because both
//     produce bit-identical results and the first completion record wins.
//   - Claims expire. A claim carries a wall-clock deadline; once it passes
//     without a completion, any other worker may steal the point. A worker
//     killed mid-run therefore delays its claimed points by at most the
//     claim TTL — and not at all for a successor that opens the ledger
//     under the same worker id, which re-claims them at once.
//   - Nobody truncates. A torn or corrupt line cannot be cut off (another
//     process may already have valid records after it); an unterminated
//     trailing fragment stays pending until its terminator arrives or the
//     next append caps it, and a complete-but-undecodable line is skipped
//     and counted.
type Ledger struct {
	mu       sync.Mutex
	log      *applog.Log // nil once closed
	worker   string
	ttl      time.Duration
	poll     time.Duration
	done     map[string]sim.Results
	claims   map[string]claimState
	poisoned map[string]string // fingerprint → quarantine reason
	loaded   int               // completion records absorbed over the ledger's lifetime
	skipped  int               // undecodable complete lines skipped
}

type claimState struct {
	worker   string
	key      string
	deadline time.Time
}

// LedgerOption configures an opened ledger.
type LedgerOption func(*Ledger)

// DefaultLedgerWorker is the worker identity of a ledger opened without
// LedgerWorker. It is fixed rather than per-process so that a process
// resuming a single-writer ledger owns — and re-claims immediately — the
// claims its killed predecessor left behind.
const DefaultLedgerWorker = "local"

// LedgerWorker sets the ledger's worker identity, written into its claim
// records (default DefaultLedgerWorker). Processes sharing one ledger must
// use distinct identities; multi-process drivers name their workers.
func LedgerWorker(id string) LedgerOption {
	return func(l *Ledger) {
		if id != "" {
			l.worker = id
		}
	}
}

// LedgerClaimTTL sets how long a claim shields a point from other workers
// before it may be stolen (default 10s). It bounds how long a killed
// worker's in-flight points stay blocked, so it should comfortably exceed
// one simulation's runtime and nothing more.
func LedgerClaimTTL(d time.Duration) LedgerOption {
	return func(l *Ledger) {
		if d > 0 {
			l.ttl = d
		}
	}
}

// LedgerPoll sets how often a worker waiting on another's live claim
// re-reads the ledger (default 25ms).
func LedgerPoll(d time.Duration) LedgerOption {
	return func(l *Ledger) {
		if d > 0 {
			l.poll = d
		}
	}
}

// OpenLedger opens (creating if needed) the ledger file at path and
// absorbs every record already present.
func OpenLedger(path string, opts ...LedgerOption) (*Ledger, error) {
	lg, err := applog.Open(path, "ledger")
	if err != nil {
		return nil, fmt.Errorf("sweep: ledger: %w", err)
	}
	l := &Ledger{
		log:      lg,
		worker:   DefaultLedgerWorker,
		ttl:      10 * time.Second,
		poll:     25 * time.Millisecond,
		done:     make(map[string]sim.Results),
		claims:   make(map[string]claimState),
		poisoned: make(map[string]string),
	}
	for _, o := range opts {
		o(l)
	}
	l.mu.Lock()
	err = l.refreshLocked()
	l.mu.Unlock()
	if err != nil {
		_ = lg.Close()
		return nil, err
	}
	return l, nil
}

// Worker returns the ledger's worker identity.
func (l *Ledger) Worker() string { return l.worker }

// Refresh absorbs everything other processes have appended since the last
// read.
func (l *Ledger) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refreshLocked()
}

func (l *Ledger) refreshLocked() error {
	if l.log == nil {
		return fmt.Errorf("sweep: ledger: closed")
	}
	if err := l.log.ReadNew(l.absorb); err != nil {
		return fmt.Errorf("sweep: ledger: read: %w", err)
	}
	return nil
}

// absorb folds one complete ledger line into the in-memory view.
func (l *Ledger) absorb(line []byte) {
	rec, err := apiv1.DecodeLedgerRecord(line)
	if err != nil {
		// A capped torn fragment or other corruption: skip it; at worst
		// the point re-runs.
		l.skipped++
		return
	}
	switch {
	case rec.Claim:
		if _, ok := l.done[rec.FP]; ok {
			return // already complete; a late claim is moot
		}
		// Later claims supersede earlier ones for a fingerprint (a steal
		// re-claims with a fresh deadline).
		l.claims[rec.FP] = claimState{
			worker:   rec.Worker,
			key:      rec.Key,
			deadline: time.UnixMilli(rec.Deadline),
		}
	case rec.Poison:
		if _, ok := l.done[rec.FP]; ok {
			return // a completion already proved the point runs
		}
		l.poisoned[rec.FP] = rec.Reason
		delete(l.claims, rec.FP)
	default:
		if _, ok := l.done[rec.FP]; !ok {
			// First completion wins. Duplicates (two workers racing one
			// point) are bit-identical anyway — the simulations are
			// deterministic — so which record wins is immaterial.
			l.done[rec.FP] = rec.Res
			l.loaded++
		}
		delete(l.claims, rec.FP)
		// A completion supersedes any quarantine: the point ran somewhere.
		delete(l.poisoned, rec.FP)
	}
}

// Lookup returns the completed results for a fingerprint, from the
// in-memory view (call Refresh to absorb other processes' appends).
func (l *Ledger) Lookup(fp string) (sim.Results, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.done[fp]
	return res, ok
}

// TryClaim attempts to claim the fingerprint for this worker after
// refreshing the ledger view. It returns won=false when the point is
// already complete (Lookup will now hit) or under another worker's live
// claim (wait and retry); otherwise it appends a claim record with a fresh
// deadline and returns won=true — with stole=true when the claim it
// superseded was another worker's expired one.
func (l *Ledger) TryClaim(fp, key string) (won, stole bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return false, false, err
	}
	if _, ok := l.done[fp]; ok {
		return false, false, nil
	}
	if _, ok := l.poisoned[fp]; ok {
		// Quarantined: never claim it. The caller's poison check (after
		// the next Lookup miss) turns this into a typed failure.
		return false, false, nil
	}
	now := time.Now()
	if c, ok := l.claims[fp]; ok && c.worker != l.worker {
		if now.Before(c.deadline) {
			return false, false, nil
		}
		stole = true
	}
	deadline := now.Add(l.ttl)
	line, err := apiv1.EncodeClaimRecord(fp, key, l.worker, deadline.UnixMilli())
	if err != nil {
		return false, false, fmt.Errorf("sweep: ledger: encode claim: %w", err)
	}
	if err := l.appendLocked(line); err != nil {
		return false, false, err
	}
	l.claims[fp] = claimState{worker: l.worker, key: key, deadline: deadline}
	return true, stole, nil
}

// Complete publishes a finished simulation. If another worker's completion
// already arrived (the advisory-claim race), the duplicate is dropped —
// deterministic results make the two records interchangeable anyway.
func (l *Ledger) Complete(fp, key string, res sim.Results) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[fp]; ok {
		return nil
	}
	line, err := apiv1.EncodeCheckpointRecord(fp, key, res)
	if err != nil {
		return fmt.Errorf("sweep: ledger: encode: %w", err)
	}
	if err := l.appendLocked(line); err != nil {
		return err
	}
	l.done[fp] = res
	delete(l.claims, fp)
	delete(l.poisoned, fp)
	l.loaded++
	return nil
}

// Poison quarantines a fingerprint: a poison record is appended and every
// ledger (this one on return, others at their next refresh) fails the
// point typed instead of running it. Supervisors call this when the same
// point has crashed enough workers that retrying is just a crash loop. A
// completed point cannot be poisoned (the completion already proves it
// runs).
func (l *Ledger) Poison(fp, key, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[fp]; ok {
		return nil
	}
	line, err := apiv1.EncodePoisonRecord(fp, key, l.worker, reason)
	if err != nil {
		return fmt.Errorf("sweep: ledger: encode poison: %w", err)
	}
	if err := l.appendLocked(line); err != nil {
		return err
	}
	l.poisoned[fp] = reason
	delete(l.claims, fp)
	return nil
}

// PoisonReason returns the quarantine reason for a fingerprint, from the
// in-memory view (call Refresh to absorb other processes' appends).
func (l *Ledger) PoisonReason(fp string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	reason, ok := l.poisoned[fp]
	return reason, ok
}

// ClaimInfo identifies one live claim for supervision diagnostics.
type ClaimInfo struct {
	FP, Key string
}

// ClaimsBy returns the fingerprints currently claimed by the named worker,
// from the in-memory view (call Refresh first for a current one). A
// supervisor uses it to find what a crashed worker was holding: those
// fingerprints are the quarantine suspects.
func (l *Ledger) ClaimsBy(worker string) []ClaimInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ClaimInfo
	for fp, c := range l.claims {
		if c.worker == worker {
			out = append(out, ClaimInfo{FP: fp, Key: c.key})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// appendLocked appends one record line (see applog.Log.Append for the
// single-write and torn-tail rules).
func (l *Ledger) appendLocked(line []byte) error {
	if l.log == nil {
		return fmt.Errorf("sweep: ledger: closed")
	}
	if err := l.log.Append(line); err != nil {
		return fmt.Errorf("sweep: ledger: append: %w", err)
	}
	return nil
}

// pollEvery returns how long a worker waits between re-checks of another
// worker's live claim.
func (l *Ledger) pollEvery() time.Duration { return l.poll }

// Len returns how many distinct fingerprints have completed.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Loaded returns how many completion records this ledger has absorbed
// (its own and other workers'); Skipped returns how many undecodable
// complete lines were passed over.
func (l *Ledger) Loaded() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loaded
}

// Skipped returns how many undecodable complete lines were skipped.
func (l *Ledger) Skipped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.skipped
}

// Close closes the underlying file. Lookup keeps serving the in-memory
// view; Refresh, TryClaim and Complete fail once closed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
}
