package campaign

import (
	"fmt"
	"sync"

	"repro/internal/applog"
	"repro/internal/campaign/apiv1"
	"repro/internal/failpoint"
)

// fpJournalClose guards the final fsync at Close (a no-op unless armed;
// see internal/failpoint). The record write and the per-record fsync are
// the log's "journal.append" and "journal.sync" sites.
const fpJournalClose = "journal.close"

// Journal is the campaign server's durable job log: a WAL-style JSONL file
// (apiv1.JournalRecord lines) that makes accepted jobs survive the process.
// A submit record is appended — and fsynced — before the server
// acknowledges a job, and a state record at every durable lifecycle edge
// (terminal states, interruption), so replaying the file on boot
// reconstructs every job the server ever admitted: terminal jobs come back
// as history, everything else comes back as interrupted work to
// re-dispatch. Because the engine is deterministic, a re-dispatched job's
// artefacts are byte-identical to what the dead process would have served.
//
// Durability discipline: the journal is an applog.Log. Replay skips
// complete-but-undecodable lines and never replays an unterminated tail;
// the next append caps that tail rather than truncating it. Nothing
// acknowledged is ever dropped, because the submit fsync completes before
// the 202. A torn or capped record was never acknowledged; if its bytes
// happen to decode, it replays like any record whose write landed but
// whose fsync or 202 did not — a job the client never heard of, run once
// more.
type Journal struct {
	mu        sync.Mutex
	log       *applog.Log // nil once closed
	path      string
	recovered []RecoveredJob
	maxSeq    int
}

// RecoveredJob is one job reconstructed by replay: its original ID and
// request, plus where it stood — a terminal state (history), or
// StateInterrupted (resumable; the server re-dispatches it).
type RecoveredJob struct {
	ID    string
	Req   apiv1.JobRequest
	State apiv1.JobState
	Err   *apiv1.Error
}

// OpenJournal opens (creating if needed) the journal at path and replays
// it: every admitted job is reconstructed under Recovered, in admission
// order.
func OpenJournal(path string) (*Journal, error) {
	lg, err := applog.Open(path, "journal")
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	jr := &Journal{log: lg, path: path}
	byID := make(map[string]int) // id → index into jr.recovered
	err = lg.ReadNew(func(line []byte) {
		rec, err := apiv1.DecodeJournalRecord(line)
		if err != nil {
			return // a capped torn fragment: skip it
		}
		switch rec.Kind {
		case apiv1.JournalKindSubmit:
			if _, dup := byID[rec.ID]; dup {
				return // duplicate submit: first wins
			}
			byID[rec.ID] = len(jr.recovered)
			jr.recovered = append(jr.recovered, RecoveredJob{
				ID: rec.ID, Req: *rec.Req, State: apiv1.StateInterrupted,
			})
			var seq int
			if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err == nil && seq > jr.maxSeq {
				jr.maxSeq = seq
			}
		case apiv1.JournalKindState:
			if i, ok := byID[rec.ID]; ok { // state for an unknown id: stale noise
				jr.recovered[i].State = rec.State
				jr.recovered[i].Err = rec.Error
			}
		}
	})
	if err != nil {
		_ = lg.Close()
		return nil, fmt.Errorf("campaign: journal: replay: %w", err)
	}
	// Replay leaves non-terminal last-known states (queued, running) as
	// what they now are: interrupted.
	for i := range jr.recovered {
		if !jr.recovered[i].State.Terminal() {
			jr.recovered[i].State = apiv1.StateInterrupted
			if jr.recovered[i].Err == nil {
				jr.recovered[i].Err = &apiv1.Error{
					Type:    apiv1.ErrInterrupted,
					Message: "server stopped while the job was in flight; re-dispatched on journal replay",
				}
			}
		}
	}
	return jr, nil
}

// Recovered returns the jobs reconstructed by replay, in admission order.
func (jr *Journal) Recovered() []RecoveredJob { return jr.recovered }

// MaxSeq returns the highest numeric job id replayed ("j%06d" form), so a
// recovering server continues the id sequence instead of reissuing ids.
func (jr *Journal) MaxSeq() int { return jr.maxSeq }

// Path returns the journal's file path.
func (jr *Journal) Path() string { return jr.path }

// Submit durably records an admitted job: the record is appended and
// fsynced before return, so an acknowledged job can never be forgotten.
func (jr *Journal) Submit(id string, req *apiv1.JobRequest) error {
	line, err := apiv1.EncodeJournalSubmit(id, req)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return jr.append(line)
}

// Record durably records a lifecycle edge (terminal state or
// interruption) for a previously submitted job.
func (jr *Journal) Record(id string, state apiv1.JobState, jerr *apiv1.Error) error {
	line, err := apiv1.EncodeJournalState(id, state, jerr)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return jr.append(line)
}

// append appends one record line and fsyncs it.
func (jr *Journal) append(line []byte) error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.log == nil {
		return fmt.Errorf("campaign: journal: closed")
	}
	if err := jr.log.Append(line); err != nil {
		return fmt.Errorf("campaign: journal: append: %w", err)
	}
	if err := jr.log.Sync(); err != nil {
		return fmt.Errorf("campaign: journal: sync: %w", err)
	}
	return nil
}

// Sync forces the journal to disk (graceful-shutdown flush).
func (jr *Journal) Sync() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.log == nil {
		return nil
	}
	if err := jr.log.Sync(); err != nil {
		return fmt.Errorf("campaign: journal: sync: %w", err)
	}
	return nil
}

// Close fsyncs and closes the journal file.
func (jr *Journal) Close() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.log == nil {
		return nil
	}
	serr := failpoint.Do(fpJournalClose, jr.log.Sync)
	cerr := jr.log.Close()
	jr.log = nil
	if serr != nil {
		return fmt.Errorf("campaign: journal: close: %w", serr)
	}
	return cerr
}
