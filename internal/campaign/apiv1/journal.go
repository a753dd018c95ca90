package apiv1

import (
	"encoding/json"
	"fmt"
)

// Journal record kinds. The campaign server's job journal is a WAL-style
// JSONL file, one record per line, written O_APPEND like the ledger: a
// submit record when a job is accepted (before it is queued, so an
// accepted job can never be forgotten) and a state record at every
// durable lifecycle edge (terminal states, cancellation, interruption).
// Replay folds the lines per job ID in order; the last state wins.
const (
	// JournalKindSubmit records an accepted job: ID plus the full request,
	// enough to re-dispatch the job from scratch after a crash.
	JournalKindSubmit = "submit"
	// JournalKindState records a lifecycle edge for a previously submitted
	// ID. Terminal states survive restarts as history; the interrupted
	// state marks resumable work a replaying server re-dispatches.
	JournalKindState = "state"
)

// JournalRecord is one line of the campaign server's job journal.
type JournalRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Req is the accepted request (submit records only).
	Req *JobRequest `json:"req,omitempty"`
	// State is the new lifecycle state (state records only).
	State JobState `json:"state,omitempty"`
	// Error carries the failure or interruption cause, when there is one.
	Error *Error `json:"error,omitempty"`
}

// EncodeJournalSubmit renders one v1 submit line (no trailing newline).
func EncodeJournalSubmit(id string, req *JobRequest) ([]byte, error) {
	if id == "" || req == nil {
		return nil, fmt.Errorf("apiv1: journal submit needs id and request")
	}
	return json.Marshal(JournalRecord{V: Version, Kind: JournalKindSubmit, ID: id, Req: req})
}

// EncodeJournalState renders one v1 state line (no trailing newline).
func EncodeJournalState(id string, state JobState, jerr *Error) ([]byte, error) {
	if id == "" || state == "" {
		return nil, fmt.Errorf("apiv1: journal state needs id and state")
	}
	return json.Marshal(JournalRecord{V: Version, Kind: JournalKindState, ID: id, State: state, Error: jerr})
}

// DecodeJournalRecord parses one journal line. Replay skips a line this
// rejects (a capped torn fragment) and keeps reading; nothing truncates.
func DecodeJournalRecord(line []byte) (JournalRecord, error) {
	var r JournalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return JournalRecord{}, err
	}
	if r.V != Version {
		return JournalRecord{}, fmt.Errorf("apiv1: journal record version %d != %d", r.V, Version)
	}
	if r.ID == "" {
		return JournalRecord{}, fmt.Errorf("apiv1: journal record missing id")
	}
	switch r.Kind {
	case JournalKindSubmit:
		if r.Req == nil {
			return JournalRecord{}, fmt.Errorf("apiv1: journal submit record missing request")
		}
	case JournalKindState:
		switch r.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted:
		default:
			return JournalRecord{}, fmt.Errorf("apiv1: journal state record has unknown state %q", r.State)
		}
	default:
		return JournalRecord{}, fmt.Errorf("apiv1: unknown journal record kind %q", r.Kind)
	}
	return r, nil
}
