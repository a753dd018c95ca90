package apiv1_test

import (
	"bytes"
	"testing"

	"repro/internal/campaign/apiv1"
)

// FuzzDecodeJournalRecord pins the journal codec's replay fidelity: any
// line DecodeJournalRecord accepts re-encodes (through the encoder its kind
// uses) to a line that decodes again to an equal record — equal on the
// wire, where an omitted empty list and a nil one are the same request.
// Replay reconstructs jobs from these lines, so a record that changed
// across the round trip would resume a different job than the one
// acknowledged.
func FuzzDecodeJournalRecord(f *testing.F) {
	if line, err := apiv1.EncodeJournalSubmit("j000001", &apiv1.JobRequest{
		Artefacts: []string{"fig4", "summary"}, Benchmarks: []string{"mcf"},
		Thresholds: []int{3}, Seeds: 2, WarmupInstructions: 2000, RunBudget: 9,
	}); err == nil {
		f.Add(line)
		f.Add(line[:len(line)/2]) // torn submit
	}
	if line, err := apiv1.EncodeJournalState("j000002", apiv1.StateFailed, &apiv1.Error{
		Type: apiv1.ErrRun, Message: "point failed", Key: "k", Attempts: 2,
		Cause: &apiv1.Error{Type: apiv1.ErrCheck, Message: "watchdog", Tick: 40},
	}); err == nil {
		f.Add(line)
	}
	if line, err := apiv1.EncodeJournalState("j000003", apiv1.StateDone, nil); err == nil {
		f.Add(line)
	}
	f.Add([]byte(`{"v":1,"kind":"submit","id":"j1","req":{"artefacts":[]}}`))
	f.Add([]byte(`{"v":1,"kind":"state","id":"j1","state":"bogus"}`))
	f.Add([]byte(`{"v":2,"kind":"submit","id":"j1","req":{}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := apiv1.DecodeJournalRecord(line)
		if err != nil {
			return
		}
		enc := encodeJournal(t, rec)
		rt, err := apiv1.DecodeJournalRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\n%s", err, enc)
		}
		if again := encodeJournal(t, rt); !bytes.Equal(again, enc) {
			t.Fatalf("record changed in round trip:\nwas %s\nnow %s", enc, again)
		}
	})
}

// encodeJournal re-encodes a decoded record through its kind's encoder.
func encodeJournal(t *testing.T, rec apiv1.JournalRecord) []byte {
	t.Helper()
	var enc []byte
	var err error
	if rec.Kind == apiv1.JournalKindSubmit {
		enc, err = apiv1.EncodeJournalSubmit(rec.ID, rec.Req)
	} else {
		enc, err = apiv1.EncodeJournalState(rec.ID, rec.State, rec.Error)
	}
	if err != nil {
		t.Fatalf("accepted record failed to encode: %v", err)
	}
	return enc
}
