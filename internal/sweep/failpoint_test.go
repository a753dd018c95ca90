package sweep

import (
	"context"
	"errors"
	"io"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign/apiv1"
	"repro/internal/failpoint"
)

// These tests drive the durable write paths through internal/failpoint:
// every injected failure must surface as a typed error or be recovered on
// reopen — never silent corruption. They are the library half of the
// crash-safety story (the process half lives in cmd/vsvcampaign's and
// internal/campaign's suites).

// TestCheckpointFailpointTornAppend pins ENOSPC behavior on a
// single-writer ledger across a restart: the caller gets a typed error with
// ENOSPC in the chain; a reopen keeps every earlier record and does not
// resurrect the torn one; and the torn point re-completes cleanly, its
// append capping the fragment left on disk.
func TestCheckpointFailpointTornAppend(t *testing.T) {
	defer failpoint.Disarm()
	path := t.TempDir() + "/cp.jsonl"
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints()
	want, err := New(Workers(1)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(pts))
	for i, p := range pts {
		fps[i], _ = p.Fingerprint()
	}
	if err := led.Complete(fps[0], pts[0].Key, want[0]); err != nil {
		t.Fatal(err)
	}

	// The second completion tears: half the line reaches the file, then
	// ENOSPC.
	if err := failpoint.Arm("ledger.append=enospc"); err != nil {
		t.Fatal(err)
	}
	err = led.Complete(fps[1], pts[1].Key, want[1])
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn Complete = %v, want ENOSPC in chain", err)
	}
	var fe *failpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("torn Complete error is not typed: %v", err)
	}
	failpoint.Disarm()
	led.Close()

	// Reopen: the good record survives, the torn tail stays pending, and
	// the torn point re-completes cleanly.
	re, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Loaded() != 1 {
		t.Fatalf("reopen loaded %d records, want 1", re.Loaded())
	}
	if got, ok := re.Lookup(fps[0]); !ok || !reflect.DeepEqual(got, want[0]) {
		t.Fatal("record before the torn line lost on reopen")
	}
	if _, ok := re.Lookup(fps[1]); ok {
		t.Fatal("torn record resurrected on reopen")
	}
	if err := re.Complete(fps[1], pts[1].Key, want[1]); err != nil {
		t.Fatalf("re-complete after recovery: %v", err)
	}
	re.Close()

	// The capped fragment skips as one bad line; both records decode.
	again, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Loaded() != 2 || again.Skipped() != 1 {
		t.Fatalf("after repair: loaded %d, skipped %d; want 2 and 1", again.Loaded(), again.Skipped())
	}
	if got, ok := again.Lookup(fps[1]); !ok || !reflect.DeepEqual(got, want[1]) {
		t.Fatal("re-completed record lost behind the capped fragment")
	}
}

// TestLedgerFailpointTornAppend pins multi-writer ENOSPC recovery: a torn
// completion line surfaces as a typed ENOSPC error, the next append repairs
// the tail (terminating the fragment so it skips as one bad line), and a
// fresh handle recovers everything except the torn record — which stays
// claimable and re-runnable.
func TestLedgerFailpointTornAppend(t *testing.T) {
	defer failpoint.Disarm()
	path := ledgerPath(t)
	led, err := OpenLedger(path, LedgerWorker("torn"))
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints()
	res, err := New(Workers(1)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(pts))
	for i, p := range pts {
		fps[i], _ = p.Fingerprint()
	}

	if err := failpoint.Arm("ledger.append=enospc"); err != nil {
		t.Fatal(err)
	}
	err = led.Complete(fps[0], pts[0].Key, res[0])
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn Complete = %v, want ENOSPC in chain", err)
	}
	failpoint.Disarm()

	// The handle keeps working: the next append must repair the torn tail
	// so this record decodes for every reader.
	if err := led.Complete(fps[1], pts[1].Key, res[1]); err != nil {
		t.Fatalf("Complete after torn append: %v", err)
	}

	fresh, err := OpenLedger(path, LedgerWorker("reader"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.Lookup(fps[1]); !ok {
		t.Fatal("completion after the torn line lost")
	}
	if _, ok := fresh.Lookup(fps[0]); ok {
		t.Fatal("torn completion resurrected")
	}
	if fresh.Skipped() != 1 {
		t.Errorf("Skipped=%d, want 1 (the terminated torn fragment)", fresh.Skipped())
	}
	if won, _, err := fresh.TryClaim(fps[0], pts[0].Key); err != nil || !won {
		t.Fatalf("torn point not re-claimable: won=%v err=%v", won, err)
	}
	led.Close()
}

// TestLedgerFailpointShortWriteClaim pins the same tear on the claim path
// with io.ErrShortWrite: TryClaim surfaces the typed error and the engine
// treats the point as unclaimed everywhere.
func TestLedgerFailpointShortWriteClaim(t *testing.T) {
	defer failpoint.Disarm()
	path := ledgerPath(t)
	led, err := OpenLedger(path, LedgerWorker("short"))
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("ledger.append=short"); err != nil {
		t.Fatal(err)
	}
	_, _, cerr := led.TryClaim("fpX", "k")
	if !errors.Is(cerr, io.ErrShortWrite) {
		t.Fatalf("torn TryClaim = %v, want ErrShortWrite in chain", cerr)
	}
	failpoint.Disarm()
	led.Close()

	fresh, err := OpenLedger(path, LedgerWorker("reader"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if won, _, err := fresh.TryClaim("fpX", "k"); err != nil || !won {
		t.Fatalf("point behind torn claim not claimable: won=%v err=%v", won, err)
	}
}

// TestLedgerPoisonQuarantine pins the quarantine protocol end to end: a
// poisoned fingerprint fails typed (apiv1.ErrPoisoned) through the engine
// without running, other handles see the quarantine after refresh, and a
// completion supersedes it.
func TestLedgerPoisonQuarantine(t *testing.T) {
	path := ledgerPath(t)
	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	fp0, _ := pts[0].Fingerprint()

	parent, err := OpenLedger(path, LedgerWorker("parent"))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Poison(fp0, pts[0].Key, "crashed 2 workers (exit 17)"); err != nil {
		t.Fatal(err)
	}
	parent.Close()

	led, err := OpenLedger(path, LedgerWorker("w"), LedgerPoll(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if reason, ok := led.PoisonReason(fp0); !ok || reason == "" {
		t.Fatal("poison record not visible to a fresh handle")
	}
	if won, _, err := led.TryClaim(fp0, pts[0].Key); err != nil || won {
		t.Fatalf("poisoned point claimed: won=%v err=%v", won, err)
	}

	// Through the engine (ContinueOnError): the poisoned point fails typed,
	// every other point still runs to the reference result.
	e := New(Workers(2), WithLedger(led), ContinueOnError())
	out, err := e.RunAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PoisonedError
	if out[0].Err == nil || !errors.As(out[0].Err, &pe) {
		t.Fatalf("poisoned point outcome = %v, want *PoisonedError", out[0].Err)
	}
	if ae := APIError(out[0].Err); ae.Type != apiv1.ErrPoisoned || ae.Fingerprint != fp0 {
		t.Fatalf("poisoned wire error = %+v, want type %q", ae, apiv1.ErrPoisoned)
	}
	for i := 1; i < len(pts); i++ {
		if out[i].Err != nil {
			t.Fatalf("healthy point %d failed: %v", i, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res, want[i]) {
			t.Fatalf("healthy point %d diverged from the reference", i)
		}
	}

	// A completion supersedes the quarantine (the point ran somewhere).
	healer, err := OpenLedger(path, LedgerWorker("healer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := healer.Complete(fp0, pts[0].Key, want[0]); err != nil {
		t.Fatal(err)
	}
	healer.Close()
	if err := led.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok := led.PoisonReason(fp0); ok {
		t.Fatal("completion did not supersede the quarantine")
	}
	if got, ok := led.Lookup(fp0); !ok || !reflect.DeepEqual(got, want[0]) {
		t.Fatal("superseding completion not served")
	}
}

// TestLedgerClaimsBy pins the supervisor's view: after a refresh, a dead
// worker's claims are attributable to it by name.
func TestLedgerClaimsBy(t *testing.T) {
	path := ledgerPath(t)
	dead, err := OpenLedger(path, LedgerWorker("w1g0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"fpA", "fpB"} {
		if won, _, err := dead.TryClaim(fp, "key-"+fp); err != nil || !won {
			t.Fatalf("claim %s: won=%v err=%v", fp, won, err)
		}
	}
	dead.Close() // dies holding both claims

	sup, err := OpenLedger(path, LedgerWorker("parent"))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	claims := sup.ClaimsBy("w1g0")
	if len(claims) != 2 {
		t.Fatalf("ClaimsBy(w1g0) = %v, want the dead worker's 2 claims", claims)
	}
	for _, c := range claims {
		if c.Key != "key-"+c.FP {
			t.Fatalf("claim %v lost its key", c)
		}
	}
	if got := sup.ClaimsBy("nobody"); len(got) != 0 {
		t.Fatalf("ClaimsBy(nobody) = %v, want none", got)
	}
}
