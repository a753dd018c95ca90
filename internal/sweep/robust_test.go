package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/sim"
)

// wedgedConfig returns a configuration guaranteed to trip the no-commit
// watchdog: one commit-starvation window longer than the watchdog horizon.
func wedgedConfig() sim.Config {
	cfg := tinyConfig()
	cfg.WatchdogTicks = 20_000
	cfg.Faults = &faults.Plan{
		Seed:  3,
		Specs: []faults.Spec{{Kind: faults.CommitStarve, Period: 4000, Duration: 50_000}},
	}
	return cfg
}

// TestRunErrorStructured pins the failure taxonomy: a wedged point fails
// with a *RunError wrapping the simulator's structured *CheckError (kind
// watchdog, snapshot populated) — not a bare panic, not a hang.
func TestRunErrorStructured(t *testing.T) {
	e := New(Workers(1))
	_, err := e.Run(context.Background(), []Point{
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RunError", err, err)
	}
	if re.Key != "wedged" || re.Benchmark != "mcf" || re.Attempts != 1 || re.Fingerprint == "" {
		t.Fatalf("RunError fields wrong: %+v", re)
	}
	var ce *sim.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("RunError does not wrap the CheckError: %v", err)
	}
	if ce.Kind != sim.FailWatchdog {
		t.Fatalf("kind = %v, want watchdog", ce.Kind)
	}
	if ce.Snapshot.Tick == 0 || len(ce.Snapshot.FaultLog) == 0 {
		t.Fatalf("snapshot not populated: %+v", ce.Snapshot)
	}
	if st := e.Stats(); st.Failed != 1 || st.Ran != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The failed point is uncached: a later campaign re-attempts it.
	_, err2 := e.Run(context.Background(), []Point{
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	})
	if e.Stats().Failed != 2 {
		t.Fatalf("failed point was served from cache: %v", err2)
	}
}

// TestFailFastCancelsInFlight pins the default first-failure semantics: a
// failing point promptly aborts a long in-flight simulation through its
// stop channel instead of letting it run to completion.
func TestFailFastCancelsInFlight(t *testing.T) {
	slow := tinyConfig()
	slow.MeasureInstructions = 20_000_000 // many seconds if allowed to finish
	pts := []Point{
		{Key: "slow", Benchmark: "mcf", Config: slow},
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	}
	e := New(Workers(2))
	start := time.Now()
	out, err := e.RunAll(context.Background(), pts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var re *RunError
	if !errors.As(out[1].Err, &re) {
		t.Fatalf("wedged point: err = %v, want *RunError", out[1].Err)
	}
	if !isCancel(out[0].Err) {
		t.Fatalf("slow point was not aborted: err = %v (res ticks %d, took %v)",
			out[0].Err, out[0].Res.Ticks, elapsed)
	}
	if st := e.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestContinueOnError pins the keep-going mode: a failing point does not
// stop the campaign — every other point completes and the failure is
// annotated per point by RunAll (and still surfaced by Run).
func TestContinueOnError(t *testing.T) {
	pts := []Point{
		{Key: "good-a", Benchmark: "eon", Config: tinyConfig()},
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
		{Key: "good-b", Benchmark: "eon", Seed: 1, Config: tinyConfig()},
	}
	e := New(Workers(1), ContinueOnError())
	out, err := e.RunAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good points failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[0].Res.Instructions == 0 || out[2].Res.Instructions == 0 {
		t.Fatal("good points missing results")
	}
	var re *RunError
	if !errors.As(out[1].Err, &re) {
		t.Fatalf("wedged point: err = %v, want *RunError", out[1].Err)
	}
	if st := e.Stats(); st.Ran != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Run on the same campaign reports the genuine failure, not the goods.
	_, err = New(Workers(1), ContinueOnError()).Run(context.Background(), pts)
	if !errors.As(err, &re) || re.Key != "wedged" {
		t.Fatalf("Run err = %v", err)
	}
}

// TestRunTimeoutRetries pins the deadline + retry path: a run that cannot
// finish inside its wall-clock budget fails with kind deadline, is
// classified transient, and is retried exactly Retries times.
func TestRunTimeoutRetries(t *testing.T) {
	big := tinyConfig()
	big.MeasureInstructions = 50_000_000 // cannot finish in a millisecond
	e := New(Workers(1), RunTimeout(time.Millisecond), Retries(2))
	e.backoff = time.Millisecond
	_, err := e.Run(context.Background(), []Point{
		{Key: "slow", Benchmark: "mcf", Config: big},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", re.Attempts)
	}
	var ce *sim.CheckError
	if !errors.As(err, &ce) || ce.Kind != sim.FailDeadline {
		t.Fatalf("underlying error = %v, want deadline CheckError", re.Err)
	}
	if st := e.Stats(); st.Retried != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCheckpointResume pins the resume contract: a campaign interrupted
// after a prefix completes from the ledger it left behind — only the
// missing points run, and the assembled results are bit-identical to an
// uninterrupted campaign's.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()

	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	// First lifetime: complete only the first half, then "die".
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(2), WithLedger(led)).Run(context.Background(), pts[:2]); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: reopen and run the full campaign.
	led2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if led2.Loaded() != 2 {
		t.Fatalf("loaded %d records, want 2", led2.Loaded())
	}
	e := New(Workers(2), WithLedger(led2))
	got, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.LedgerHits != 2 || st.Ran != 2 {
		t.Fatalf("stats = %+v, want 2 ledger hits + 2 ran", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed results differ from uninterrupted results")
	}
}

// TestCheckpointTornTail pins kill-tolerance: a ledger whose final line was
// torn by a mid-write kill loads every complete record, and stays
// appendable — the next append caps the fragment into one skipped line.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()

	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(1), WithLedger(led)).Run(context.Background(), pts[:2]); err != nil {
		t.Fatal(err)
	}
	led.Close()

	// Simulate a kill mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"dead","key":"torn","res":{"Benchm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	led2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if led2.Loaded() != 2 {
		t.Fatalf("loaded %d records after torn tail, want 2", led2.Loaded())
	}
	// Still appendable: complete the campaign and reload it all.
	if _, err := New(Workers(1), WithLedger(led2)).Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	led2.Close()
	led3, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led3.Close()
	if led3.Loaded() != len(pts) || led3.Skipped() != 1 {
		t.Fatalf("loaded %d records (skipped %d) after resume, want %d (skipped 1: the capped fragment)",
			led3.Loaded(), led3.Skipped(), len(pts))
	}
	e := New(Workers(1), WithLedger(led3))
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Ran != 0 || st.LedgerHits != len(pts) {
		t.Fatalf("full ledger did not satisfy the campaign: %+v", st)
	}
}

// TestCheckpointRoundTripExact pins the byte-identity foundation: results
// loaded from a ledger are bit-identical (every float64) to the originals.
func TestCheckpointRoundTripExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(2), WithLedger(led)).Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	led.Close()
	led2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	for i, p := range pts {
		fp, _ := p.Fingerprint()
		got, ok := led2.Lookup(fp)
		if !ok {
			t.Fatalf("point %q missing from the ledger", p.Key)
		}
		if !reflect.DeepEqual(want[i], got) {
			t.Fatalf("point %q did not round-trip exactly:\nwant %+v\ngot  %+v", p.Key, want[i], got)
		}
	}
}

// TestCheckpointLegacyFileLoads pins backward compatibility: a checkpoint
// file written before versioning (v0 lines: Go field names, no "v"), ending
// in a torn tail, opens as a ledger and satisfies its campaign without
// running anything.
func TestCheckpointLegacyFileLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	var file []byte
	for i, p := range pts {
		fp, _ := p.Fingerprint()
		line, err := json.Marshal(struct {
			FP  string      `json:"fp"`
			Key string      `json:"key"`
			Res sim.Results `json:"res"`
		}{fp, p.Key, want[i]})
		if err != nil {
			t.Fatal(err)
		}
		file = append(append(file, line...), '\n')
	}
	file = append(file, `{"fp":"dead","key":"torn","res":{"Bench`...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	e := New(Workers(2), WithLedger(led))
	got, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Ran != 0 || st.LedgerHits != len(pts) {
		t.Fatalf("legacy checkpoint did not satisfy the campaign: %+v", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("legacy checkpoint results differ from a fresh run")
	}
}

// TestCheckpointResumeReclaimsDeadClaims pins the single-writer resume
// path across a real process death: a predecessor process, opened with the
// default worker id, is killed mid-append while holding a claim that would
// stay live for an hour. A successor opening the same file under the
// default id owns that claim and re-runs the point at once. Were the id
// per-process, the claim would be foreign and live: the ownership check
// below fails, and without it the run would wait out the hour — there is no
// timing bound to tune.
func TestCheckpointResumeReclaimsDeadClaims(t *testing.T) {
	if path := os.Getenv("SWEEP_DEAD_PREDECESSOR"); path != "" {
		// The predecessor: claim and complete points until the armed
		// ledger.append crash kills this process mid-write.
		led, err := OpenLedger(path, LedgerClaimTTL(time.Hour))
		if err != nil {
			os.Exit(1)
		}
		New(Workers(1), WithLedger(led)).Run(context.Background(), testPoints())
		os.Exit(0) // unreachable when the crash schedule works
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	// Appends 1-3: claim p0, complete p0, claim p1; append 4 (p1's
	// completion) tears and the process dies holding p1's claim.
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCheckpointResumeReclaimsDeadClaims$")
	cmd.Env = append(os.Environ(),
		"SWEEP_DEAD_PREDECESSOR="+path,
		failpoint.EnvVar+"=ledger.append=crash@4")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != failpoint.CrashExitCode {
		t.Fatalf("predecessor exited %v (output %q), want exit %d", err, out, failpoint.CrashExitCode)
	}

	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(path, LedgerClaimTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	fp1, _ := pts[1].Fingerprint()
	if claims := led.ClaimsBy(led.Worker()); len(claims) != 1 || claims[0].FP != fp1 {
		t.Fatalf("claims the successor owns = %v, want exactly the dead predecessor's claim on p1", claims)
	}
	e := New(Workers(2), WithLedger(led))
	got, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.LedgerHits != 1 || st.Ran != 3 || st.Steals != 0 {
		t.Fatalf("stats = %+v, want 1 ledger hit, 3 ran, no steals", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed results differ from uninterrupted results")
	}
}
