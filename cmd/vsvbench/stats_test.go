package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tailPercentile must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value float64
		q     float64
	}{
		{11, 1, 1.0 / 11},  // the smallest count with a valid tail
		{100, 90, 0.90},    // ten beyond caps the level below p99
		{1000, 990, 0.99},  // exactly p99 with ten beyond
		{2000, 1980, 0.99}, // p99 itself once there are enough samples
		{1099, 1089, 0.99}, // nearest rank ceil(0.99n) binds before n-10
	} {
		got := tailPercentile(seq(tc.n))
		if !got.OK || got.N != tc.n || got.Value != tc.value {
			t.Errorf("n=%d: got %+v, want value %v", tc.n, got, tc.value)
			continue
		}
		if d := got.Q - tc.q; d > 1e-4 || d < -1e-4 {
			t.Errorf("n=%d: level %v, want %v", tc.n, got.Q, tc.q)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the reported percentile, want >= 10", tc.n, beyond)
		}
		if got.Q > 0.99 {
			t.Errorf("n=%d: level %v above p99", tc.n, got.Q)
		}
	}
	if got := tailPercentile(seq(10)); got.OK || got.N != 10 {
		t.Errorf("n=10: got %+v, want not OK with n reported", got)
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	due := uniformSchedule(4, 10)
	for i, d := range due {
		if want := time.Duration(i) * 100 * time.Millisecond; d != want {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	arr := []arrival{
		{Due: due[0], Sent: msd(0), Done: msd(5), OK: true},
		// Sent 30 ms late behind a stall: charged from its due time.
		{Due: due[1], Sent: msd(130), Done: msd(140), OK: true},
		// Sent early (timer slack): lateness never negative.
		{Due: due[2], Sent: msd(199), Done: msd(203), OK: true},
		// Refused: counts as failed, has no latency, is still scheduled.
		{Due: due[3], Sent: msd(300), Done: msd(301), OK: false},
	}
	s := summarizeLoad(arr)
	wantLat := []float64{5, 40, 3}
	if len(s.Latency) != len(wantLat) {
		t.Fatalf("latencies %v, want %v", s.Latency, wantLat)
	}
	for i, w := range wantLat {
		if d := s.Latency[i] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("latency[%d] = %v, want %v (due to done)", i, s.Latency[i], w)
		}
	}
	wantLate := []float64{0, 30, 0, 0}
	for i, w := range wantLate {
		if d := s.Late[i] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("late[%d] = %v, want %v", i, s.Late[i], w)
		}
	}
	if s.Failed != 1 {
		t.Errorf("failed = %d, want 1", s.Failed)
	}
	if s.Span != msd(203) {
		t.Errorf("span = %v, want first due to last successful done (203ms)", s.Span)
	}
}

func TestBacklogGrowing(t *testing.T) {
	mk := func(lat func(i int) float64) []arrival {
		arr := make([]arrival, 40)
		for i := range arr {
			d := time.Duration(i) * 10 * time.Millisecond
			arr[i] = arrival{Due: d, Sent: d, Done: d + time.Duration(lat(i)*float64(time.Millisecond)), OK: true}
		}
		return arr
	}
	if backlogGrowing(mk(func(int) float64 { return 5 })) {
		t.Error("steady latency reported as a growing backlog")
	}
	if !backlogGrowing(mk(func(i int) float64 { return float64(10 * i) })) {
		t.Error("latency growing with every request not reported as a growing backlog")
	}
}

func TestTallyFailureAccounting(t *testing.T) {
	var a tally
	a.ok(3)
	a.check(true, "unused")
	a.check(false, "digest mismatch")
	a.fail("refused")
	if a.Attempted != 6 || a.Failed != 2 {
		t.Fatalf("tally = %+v, want 6 attempted, 2 failed", a)
	}
	if got := a.frac(); got != 2.0/6 {
		t.Errorf("frac = %v, want 1/3", got)
	}
	if strings.Join(a.Problems, ",") != "digest mismatch,refused" {
		t.Errorf("problems = %v", a.Problems)
	}
	for i := 0; i < 30; i++ {
		a.fail("x")
	}
	if a.Attempted != 36 || a.Failed != 32 || len(a.Problems) != 20 {
		t.Errorf("after 30 more failures: %d attempted, %d failed, %d problems kept; want 36, 32, 20",
			a.Attempted, a.Failed, len(a.Problems))
	}
	if (tally{}).frac() != 0 {
		t.Error("empty tally frac != 0")
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r Report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	env := currentEnv()
	res := Result{Metrics: map[string]Metric{"wall_s": {Value: 2, Unit: "s"}}}
	a := write("a.json", Report{Env: env, Workload: "paper_all", Seconds: 20, Result: res})
	b := write("b.json", Report{Env: env, Workload: "paper_all", Seconds: 20, Result: res})
	var out strings.Builder
	if err := compareReports(&out, a, b); err != nil || !strings.Contains(out.String(), "wall_s") {
		t.Fatalf("same environment: err %v, output %q", err, out.String())
	}
	other := env
	other.GOMAXPROCS++
	c := write("c.json", Report{Env: other, Workload: "paper_all", Seconds: 20, Result: res})
	if err := compareReports(&out, a, c); err == nil || !strings.Contains(err.Error(), "different environments") {
		t.Errorf("different GOMAXPROCS compared: err %v", err)
	}
}
