// Command vsvbench is the repository's benchmark: it times the paper
// campaign, the sweep engine's per-point orchestration and the campaign
// service, checks their outputs, and with -trace 1 attributes the time to
// layers. See README.md for the workloads, the metrics and what each
// layer metric is predicted to move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	sh cmd/vsvbench/run.sh --workload paper_all --seed 1 --seconds 25 --trace 0
//	sh cmd/vsvbench/run.sh --workload all --seed 1
//	sh cmd/vsvbench/run.sh --compare old.json new.json
//
// Every metric is printed by name with its unit; the last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}. Each run
// also writes its environment-stamped report (and, traced, its spans)
// under .bench_build/reports.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *run) error{
	"paper_all":  paperAll,
	"sweep_grid": sweepGrid,
	"service":    serviceWorkload,
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"paper_all", "sweep_grid", "service"}

const outDir = ".bench_build"

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper_all, sweep_grid, service or all")
		seed    = flag.Uint64("seed", 1, "workload seed (inputs are generated from it)")
		seconds = flag.Int("seconds", 25, "measurement time per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		compare = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files"))
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be positive, not %d", *seconds))
	}
	if *wl == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	fn, ok := workloads[*wl]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want paper_all, sweep_grid, service or all)", *wl))
	}
	r := &run{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		metrics:  map[string]Metric{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	res, err := execute(r, fn)
	if err != nil {
		fatal(err)
	}
	printResult(r, res)
}

// execute runs one workload in a scratch directory it removes afterwards,
// and writes the report (and spans) under outDir/reports.
func execute(r *run, fn func(context.Context, *run) error) (Result, error) {
	base := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return Result{}, err
	}
	tmp, err := os.MkdirTemp(base, r.workload+"-")
	if err != nil {
		return Result{}, err
	}
	r.tmp = tmp
	err = fn(context.Background(), r)
	if rerr := os.RemoveAll(tmp); err == nil {
		err = rerr
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	if _, ok := r.metrics["peak_rss_mb"]; !ok && !r.traced {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	res := Result{
		Correct:   r.t.Failed == 0,
		Attempted: r.t.Attempted,
		Failed:    r.t.Failed,
		Metrics:   r.metrics,
	}
	if res.Attempted == 0 {
		return res, errors.New("no operation was attempted")
	}
	rep := Report{
		Env:      currentEnv(),
		Workload: r.workload,
		Seed:     r.seed,
		Seconds:  int(r.seconds / time.Second),
		Trace:    r.traced,
		Notes:    append(append([]string(nil), r.notes...), r.t.Problems...),
		Result:   res,
	}
	dir := filepath.Join(outDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, btoi(r.traced))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
		return res, err
	}
	return res, r.tr.write(filepath.Join(dir, name+".spans.jsonl"))
}

// printResult prints the environment, every metric by name with its unit,
// the notes and failures, and last the result object.
func printResult(r *run, res Result) {
	env := currentEnv()
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s goamd64=%s cpu=%q\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOAMD64, env.CPUModel)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", r.workload, r.seed, int(r.seconds/time.Second), btoi(r.traced))
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Printf("  %-34s %16s %s (%d of %d)\n", "failed_frac", strconv.FormatFloat(r.t.frac(), 'g', 8, 64),
		"frac", res.Failed, res.Attempted)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.t.Problems {
		fmt.Println("FAILED:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runAll runs each workload in its own process (so peak RSS is per
// workload) and prints a combined result with workload-prefixed metrics.
func runAll(seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, wl := range workloadOrder {
		cmd := exec.Command(self, "-workload", wl, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		var res Result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("%s: result: %w", wl, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for _, n := range sortedKeys(res.Metrics) {
			all.Metrics[wl+"/"+n] = res.Metrics[n]
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsvbench:", err)
	os.Exit(1)
}
