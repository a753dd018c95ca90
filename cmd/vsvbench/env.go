package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Env is the environment a report was measured in. Numbers from different
// environments do not compare, so compareReports refuses to diff them.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv() Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				e.GOAMD64 = s.Value
			}
		}
	}
	return e
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is what a run writes to disk: the result stamped with its
// environment and inputs, plus notes (percentile levels, failures).
type Report struct {
	Env      Env      `json:"env"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Notes    []string `json:"notes,omitempty"`
	Result   Result   `json:"result"`
}

func readReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints each metric of two reports side by side with the
// relative change. It refuses reports from different environments or of
// different workloads, seconds or trace modes.
func compareReports(w io.Writer, oldPath, newPath string) error {
	a, err := readReport(oldPath)
	if err != nil {
		return err
	}
	b, err := readReport(newPath)
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		return fmt.Errorf("refusing to compare reports from different environments:\n  %s: %+v\n  %s: %+v",
			oldPath, a.Env, newPath, b.Env)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare different runs: %s/%ds/trace=%v vs %s/%ds/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Result.Metrics[n]
		mb, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.6g %-8s (missing in new)\n", n, ma.Value, ma.Unit)
			continue
		}
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-32s %14.6g -> %-14.6g %-8s %s\n", n, ma.Value, mb.Value, ma.Unit, change)
	}
	return nil
}
