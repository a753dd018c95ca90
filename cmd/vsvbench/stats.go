package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count). It does not modify xs. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a tail-latency summary under the benchmark's percentile rule.
type tail struct {
	// Value is the reported percentile's sample; Q is its level (at most
	// 0.99) and N the sample count it was taken from.
	Value float64
	Q     float64
	N     int
	// OK is false when fewer than 11 samples exist, so no percentile has
	// ten samples beyond it.
	OK bool
}

// tailPercentile reports the highest percentile, capped at p99, that has
// at least ten samples strictly beyond it (nearest rank on the sorted
// samples). A p99 read from fewer samples than that is one or two
// outliers, not a distribution; reporting the lower level it can support,
// with n, keeps the number honest.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n < 11 {
		return tail{N: n}
	}
	s := sortedCopy(xs)
	k := n - 11 // n-1-k == 10 samples beyond index k
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < k {
		k = p99
	}
	// Nearest rank: index k is the (k+1)/n percentile, and p99 itself once
	// ceil(0.99n) is the binding rank.
	return tail{Value: s[k], Q: min(float64(k+1)/float64(n), 0.99), N: n, OK: true}
}

// arrival is one open-loop request: when it was due, when the generator
// actually sent it and when its result was received (all offsets from the
// schedule start). OK is false for a failed, refused or mismatched request.
type arrival struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// uniformSchedule returns n due times at a fixed rate, starting at zero.
func uniformSchedule(n int, ratePerS float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / ratePerS * float64(time.Second))
	}
	return due
}

// loadSummary is the open-loop accounting of one session.
type loadSummary struct {
	// Latency holds each successful request's due-to-done time in ms: a
	// request delayed by an earlier stall is charged that wait, which a
	// send-to-done clock would hide.
	Latency []float64
	// Late holds how far behind schedule the generator sent each request,
	// in ms (never negative).
	Late   []float64
	Failed int
	// Span is due of the first request to done of the last one.
	Span time.Duration
}

func summarizeLoad(arr []arrival) loadSummary {
	var s loadSummary
	for _, a := range arr {
		late := a.Sent - a.Due
		if late < 0 {
			late = 0
		}
		s.Late = append(s.Late, ms(late))
		if !a.OK {
			s.Failed++
			continue
		}
		s.Latency = append(s.Latency, ms(a.Done-a.Due))
		if a.Done > s.Span {
			s.Span = a.Done
		}
	}
	if len(arr) > 0 {
		s.Span -= arr[0].Due
	}
	return s
}

// backlogGrowing reports whether the last quarter of a session's requests
// waited markedly longer than the first quarter: a server that keeps up
// serves both alike, one falling behind queues each later request longer.
func backlogGrowing(arr []arrival) bool {
	q := len(arr) / 4
	if q < 5 {
		return false
	}
	lat := func(part []arrival) float64 {
		var xs []float64
		for _, a := range part {
			if a.OK {
				xs = append(xs, ms(a.Done-a.Due))
			}
		}
		return median(xs)
	}
	first, last := lat(arr[:q]), lat(arr[len(arr)-q:])
	return last > 2*first+20
}

// tally counts operations attempted and failed. Refusals and output-check
// mismatches are failures too: a wrong answer served fast is not a success.
type tally struct {
	Attempted, Failed int
	// Problems keeps the first few failure descriptions for the report.
	Problems []string
}

func (t *tally) ok(n int) { t.Attempted += n }

func (t *tally) fail(what string) {
	t.Attempted++
	t.Failed++
	if len(t.Problems) < 20 {
		t.Problems = append(t.Problems, what)
	}
}

// check records one output check: a success, or a failure described by
// what when cond is false.
func (t *tally) check(cond bool, what string) {
	if cond {
		t.ok(1)
	} else {
		t.fail(what)
	}
}

func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
