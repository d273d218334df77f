package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metric is one reported value with its unit, as it appears in the JSON
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints: the contract every run is
// judged by.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// validName is the shape every metric name must have.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// report collects one run's metrics and correctness verdict. Metrics
// print as "name value unit [note]" lines as they are set; the JSON
// result carries only the declared set of the run's mode.
type report struct {
	w        io.Writer
	metrics  map[string]metric
	failures []string
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: make(map[string]metric)}
}

// set records a metric and prints it. note (optional) rides along on the
// printed line, e.g. the sample count behind a percentile.
func (r *report) set(name string, v float64, unit, note string) {
	if !validName.MatchString(name) {
		panic("benchmark: invalid metric name " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  " + note
	}
	fmt.Fprintf(r.w, "%-44s %16.4f %-6s%s\n", name, v, unit, note)
}

// fail records a correctness failure; any failure fails the run.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		fmt.Fprintf(r.w, "CHECK FAILED: %s\n", msg)
	}
	r.failures = append(r.failures, msg)
}

// check fails the run with msg unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// result assembles the JSON result from the declared metrics. A declared
// metric the run never set is a bug in the benchmark, so it fails the run
// rather than being silently reported.
func (r *report) result(declared []decl, attempted, failed int64) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(declared))}
	for _, d := range declared {
		m, ok := r.metrics[d.name]
		if !ok {
			r.fail("metric %s was never measured", d.name)
			continue
		}
		res.Metrics[d.name] = m
	}
	if attempted < 1 {
		r.fail("no request was attempted")
		res.Attempted = 1
	}
	if failed > 0 {
		r.fail("%d of %d requests failed", failed, attempted)
	}
	res.Correct = len(r.failures) == 0
	return res
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// --- Latency summaries ---------------------------------------------------------

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples: the smallest sample with at least q of all samples at or below
// it. It returns 0 for no samples.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// latencySummary is a sorted sample with its percentiles in microseconds.
type latencySummary struct {
	n        int
	p50, p99 float64
	mean     float64
}

// summarize sorts lat (nanoseconds) in place and summarizes it.
func summarize(lat []int64) latencySummary {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s := latencySummary{n: len(lat)}
	if s.n == 0 {
		return s
	}
	var sum float64
	for _, v := range lat {
		sum += float64(v)
	}
	s.mean = sum / float64(s.n) / 1e3
	s.p50 = float64(percentile(lat, 0.50)) / 1e3
	s.p99 = float64(percentile(lat, 0.99)) / 1e3
	return s
}

// tailNote states the sample count behind a percentile and how many
// samples lie beyond it (a percentile needs ten beyond it to be resolved).
func tailNote(n int, q float64) string {
	beyond := n - int(math.Ceil(q*float64(n)))
	return fmt.Sprintf("(n=%d, %d beyond)", n, beyond)
}

// median returns the median of xs (mean of the middle two for even
// counts) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// perK scales a count to "per 1,000 plays".
func perK(count float64, plays int64) float64 {
	if plays == 0 {
		return 0
	}
	return 1000 * count / float64(plays)
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
