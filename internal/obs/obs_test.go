package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-spaced bucket map: each power-of-two
// upper bound is inclusive, the next nanosecond rolls into the following
// bucket, and values beyond the last finite bound land in +Inf.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 0},
		{1 << minShift, 0},       // inclusive upper bound of bucket 0
		{1<<minShift + 1, 1},     // first value of bucket 1
		{1 << (minShift + 1), 1}, // inclusive upper bound of bucket 1
		{1<<(minShift+1) + 1, 2},
		{1 << (minShift + numBuckets - 1), numBuckets - 1}, // last finite bound
		{1<<(minShift+numBuckets-1) + 1, numBuckets},       // overflow → +Inf
		{^uint64(0), numBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestHistogramRecordAndRender checks count/sum bookkeeping and that the
// Prometheus rendering is cumulative and carries labels and +Inf.
func TestHistogramRecordAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gameauthority_test_seconds", "test.", Label{"driver", "pure"})
	h.Record(500 * time.Nanosecond) // bucket 0
	h.Record(2 * time.Microsecond)  // bucket 1
	h.Record(time.Hour)             // +Inf
	h.Record(-time.Second)          // clamps to 0, bucket 0
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gameauthority_test_seconds histogram",
		`gameauthority_test_seconds_bucket{driver="pure",le="1.024e-06"} 2`,
		`gameauthority_test_seconds_bucket{driver="pure",le="+Inf"} 4`,
		`gameauthority_test_seconds_count{driver="pure"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
}

// TestGetOrCreateIdentity pins the registry semantics: same name+labels
// returns the same series; same name with different labels forks a new
// series under one HELP/TYPE block.
func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("gameauthority_id_seconds", "test.", Label{"driver", "pure"})
	b := r.Histogram("gameauthority_id_seconds", "test.", Label{"driver", "pure"})
	c := r.Histogram("gameauthority_id_seconds", "test.", Label{"driver", "rra"})
	if a != b {
		t.Fatal("same name+labels must return the same histogram")
	}
	if a == c {
		t.Fatal("different labels must fork a new series")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE gameauthority_id_seconds"); n != 1 {
		t.Fatalf("want one TYPE block for the grouped name, got %d", n)
	}
}

// TestConcurrentRecord hammers one histogram and one gauge from many
// goroutines (meaningful under -race) and checks totals.
func TestConcurrentRecord(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gameauthority_conc_seconds", "test.")
	g := r.Gauge("gameauthority_conc", "test.")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(w*i) * time.Nanosecond)
				g.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrape must be safe
		defer close(done)
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*each {
		t.Fatalf("count = %d, want %d", h.Count(), workers*each)
	}
	if g.Value() != workers*each {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*each)
	}
}

// TestRecordZeroAlloc pins the acceptance criterion: recording one
// histogram sample performs zero heap allocations.
func TestRecordZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("gameauthority_alloc_seconds", "test.")
	allocs := testing.AllocsPerRun(1000, func() { h.Record(3 * time.Microsecond) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v times, want 0", allocs)
	}
}

// TestDisabledTracerZeroAlloc pins the other acceptance criterion: with
// the tracer off, a Begin/End span site is zero allocations (and so zero
// overhead beyond one atomic load).
func TestDisabledTracerZeroAlloc(t *testing.T) {
	tr := NewTracer()
	allocs := testing.AllocsPerRun(1000, func() {
		c := tr.Begin("x", "test", 0, 0)
		c.End()
		rc := tr.BeginRoot("y", "play", 0, 0)
		rc.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer span allocates %v times, want 0", allocs)
	}
	if tr.Len() != 0 || tr.RootCount() != 0 {
		t.Fatal("disabled tracer must record nothing")
	}
}

// TestTracerRingWraparound fills the ring past capacity and checks the
// dump holds exactly the most recent window, oldest first.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer()
	tr.Enable(4, 1)
	for i := 0; i < 10; i++ {
		c := tr.Begin("s", "test", int64(i), int64(i))
		c.End()
	}
	tr.Disable()
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TID  int64   `json:"tid"`
			Ts   float64 `json:"ts"`
			Args struct {
				V int64 `json:"v"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(dump.TraceEvents) != 4 {
		t.Fatalf("dump holds %d events, want 4", len(dump.TraceEvents))
	}
	for i, ev := range dump.TraceEvents {
		if ev.Args.V != int64(6+i) { // spans 6..9 survive spans 0..5
			t.Fatalf("event %d carries arg %d, want %d", i, ev.Args.V, 6+i)
		}
		if ev.Ph != "X" || ev.Cat != "test" {
			t.Fatalf("event %d = %+v, want complete-phase test span", i, ev)
		}
	}
}

// TestTracerSampling checks BeginRoot admits one root in sample and that
// RootCount counts only admitted roots.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer()
	tr.Enable(64, 4)
	for i := 0; i < 16; i++ {
		c := tr.BeginRoot("play", "play", 0, int64(i))
		c.End()
	}
	tr.Disable()
	if got := tr.RootCount(); got != 4 {
		t.Fatalf("RootCount = %d, want 4 (1-in-4 of 16)", got)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", tr.Len())
	}
}

// TestGaugeFuncReplace pins replace-by-identity: re-registering a
// GaugeFunc under the same name+labels supersedes the previous owner.
func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("gameauthority_gf", "test.", func() float64 { return 1 })
	r.GaugeFunc("gameauthority_gf", "test.", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gameauthority_gf 2") {
		t.Fatalf("replacement did not win:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), "\ngameauthority_gf "); n != 1 {
		t.Fatalf("want exactly one series line, got %d", n)
	}
}

// TestRuntimeGauges checks the runtime series render with plausible
// values.
func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"gameauthority_goroutines",
		"gameauthority_heap_alloc_bytes",
		"gameauthority_gc_pause_total_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime gauges missing %q", want)
		}
	}
}
