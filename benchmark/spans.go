package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span buffer of one traced run; spans past
// it are counted as dropped, never allocated.
const maxSpans = 1 << 19

// traceEvery samples requests: one in traceEvery of each client's requests
// is traced, so a fast workload's traced phase stays within a few hundred
// thousand spans while still covering the whole phase.
const traceEvery = 4

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one request share Req; the request's own span has
// Parent "" and every other span names it as parent.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory while on. Each load client
// has at most one request in flight (the loop is closed), so a decorator
// running on any goroutine attributes its call to the request currently
// in flight on the client it serves.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	nextReq atomic.Uint64
	cur     [clients]atomic.Uint64 // in-flight request per client, 0 = none
	root    [clients]atomic.Pointer[string]
	seq     [clients]int // requests begun per client; only client c's goroutine touches seq[c]

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens request name on client c and returns its id (0 when off
// or when the request is not sampled).
func (t *tracer) begin(c int, name *string) uint64 {
	if !t.on.Load() {
		return 0
	}
	if t.seq[c]++; t.seq[c]%traceEvery != 0 {
		return 0
	}
	id := t.nextReq.Add(1)
	t.root[c].Store(name)
	t.cur[c].Store(id)
	return id
}

// end closes request id on client c, recording its span.
func (t *tracer) end(c int, id uint64, start, end time.Time) {
	if id == 0 {
		return
	}
	t.cur[c].Store(0)
	t.record(span{Req: id, Name: *t.root[c].Load(), Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// inflight returns the request in flight on client c (0 when none or
// when tracing is off). A decorator samples it when a write starts and
// when a read returns: both moments fall inside the request the bytes
// belong to, while a write's end or a read's start can fall outside it.
func (t *tracer) inflight(c int) uint64 {
	if c < 0 || c >= clients || !t.on.Load() {
		return 0
	}
	return t.cur[c].Load()
}

// child records a span of request id, which is in flight on client c.
func (t *tracer) child(id uint64, c int, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	parent := ""
	if p := t.root[c].Load(); p != nil {
		parent = *p
	}
	t.record(span{Req: id, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// take stops recording and hands over the spans recorded so far.
func (t *tracer) take() (spans []span, dropped int) {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, dropped = t.spans, t.dropped
	t.spans, t.dropped = nil, 0
	return spans, dropped
}

// writeSpans writes spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// byRequest groups spans by request id, keeping record order.
func byRequest(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}
