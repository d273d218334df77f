package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100 - i) // 100..1, unsorted
	}
	s := summarize(samples)
	if s.n != 100 || s.p50 != 0.050 || s.p99 != 0.099 || s.mean != 0.0505 {
		t.Fatalf("summary of 1..100 ns = %+v, want n=100 p50=0.050 p99=0.099 mean=0.0505 us", s)
	}
	for _, c := range []struct {
		in   []int64
		q    float64
		want int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.99, 7},
		{[]int64{1, 2}, 0.5, 1},
		{[]int64{1, 2, 3}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.99, 4},
		{[]int64{1, 2, 3, 4}, 0.01, 1},
	} {
		if got := percentile(c.in, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.in, c.q, got, c.want)
		}
	}
	if got := tailNote(1000, 0.99); got != "(n=1000, 10 beyond)" {
		t.Errorf("tailNote(1000, 0.99) = %q", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s", d.name, validName)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if d.unit == "" || len(d.unit) > 16 {
			t.Errorf("metric %q has unit %q", d.name, d.unit)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// command's declared metrics and workloads in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !knownWorkload(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command has %s", names, workloadNames())
	}
	for _, c := range []struct {
		label string
		got   []struct{ Name, Unit string }
		want  []decl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command declares %d", c.label, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", c.label, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestTimedStoreForwards round-trips a durable session through the store
// decorator: a crash and recovery over it restores an identical digest,
// group commit still arms underneath it, and every call is counted.
func TestTimedStoreForwards(t *testing.T) {
	ctx := context.Background()
	fs, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := newTimedStore(fs)
	var observed int
	st.observe = func(int, string, time.Time, time.Time) { observed++ }
	a := ga.NewAuthority(durableOptions(st)...)
	spec := withDeviant(cheapSpec("rt", "rra", 7), "freerider")
	h, err := a.CreateFromSpec(spec.req)
	if err != nil {
		t.Fatal(err)
	}
	const batches = durSnapshotEvery/durBatch + 1 // one compaction on the way
	for i := 0; i < batches; i++ {
		if _, err := h.PlayN(ctx, durBatch, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Snapshot().Digest

	next := ga.NewAuthority(durableOptions(a.DetachStore())...)
	defer next.Close()
	rep, err := next.Recover(ctx)
	if err != nil || len(rep.Failed) > 0 || rep.Sessions != 1 || rep.Rounds != batches*durBatch {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	_ = a.Close()
	got, err := next.Get("rt")
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Snapshot().Digest; d != want {
		t.Fatalf("digest after recovery through the decorator = %s, want %s", d, want)
	}
	snap := st.snap()
	if snap.ops[opCreateSession].calls != 1 || snap.ops[opAppend].calls != batches || snap.ops[opLoadSession].calls != 1 {
		t.Errorf("decorator counted %+v", snap.ops)
	}
	if snap.ops[opPutSnapshot].calls != 1 {
		t.Errorf("snapshots counted = %d, want 1", snap.ops[opPutSnapshot].calls)
	}
	if observed != batches+1 {
		t.Errorf("observe saw %d blocking calls, want %d appends + 1 snapshot", observed, batches)
	}
}

// TestTimedStoreGroupCommit arms group commit through the decorator: the
// file store's committer must run underneath it.
func TestTimedStoreGroupCommit(t *testing.T) {
	fs, err := ga.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := newTimedStore(fs)
	a := ga.NewAuthority(ga.WithStore(st), ga.WithGroupCommit(time.Millisecond, 16))
	defer a.Close()
	h, err := a.CreateFromSpec(cheapSpec("gc", "pd", 1).req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlayN(context.Background(), durBatch, nil); err != nil {
		t.Fatal(err)
	}
	if fsyncs, epochs := st.fsyncs(); fsyncs == 0 || epochs == 0 {
		t.Errorf("group commit did not arm through the decorator: %d fsyncs, %d epochs", fsyncs, epochs)
	}
}

// TestTimedConnForwards plays a session over /ws with both ends of the
// connection decorated: the digest matches an in-process replay, and both
// ends count the same bytes.
func TestTimedConnForwards(t *testing.T) {
	a := ga.NewAuthority()
	defer a.Close()
	tr := newTracer()
	var cs, ss connStats
	var owners connOwners
	lb, err := startLoopback(ga.NewServer(a), &ss, tr, &owners)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	cl, err := hub.DialWith(lb.url+"/ws", hub.DialOptions{WrapConn: func(nc net.Conn) net.Conn {
		return newClientConn(nc, 1, &cs, tr, &owners)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := withDeviant(cheapSpec("conn", "mixed-pennies", 3), "freerider")
	ref, _, err := cl.Create(spec.json())
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	for i := 0; i < 12; i++ {
		id := tr.begin(1, &playSpan)
		if _, err := cl.Play(ref, 1); err != nil {
			t.Fatal(err)
		}
		tr.end(1, id, tr.epoch, tr.epoch)
	}
	// Both ends write frames in order, so once the snapshot round trip is
	// back every play's I/O has returned and recorded its span.
	snap, err := cl.Snapshot(ref)
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.take()
	want, err := replayDigest(spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Digest != want {
		t.Fatalf("digest over decorated conns = %s, in-process %s", snap.Digest, want)
	}
	// A writer books its bytes after its Write returns, which can be after
	// the peer has read them: wait for the two ends to agree.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, s := cs.snap(), ss.snap()
		if c.bytesWritten > 0 && c.bytesWritten == s.bytesRead && c.bytesRead == s.bytesWritten {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client wrote %d read %d, server read %d wrote %d", c.bytesWritten, c.bytesRead, s.bytesRead, s.bytesWritten)
		}
		time.Sleep(time.Millisecond)
	}
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	if names[playSpan] != 12/traceEvery {
		t.Errorf("%d of 12 plays traced, want one in %d", names[playSpan], traceEvery)
	}
	for _, n := range []string{"conn.client_write", "conn.server_read", "conn.server_write", "conn.client_read"} {
		if names[n] < names[playSpan] {
			t.Errorf("%d %s spans for %d traced plays (all: %v)", names[n], n, names[playSpan], names)
		}
	}
}

// TestWorkloadsSmoke runs every workload's code path, untraced and traced,
// for one second and checks the result line.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				dir := t.TempDir()
				code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-out", dir, "-data", dir}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v", d.name, m)
					}
				}
			})
		}
	}
}

func TestParseOptionsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "ws-steady", "-seconds", "0"},
		{"-workload", "ws-steady", "-trace", "2"},
		{"-workload", "ws-steady", "extra"},
	} {
		if _, err := parseOptions(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseOptions(%q) accepted", args)
		}
	}
}
