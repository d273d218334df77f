package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clients is the number of load goroutines (and connections) every
// workload drives: one per core of the 2-core reference host.
const clients = 2

// sampler is one client's tally for a phase. Only the client's own
// goroutine touches it while the phase runs.
type sampler struct {
	epoch     time.Time // start of the phase
	lat       []int64   // request latencies, ns
	plays     int64     // plays acknowledged
	attempted int64     // requests issued
	failed    int64     // requests that failed or were refused
	firstErr  error
}

// record books one request that took d and acknowledged plays plays, or
// failed with err.
func (s *sampler) record(d time.Duration, plays int, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.lat = append(s.lat, d.Nanoseconds())
	s.plays += int64(plays)
}

// phase is the outcome of one closed-loop phase: every client's tally,
// the wall time, and the process-wide allocation and GC deltas over it.
type phase struct {
	wall     time.Duration
	samplers [clients]*sampler
	mallocs  uint64
	gcs      uint32
	pauseNs  uint64
	cpu      time.Duration // process user+system CPU time
}

// runPhase drives clients closed loops: client c calls step(c, s) — which
// issues one request (or one fixed request sequence), times it and books
// it into s — and issues its next only after the previous returns, until
// done(c, s) reports true before a step. done is checked per client, so a
// quota phase ends each client at its own count.
func runPhase(step func(c int, s *sampler), done func(c int, s *sampler) bool) phase {
	var p phase
	for c := range p.samplers {
		p.samplers[c] = &sampler{lat: make([]int64, 0, 1<<16)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	for _, s := range p.samplers {
		s.epoch = start
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := p.samplers[c]
			for !done(c, s) {
				step(c, s)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcs = after.NumGC - before.NumGC
	p.pauseNs = after.PauseTotalNs - before.PauseTotalNs
	return p
}

// forDuration ends a phase once d has elapsed since it started.
func forDuration(d time.Duration) func(int, *sampler) bool {
	return func(_ int, s *sampler) bool { return time.Since(s.epoch) >= d }
}

// forRequests ends each client's phase after n requests.
func forRequests(n int64) func(int, *sampler) bool {
	return func(_ int, s *sampler) bool { return s.attempted >= n }
}

// totals sums phases that together form one measurement.
type totals struct {
	wall                     time.Duration
	plays, attempted, failed int64
	lat                      []int64
	mallocs, pauseNs         uint64
	gcs                      uint32
	cpu                      time.Duration
	firstErr                 error
}

// merge accumulates phases that together form one timed measurement.
func merge(phases ...phase) totals {
	var t totals
	for _, p := range phases {
		t.wall += p.wall
		t.mallocs += p.mallocs
		t.gcs += p.gcs
		t.pauseNs += p.pauseNs
		t.cpu += p.cpu
		for _, s := range p.samplers {
			t.plays += s.plays
			t.attempted += s.attempted
			t.failed += s.failed
			t.lat = append(t.lat, s.lat...)
			if t.firstErr == nil {
				t.firstErr = s.firstErr
			}
		}
	}
	return t
}

// add combines two measurements.
func (t totals) add(o totals) totals {
	t.wall += o.wall
	t.plays += o.plays
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(append([]int64(nil), t.lat...), o.lat...)
	t.mallocs += o.mallocs
	t.pauseNs += o.pauseNs
	t.gcs += o.gcs
	t.cpu += o.cpu
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	return t
}

func (t totals) playsPerSecond() float64 { return ratio(float64(t.plays), t.wall.Seconds()) }

// reportEndToEnd prints and records the end-to-end metrics of an
// untraced measurement.
//
// Only the first group is part of the result. The second is printed, but
// on the shared 2-vCPU reference host hypervisor steal took between 0% and
// 42% of CPU time, changing from one run to the next, and over ten runs of
// one workload the quartiles of these metrics lay up to 30%
// (cpu_us_per_play, play_p90_us), 52% (plays_per_s) and 115% (play_p99_us)
// of the median apart, where play_p50_us stayed within 13%. setup_s is the
// set-up's CPU time: set-up wall time also counts waits for the other
// vCPU to wake, and its median moved by 25% (http-churn) between two sets
// of ten runs of the same code (see WORKLOADS.md).
func reportEndToEnd(r *report, t totals, setup setupTimes, heapBytes uint64) {
	r.check(t.firstErr == nil, "request failed: %v", t.firstErr)
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
	pct := func(name string, q float64) {
		r.set(name, float64(percentile(t.lat, q))/1e3, "us", tailNote(len(t.lat), q))
	}
	pct("play_p50_us", 0.50)
	r.set("setup_s", median(setup.cpu), "s", fmt.Sprintf("(process CPU time, median of %d set-ups)", len(setup.cpu)))
	r.set("allocs_per_play", ratio(float64(t.mallocs), float64(t.plays)), "count", "(whole process)")
	r.set("heap_mb", float64(heapBytes)/1e6, "MB", "(live heap after set-up and a forced GC)")
	fmt.Fprintln(r.w, "printed, not bounded (moved by the host's CPU steal):")
	r.set("setup_wall_s", median(setup.wall), "s", fmt.Sprintf("(wall time, median of %d set-ups)", len(setup.wall)))
	r.set("plays_per_s", t.playsPerSecond(), "1/s", fmt.Sprintf("(%d plays in %v)", t.plays, t.wall.Round(time.Millisecond)))
	pct("play_p90_us", 0.90)
	pct("play_p99_us", 0.99)
	r.set("cpu_us_per_play", ratio(float64(t.cpu.Nanoseconds())/1e3, float64(t.plays)), "us",
		"(process user+system CPU, client included)")
	r.set("error_ratio", ratio(float64(t.failed), float64(t.attempted)), "ratio",
		"("+itoa(t.failed)+" of "+itoa(t.attempted)+" requests)")
}

// reportRuntime records the GC cost of a phase per 1,000 plays.
func reportRuntime(r *report, t totals) {
	r.set("runtime.gc_cycles_per_1k_plays", perK(float64(t.gcs), t.plays), "count", "")
	r.set("runtime.gc_pause_us_per_1k_plays", perK(float64(t.pauseNs)/1e3, t.plays), "us", "")
}

// heapAfterGC forces collections and reports the live heap: the bytes of
// objects still reachable. Two cycles, because pooled buffers survive the
// first in the pools' victim caches. (HeapInuse, which also counts the
// free space of partly used spans, moved by 10% between runs with the
// same live heap.)
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// parallel runs f for every client concurrently and returns the first
// error.
func parallel(f func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
