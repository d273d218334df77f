// Command benchmark is the repository benchmark: one process runs one
// workload against the in-tree game authority, measures it with closed-loop
// clients and checks that every output is correct.
//
//	bash benchmark/run.sh --workload ws-steady --seed 1 --seconds 20 --trace 0
//
// Workloads: ws-steady, http-churn, durable-batch and byz-committee (see
// WORKLOADS.md for why each exists and which layers it stresses). With
// -trace 0 the run reports the end-to-end metrics with tracing off; with
// -trace 1 it reports the per-layer metrics, the layer shares of a
// request's latency and the tracing overhead. Every metric prints as
// "name value unit" and the last line of standard output is a JSON object
// with "correct", "attempted", "failed" and "metrics". The command exits
// non-zero when a correctness check fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // directory for span dumps
	data     string // directory for durable stores
}

// bench is the state shared by one run's workload code.
type bench struct {
	opt options
	rep *report
	tr  *tracer
	log io.Writer
}

// workload is one benchmark shape.
type workload struct {
	name string
	// run executes the workload, reporting into b.rep; it returns the
	// requests attempted and failed in its measured phases.
	run func(b *bench) (attempted, failed int64, err error)
}

var workloads = []workload{
	{"ws-steady", runWSSteady},
	{"http-churn", runHTTPChurn},
	{"durable-batch", runDurableBatch},
	{"byz-committee", runByzCommittee},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			w = &workloads[i]
		}
	}
	b := &bench{opt: opt, rep: newReport(stdout), tr: newTracer(), log: stdout}
	mode := "untraced (end-to-end metrics)"
	declared := endToEnd
	if opt.trace {
		mode, declared = "traced (per-layer metrics)", perLayer
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %ds, %s\n", opt.workload, opt.seed, opt.seconds, mode)
	attempted, failed, err := w.run(b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", opt.workload, err)
		return 1
	}
	res := b.rep.result(declared, attempted, failed)
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d correctness checks failed (first: %s)\n",
			opt.workload, len(b.rep.failures), b.rep.failures[0])
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&opt.seconds, "seconds", 20, "length of the measured phases, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build/out", "directory the traced run writes its spans to")
	fs.StringVar(&opt.data, "data", ".bench_build/data", "directory for the durable store of durable-batch")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	switch {
	case fs.NArg() > 0:
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	case !knownWorkload(opt.workload):
		return opt, fmt.Errorf("-workload %q must be one of %s", opt.workload, workloadNames())
	case opt.seconds < 1:
		return opt, fmt.Errorf("-seconds %d must be at least 1", opt.seconds)
	case trace != 0 && trace != 1:
		return opt, errors.New("-trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// seconds is the measured-phase budget as a duration.
func (b *bench) seconds() time.Duration { return time.Duration(b.opt.seconds) * time.Second }

// setupReps is how many times every workload sets up per run; setup_s is
// the median.
const setupReps = 9

// setupTimes are the CPU and wall times of each set-up, in seconds.
type setupTimes struct{ cpu, wall []float64 }

// setups runs the workload's set-up reps times, tearing down all but the
// last, and times each one. Set-up is repeated so setup_s can be the
// median of several.
func (b *bench) setups(reps int, setup func() error, teardown func()) (setupTimes, error) {
	var st setupTimes
	for i := 0; i < reps; i++ {
		runtime.GC() // start each set-up from a collected heap, untimed
		cpu0, t0 := processCPU(), time.Now()
		if err := setup(); err != nil {
			teardown()
			return st, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		st.wall = append(st.wall, time.Since(t0).Seconds())
		st.cpu = append(st.cpu, (processCPU() - cpu0).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	fmt.Fprintf(b.log, "set-up CPU times (s): %.4f\nset-up wall times (s): %.4f\n", st.cpu, st.wall)
	return st, nil
}

// traced runs f with the benchmark's span recorder on and returns the
// spans it recorded, after dumping them to the output directory.
func (b *bench) traced(f func()) []span {
	b.tr.on.Store(true)
	f()
	spans, dropped := b.tr.take()
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", b.opt.workload, b.opt.seed)
	path, err := writeSpans(b.opt.out, name, spans)
	if err != nil {
		fmt.Fprintf(b.log, "span dump failed: %v\n", err)
	} else {
		fmt.Fprintf(b.log, "%d spans written to %s (%d dropped past the buffer)\n", len(spans), path, dropped)
	}
	return spans
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
