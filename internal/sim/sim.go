package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Common errors.
var (
	ErrBadTopology = errors.New("sim: invalid topology")
	ErrBadProcess  = errors.New("sim: invalid process configuration")
)

// Message is a point-to-point payload delivered on the pulse after it was
// sent. Payload types are protocol-defined; processes type-switch on them.
type Message struct {
	From, To int
	Payload  any
}

// Process is a synchronous protocol participant. Step is called once per
// pulse with all messages addressed to it from the previous pulse, and
// returns the messages to deliver on the next pulse.
//
// Step must not retain the inbox slice beyond the call (its backing array
// is recycled for a later pulse); payload values may be retained freely.
// The returned outbox is owned by the network until the pulse completes,
// after which the process may reuse its backing array.
type Process interface {
	// ID returns the processor's identifier (its index in the network).
	ID() int
	// Step executes one synchronous step.
	Step(pulse int, inbox []Message) (outbox []Message)
}

// Corruptible is implemented by processes whose state the transient-fault
// injector can scramble (§4.1's arbitrary starting configuration).
type Corruptible interface {
	// Corrupt sets the process state to arbitrary values derived from the
	// given 64-bit entropy source values.
	Corrupt(entropy func() uint64)
}

// Adversary intercepts a Byzantine processor's traffic. Given the honest
// outbox it may return anything: drop, forge, equivocate.
type Adversary interface {
	// Intercept rewrites the outbox of processor id at the given pulse.
	Intercept(pulse int, id int, honestOutbox []Message) []Message
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(pulse int, id int, honestOutbox []Message) []Message

// Intercept implements Adversary.
func (f AdversaryFunc) Intercept(pulse int, id int, honestOutbox []Message) []Message {
	return f(pulse, id, honestOutbox)
}

// Network is a synchronous network of processes. The zero value is not
// usable; construct with NewNetwork.
type Network struct {
	procs     []Process
	topo      *Graph
	byz       map[int]Adversary
	pulse     int
	inTransit [][]Message // messages to deliver at the next pulse, per destination
	spare     [][]Message // recycled inbox buffers from the previous pulse
	outboxes  [][]Message // per-pulse outbox headers, reused

	// Concurrent-engine state: workers is the configured pool width
	// (0 = auto, ≤1 = lockstep semantics on the caller's goroutine);
	// pool is created lazily and released by Close. stepFn is the
	// persistent per-processor job closure (reading the current pulse's
	// inboxes through stepInboxes), so a concurrent pulse allocates
	// nothing on the scheduling path.
	workers     int
	pool        *workerPool
	stepFn      func(i int)
	stepInboxes [][]Message

	// Stats counts traffic for the E-AUD overhead experiments.
	Stats Stats
}

// Stats accumulates message-level accounting.
type Stats struct {
	MessagesSent    int64
	MessagesDropped int64
	Pulses          int64
}

// NewNetwork builds a network over the given processes. topo may be nil for
// a full mesh. Process IDs must equal their index.
func NewNetwork(procs []Process, topo *Graph) (*Network, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("%w: no processes", ErrBadProcess)
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("%w: nil process at %d", ErrBadProcess, i)
		}
		if p.ID() != i {
			return nil, fmt.Errorf("%w: process at index %d reports ID %d", ErrBadProcess, i, p.ID())
		}
	}
	if topo == nil {
		topo = FullMesh(n)
	}
	if topo.N() != n {
		return nil, fmt.Errorf("%w: graph has %d vertices for %d processes", ErrBadTopology, topo.N(), n)
	}
	return &Network{
		procs:     procs,
		topo:      topo,
		byz:       make(map[int]Adversary),
		inTransit: make([][]Message, n),
		outboxes:  make([][]Message, n),
	}, nil
}

// N returns the number of processors.
func (nw *Network) N() int { return len(nw.procs) }

// Pulse returns the number of completed pulses.
func (nw *Network) Pulse() int { return nw.pulse }

// Process returns the i-th process (for state inspection by experiments).
func (nw *Network) Process(i int) Process { return nw.procs[i] }

// SetByzantine installs an adversary on processor id. Passing nil removes
// it. Byzantine membership is fixed per experiment run, matching the static
// Byzantine model of the paper.
func (nw *Network) SetByzantine(id int, adv Adversary) {
	if adv == nil {
		delete(nw.byz, id)
		return
	}
	nw.byz[id] = adv
}

// ByzantineIDs returns the sorted identifiers of Byzantine processors.
func (nw *Network) ByzantineIDs() []int {
	ids := make([]int, 0, len(nw.byz))
	for id := range nw.byz {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// HonestIDs returns the sorted identifiers of honest processors.
func (nw *Network) HonestIDs() []int {
	ids := make([]int, 0, nw.N())
	for i := range nw.procs {
		if _, bad := nw.byz[i]; !bad {
			ids = append(ids, i)
		}
	}
	return ids
}

// Corrupt invokes the transient-fault injector on every Corruptible process
// (honest and Byzantine alike) and wipes in-transit messages — producing an
// arbitrary configuration as in §4.1.
func (nw *Network) Corrupt(entropy func() uint64) {
	for _, p := range nw.procs {
		if c, ok := p.(Corruptible); ok {
			c.Corrupt(entropy)
		}
	}
	for i := range nw.inTransit {
		nw.inTransit[i] = nil
	}
}

// StepLockstep advances the system by one pulse deterministically:
// every process receives its pending inbox, produces an outbox (possibly
// rewritten by its adversary), and messages are filtered by the topology.
func (nw *Network) StepLockstep() {
	inboxes := nw.beginPulse()
	for i, p := range nw.procs {
		nw.outboxes[i] = nw.stepOne(i, p, inboxes[i])
	}
	nw.finishPulse(inboxes)
}

// beginPulse swaps the pending in-transit buffers out as this pulse's
// inboxes and installs recycled (or fresh) empty buffers for the next
// pulse's traffic.
func (nw *Network) beginPulse() [][]Message {
	inboxes := nw.inTransit
	next := nw.spare
	if next == nil {
		next = make([][]Message, nw.N())
	}
	for i := range next {
		next[i] = next[i][:0]
	}
	nw.inTransit = next
	nw.spare = nil
	return inboxes
}

// stepOne runs one processor's step, applying its adversary if Byzantine.
func (nw *Network) stepOne(i int, p Process, inbox []Message) []Message {
	out := p.Step(nw.pulse, inbox)
	if adv, bad := nw.byz[i]; bad {
		out = adv.Intercept(nw.pulse, i, out)
	}
	return out
}

// finishPulse routes the pulse's outboxes, recycles the consumed inbox
// buffers, and advances the pulse counter.
func (nw *Network) finishPulse(inboxes [][]Message) {
	nw.route(nw.outboxes)
	for i := range nw.outboxes {
		nw.outboxes[i] = nil // outbox ownership returns to the process
	}
	nw.spare = inboxes
	nw.pulse++
	nw.Stats.Pulses++
}

// route validates and enqueues outgoing messages for next-pulse delivery.
func (nw *Network) route(outboxes [][]Message) {
	for from, out := range outboxes {
		for _, m := range out {
			m.From = from // processes cannot spoof the source: links are authenticated per §4.1
			// Self-delivery is always permitted (a processor hears its
			// own broadcast); other destinations need a topology edge.
			if m.To < 0 || m.To >= nw.N() || (m.To != from && !nw.topo.HasEdge(from, m.To)) {
				nw.Stats.MessagesDropped++
				continue
			}
			nw.inTransit[m.To] = append(nw.inTransit[m.To], m)
			nw.Stats.MessagesSent++
		}
	}
}

// Run advances the system by pulses pulses using the configured engine
// (lockstep unless SetWorkers enabled the pool).
func (nw *Network) Run(pulses int) {
	for i := 0; i < pulses; i++ {
		nw.Step()
	}
}

// Step advances the system by one pulse on the configured engine. Both
// engines produce identical executions; SetWorkers only chooses how the
// processors of a pulse are scheduled onto OS threads.
func (nw *Network) Step() {
	if nw.effectiveWorkers() > 1 {
		nw.StepConcurrent()
	} else {
		nw.StepLockstep()
	}
}

// SetWorkers configures the concurrent pulse engine: w > 1 steps each
// pulse's processors on a persistent pool of min(w, n) workers; w == 1
// pins the lockstep engine; w == 0 (the default) picks lockstep for Step
// but lets StepConcurrent/RunConcurrent auto-size the pool to
// min(GOMAXPROCS, n). The network does not weigh per-pulse work: the
// distributed driver resolves its own auto width (lockstep or pool, by a
// measured crossover) and always passes an explicit w here. Call before
// running; reconfiguring releases any existing pool.
func (nw *Network) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	if w == nw.workers {
		return
	}
	nw.workers = w
	nw.Close()
}

// effectiveWorkers resolves the pool width Step would use.
func (nw *Network) effectiveWorkers() int {
	w := nw.workers
	if w == 0 {
		return 1 // auto engages only via StepConcurrent/RunConcurrent
	}
	if w > nw.N() {
		w = nw.N()
	}
	return w
}

// autoWorkers resolves the pool width for explicit concurrent runs.
func (nw *Network) autoWorkers() int {
	w := nw.workers
	if w <= 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nw.N() {
		w = nw.N()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// StepConcurrent advances the system by one pulse with the worker pool,
// creating it on first use. Execution is identical to StepLockstep: the
// pool only parallelizes the independent per-processor Step calls; routing
// stays sequential and deterministic.
func (nw *Network) StepConcurrent() {
	w := nw.autoWorkers()
	if nw.pool == nil || nw.pool.workers != w {
		nw.Close()
		nw.pool = newWorkerPool(w)
	}
	if nw.stepFn == nil {
		nw.stepFn = func(i int) {
			nw.outboxes[i] = nw.stepOne(i, nw.procs[i], nw.stepInboxes[i])
		}
	}
	inboxes := nw.beginPulse()
	nw.stepInboxes = inboxes
	nw.pool.run(nw.N(), nw.stepFn)
	nw.stepInboxes = nil
	nw.finishPulse(inboxes)
}

// RunConcurrent advances the system by pulses pulses on the worker pool.
// Semantics are identical to Run. The pool persists for later steps;
// Close releases it.
func (nw *Network) RunConcurrent(pulses int) {
	for i := 0; i < pulses; i++ {
		nw.StepConcurrent()
	}
}

// Close releases the worker pool's goroutines. It is idempotent and the
// network remains usable afterwards (a fresh pool is created on demand).
func (nw *Network) Close() {
	if nw.pool != nil {
		nw.pool.close()
		nw.pool = nil
	}
}

// workerPool is a fixed set of goroutines that execute one pulse's
// per-processor steps. Work is distributed by an atomic cursor so uneven
// step costs (e.g. one processor running a heavy audit) balance across
// workers. The job state lives on the pool itself — publishing it through
// the signal-token channel sends (which order-before the receives) keeps
// per-pulse dispatch allocation-free.
type workerPool struct {
	workers int
	jobs    chan struct{} // one wake token per worker per pulse
	n       int
	next    atomic.Int64
	fn      func(i int)
	wg      sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, jobs: make(chan struct{}, workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for range p.jobs {
				for {
					i := int(p.next.Add(1) - 1)
					if i >= p.n {
						break
					}
					p.fn(i)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes fn(0..n-1) across the pool and blocks until all complete —
// the pulse barrier. The field writes below happen-before every worker's
// token receive; wg.Wait happens-after their last read, so reusing the
// fields on the next pulse is race-free.
func (p *workerPool) run(n int, fn func(i int)) {
	p.n = n
	p.fn = fn
	p.next.Store(0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
}

func (p *workerPool) close() { close(p.jobs) }

// Broadcast builds one message per neighbour of from in the topology,
// carrying payload. Helper used by most protocols (includes self-loop
// delivery so a processor hears itself, which simplifies quorum counting).
func Broadcast(topo *Graph, from int, payload any) []Message {
	out := make([]Message, 0, topo.N())
	for to := 0; to < topo.N(); to++ {
		if to == from || topo.HasEdge(from, to) {
			out = append(out, Message{From: from, To: to, Payload: payload})
		}
	}
	return out
}
