package bap

// This file is the allocation-free interactive-consistency engine used by
// the distributed driver's pulse hot path. It runs the same protocol as
// ICProc — one dissemination pulse, then all n EIG instances in lock-step —
// but as a resettable state machine over pre-sized arenas instead of a
// sim.Process that is rebuilt every phase:
//
//   - the n EIG instances are allocated once per processor and Reset per
//     phase (flat arrays over the shared (n, f) layout — see eig.go);
//   - outbound payloads are pointers into rotating slabs, so boxing them
//     into the carrier message's []any does not allocate;
//   - every destination receives the identical broadcast, so one shared
//     payload list per pulse serves all n carrier messages.
//
// The engine is message-passive: the carrier protocol (core's distMsg)
// calls Deliver for each inbound payload and then EndPulse once per
// network pulse. ICProc remains as the standalone sim adapter; its value-
// typed wire formats (eigPayload, icInit) are pinned by Byzantine tests.

// icSlabRounds is how many pulses an emitted payload must stay untouched
// before its slab slot is reused: one pulse in transit, one being read,
// one of slack for replaying adversaries (same bound as the carrier's).
const icSlabRounds = 3

// icIntro is the dissemination-pulse payload: the sender's private value.
// Pointer-typed on the wire (unlike icInit) so emitting it is heap-free.
type icIntro struct {
	Val Value
}

// icRoundMsg is one EIG round broadcast of one instance, pointer-typed on
// the wire with Pairs sub-sliced from a per-pulse arena.
type icRoundMsg struct {
	Instance int
	Round    int
	Pairs    []Pair
}

// IC is the reusable interactive-consistency engine: build once per
// processor with NewIC, then Reset(private) at the start of every phase.
// Between Reset and Done, call Deliver for each payload received from the
// network and then EndPulse exactly once per pulse; EndPulse returns the
// shared payload list to broadcast (nil once the vector is decided).
type IC struct {
	id, n, f int
	private  Value
	pulseNo  int
	done     bool
	insts    []*EIG
	heard    []Value
	heardSet []bool
	vector   []Value

	// Rotating outbound arenas, indexed by network pulse % icSlabRounds.
	intros [icSlabRounds]icIntro
	rounds [icSlabRounds][]icRoundMsg
	inner  [icSlabRounds][]any
	pairs  [icSlabRounds][]Pair
	starts []int // per-instance offsets into the pair arena being built
}

// NewIC builds the engine for processor id at shape (n, f). The returned
// engine is idle until the first Reset.
func NewIC(id, n, f int) (*IC, error) {
	ic := &IC{id: id, n: n, f: f, done: true}
	ic.insts = make([]*EIG, n)
	for s := 0; s < n; s++ {
		inst, err := NewEIG(id, n, f, DefaultValue)
		if err != nil {
			return nil, err
		}
		ic.insts[s] = inst
	}
	ic.heard = make([]Value, n)
	ic.heardSet = make([]bool, n)
	ic.vector = make([]Value, n)
	maxPairs := n * ic.insts[0].MaxRoundPairs()
	for i := 0; i < icSlabRounds; i++ {
		ic.rounds[i] = make([]icRoundMsg, 0, n)
		ic.inner[i] = make([]any, 0, n)
		ic.pairs[i] = make([]Pair, 0, maxPairs)
	}
	ic.starts = make([]int, n+1)
	return ic, nil
}

// Reset rewinds the engine to the start of a fresh agreement on private,
// reusing every backing array.
func (ic *IC) Reset(private Value) {
	ic.private = private
	ic.pulseNo = 0
	ic.done = false
	for i := range ic.heardSet {
		ic.heardSet[i] = false
		ic.heard[i] = DefaultValue
	}
}

// Deliver ingests one payload received from processor `from` this pulse.
// Payloads from the wrong pulse position (stale rounds, pre-dissemination
// traffic) are dropped, mirroring ICProc's inbox filters.
func (ic *IC) Deliver(from int, payload any) {
	if ic.done {
		return
	}
	switch ic.pulseNo {
	case 0:
		// The dissemination pulse ignores its inbox.
	case 1:
		if m, ok := payload.(*icIntro); ok {
			if from >= 0 && from < ic.n && !ic.heardSet[from] {
				ic.heardSet[from] = true
				ic.heard[from] = m.Val
			}
		}
	default:
		round := ic.pulseNo - 2
		if m, ok := payload.(*icRoundMsg); ok {
			if m.Round == round && m.Instance >= 0 && m.Instance < ic.n {
				ic.insts[m.Instance].Absorb(round, from, m.Pairs)
			}
		}
	}
}

// EndPulse completes one network pulse after all Delivers: it advances the
// protocol state machine and returns the payload list to broadcast (the
// same list goes to every destination) plus the done flag. pulse is the
// monotonic network pulse number, used only to rotate the outbound arenas.
func (ic *IC) EndPulse(pulse int) ([]any, bool) {
	slot := pulse % icSlabRounds
	switch {
	case ic.done:
		return nil, true

	case ic.pulseNo == 0:
		// Dissemination pulse: broadcast the private value.
		ic.pulseNo = 1
		ic.intros[slot] = icIntro{Val: ic.private}
		list := append(ic.inner[slot][:0], &ic.intros[slot])
		ic.inner[slot] = list
		return list, false

	case ic.pulseNo == 1:
		// Instances start: instance s's initial value is what we heard
		// from s (default if silent).
		for s := 0; s < ic.n; s++ {
			ic.insts[s].Reset(ic.heard[s])
		}
		ic.pulseNo = 2
		return ic.broadcastRound(0, slot), false

	default:
		round := ic.pulseNo - 2 // EIG round completed by this pulse's inbox
		for _, inst := range ic.insts {
			if !inst.Decided() {
				inst.EndRound()
			}
		}
		if ic.insts[0].Decided() {
			for s, inst := range ic.insts {
				v, err := inst.Decision()
				if err != nil {
					v = DefaultValue
				}
				ic.vector[s] = v
			}
			ic.done = true
			return nil, true
		}
		ic.pulseNo++
		return ic.broadcastRound(round+1, slot), false
	}
}

// broadcastRound gathers every instance's round messages into the slot's
// arenas: pairs are appended to one shared arena and sub-sliced per
// instance only once it is fully built, so arena growth (which should not
// happen — the arena is pre-sized to the widest broadcast level) can never
// dangle.
func (ic *IC) broadcastRound(round, slot int) []any {
	pairs := ic.pairs[slot][:0]
	for s, inst := range ic.insts {
		ic.starts[s] = len(pairs)
		pairs = inst.AppendRoundMessages(round, pairs)
	}
	ic.starts[ic.n] = len(pairs)
	msgs := ic.rounds[slot][:0]
	for s := 0; s < ic.n; s++ {
		lo, hi := ic.starts[s], ic.starts[s+1]
		msgs = append(msgs, icRoundMsg{Instance: s, Round: round, Pairs: pairs[lo:hi:hi]})
	}
	list := ic.inner[slot][:0]
	for i := range msgs {
		list = append(list, &msgs[i])
	}
	ic.pairs[slot] = pairs
	ic.rounds[slot] = msgs
	ic.inner[slot] = list
	return list
}

// Done reports whether the vector has been decided since the last Reset.
func (ic *IC) Done() bool { return ic.done }

// VectorRef returns the agreed vector without copying; it is valid only
// while Done() and until the next Reset. Callers must not retain it.
func (ic *IC) VectorRef() []Value {
	if !ic.done {
		return nil
	}
	return ic.vector
}
