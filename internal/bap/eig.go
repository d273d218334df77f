package bap

import (
	"errors"
	"fmt"
	"sync"
)

// Value is an agreement value. Protocol payloads are canonically encoded
// strings so values are comparable and hashable.
type Value string

// DefaultValue is the fallback decision when no majority emerges.
const DefaultValue Value = ""

// Common errors.
var (
	ErrConfig     = errors.New("bap: invalid configuration")
	ErrNotDecided = errors.New("bap: protocol has not terminated")
)

// Rounds returns the number of communication rounds EIG needs: f+1.
func Rounds(f int) int { return f + 1 }

// eigLayout is the shared, immutable shape of the EIG tree for one (n, f)
// pair: every distinct-processor label up to length f+1, enumerated level
// by level in lexicographic order, as integer node indices with per-node
// parent and child tables. No label string is ever materialized: a node's
// label is its path from the root, and everything the protocol asks of a
// label (its level, whether it contains a processor, its child by one
// more processor) is a table lookup. Building it costs one burst of
// allocations; it is cached process-wide so every EIG instance at the
// same (n, f) shares it — the instance state shrinks to flat value/seen
// arrays over these indices, which is what makes the per-pulse protocol
// work allocation-free.
type eigLayout struct {
	n, f       int
	levelStart []int32   // level L occupies [levelStart[L], levelStart[L+1])
	parent     []int32   // node index → parent node index (-1 for the root)
	child      [][]int32 // node index → per-processor child index (-1: none)
}

var layoutCache sync.Map // [2]int{n, f} → *eigLayout

// layoutFor returns the cached layout for (n, f), building it on first use.
func layoutFor(n, f int) *eigLayout {
	key := [2]int{n, f}
	if v, ok := layoutCache.Load(key); ok {
		return v.(*eigLayout)
	}
	lay := buildLayout(n, f)
	actual, _ := layoutCache.LoadOrStore(key, lay)
	return actual.(*eigLayout)
}

// TreeNodes returns the node count of the EIG tree at (n, f): the root
// plus every distinct-processor label of length 1..f+1. n × TreeNodes is
// the per-pulse work of one interactive-consistency processor set, which
// the distributed driver uses to size its pulse engine.
func TreeNodes(n, f int) int {
	total, width := 1, 1
	for lv := 1; lv <= f+1; lv++ {
		width *= n - lv + 1
		total += width
	}
	return total
}

// buildLayout enumerates the distinct-id labels level by level. Within a
// level, parents are visited in index (= lexicographic) order and children
// appended in processor order, so same-length labels are lexicographically
// sorted by construction — RoundMessages inherits sortedness for free.
// A parent level's child tables are complete before its children are
// enumerated, which is all contains needs.
func buildLayout(n, f int) *eigLayout {
	nodes := TreeNodes(n, f)
	lay := &eigLayout{n: n, f: f, levelStart: []int32{0, 1}}
	lay.parent = make([]int32, 1, nodes)
	lay.parent[0] = -1
	lay.child = make([][]int32, nodes)
	flat := make([]int32, nodes*n)
	for i := range flat {
		flat[i] = -1
	}
	for i := range lay.child {
		lay.child[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for level := 0; level <= f; level++ {
		start, end := lay.level(level)
		for i := start; i < end; i++ {
			for j := 0; j < n; j++ {
				if lay.contains(i, j) {
					continue
				}
				lay.child[i][j] = int32(len(lay.parent))
				lay.parent = append(lay.parent, i)
			}
		}
		lay.levelStart = append(lay.levelStart, int32(len(lay.parent)))
	}
	return lay
}

// contains reports whether node i's label includes processor j: either
// the parent's label does (the parent has no j-child) or i is the parent's
// j-child itself.
func (l *eigLayout) contains(i int32, j int) bool {
	p := l.parent[i]
	if p < 0 {
		return false
	}
	c := l.child[p][j]
	return c < 0 || c == i
}

// nodes returns the total node count.
func (l *eigLayout) nodes() int { return len(l.parent) }

// level returns the [start, end) node range of one tree level.
func (l *eigLayout) level(lv int) (int32, int32) {
	return l.levelStart[lv], l.levelStart[lv+1]
}

// EIG is one processor's state in a single EIG agreement instance.
// It is a pure state machine: the caller moves messages between instances
// (the sim adapter in process.go does this over a Network).
//
// State is a pair of flat arrays indexed by the shared layout — no maps,
// no per-round allocation: Absorb, RoundMessages (via AppendRoundMessages)
// and EndRound run allocation-free once the instance exists.
type EIG struct {
	id, n, f int
	round    int // completed rounds
	lay      *eigLayout
	vals     []Value // node index → stored value
	set      []bool  // node index → value present
	res      []Value // resolve scratch (bottom-up majorities)
	decided  bool
	decision Value
}

// Pair is one EIG tree entry in transit: the sender's node index in the
// shared (n, f) layout — which names the label path — and the value the
// sender stores for it. Pairs only travel between instances of one
// process; no wire, snapshot or journal format carries them.
type Pair struct {
	Node int32
	Val  Value
}

// NewEIG creates processor id's state for one agreement on initial.
// Requires n > 3f (the LSP bound) and 0 ≤ id < n.
func NewEIG(id, n, f int, initial Value) (*EIG, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("%w: n=%d must exceed 3f=%d", ErrConfig, n, 3*f)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("%w: id=%d out of range", ErrConfig, id)
	}
	e := &EIG{id: id, n: n, f: f, lay: layoutFor(n, f)}
	nodes := e.lay.nodes()
	e.vals = make([]Value, nodes)
	e.set = make([]bool, nodes)
	e.res = make([]Value, nodes)
	e.Reset(initial)
	return e, nil
}

// Reset rewinds the instance to a fresh agreement on initial, reusing all
// backing arrays (no allocation). Composition layers that run one agreement
// per phase (the distributed driver's IC) reset instead of reallocating.
func (e *EIG) Reset(initial Value) {
	for i := range e.set {
		e.set[i] = false
	}
	for i := range e.vals {
		e.vals[i] = DefaultValue
	}
	e.round = 0
	e.decided = false
	e.decision = DefaultValue
	e.vals[0] = initial
	e.set[0] = true
}

// RoundMessages returns the pairs processor id must broadcast in the given
// round (0-based): all tree nodes at level == round whose label does not
// contain id, in label order. Every processor receives the same pairs
// (honest behaviour).
func (e *EIG) RoundMessages(round int) []Pair {
	return e.AppendRoundMessages(round, nil)
}

// AppendRoundMessages is RoundMessages into a caller-owned buffer: pairs
// are appended to dst and the extended slice returned. With a pre-sized
// buffer the call does not allocate.
func (e *EIG) AppendRoundMessages(round int, dst []Pair) []Pair {
	if round < 0 || round > e.f+1 {
		return dst
	}
	start, end := e.lay.level(round)
	for i := start; i < end; i++ {
		if !e.set[i] || e.lay.contains(i, e.id) {
			continue
		}
		dst = append(dst, Pair{Node: i, Val: e.vals[i]})
	}
	return dst
}

// MaxRoundPairs returns an upper bound on the pairs AppendRoundMessages
// can produce in any broadcast round 0..f — the widest of those tree
// levels. The leaf level f+1 is never broadcast: EIG decides once round f
// is absorbed. Callers size their reusable buffers with it.
func (e *EIG) MaxRoundPairs() int {
	max := 0
	for lv := 0; lv <= e.f; lv++ {
		if w := int(e.lay.levelStart[lv+1] - e.lay.levelStart[lv]); w > max {
			max = w
		}
	}
	return max
}

// Absorb ingests the pairs received from processor `from` in the given
// round: pair (L, v) becomes node L·from provided L lies on the round's
// tree level and does not already contain `from`. First writer wins; node
// indices outside the level (Byzantine garbage) are dropped, as are
// rounds outside 0..f+1 and senders outside 0..n-1.
func (e *EIG) Absorb(round, from int, pairs []Pair) {
	if from < 0 || from >= e.n || round < 0 || round > e.f+1 {
		return
	}
	start, end := e.lay.level(round)
	for _, p := range pairs {
		if p.Node < start || p.Node >= end {
			continue
		}
		child := e.lay.child[p.Node][from]
		if child < 0 || e.set[child] {
			continue // leaf level, label contains from, or first writer already won
		}
		e.vals[child] = p.Val
		e.set[child] = true
	}
}

// EndRound marks a communication round complete. After Rounds(f) rounds the
// instance resolves and decides.
func (e *EIG) EndRound() {
	e.round++
	if e.round >= Rounds(e.f) && !e.decided {
		e.decision = e.resolve()
		e.decided = true
	}
}

// Decided reports termination, and Decision returns the agreed value.
func (e *EIG) Decided() bool { return e.decided }

// Decision returns the decided value or ErrNotDecided.
func (e *EIG) Decision() (Value, error) {
	if !e.decided {
		return DefaultValue, ErrNotDecided
	}
	return e.decision, nil
}

// resolve computes the recursive majority ("resolve") of the EIG tree,
// bottom-up over the flat layout: leaves resolve to their stored value (or
// the default), inner nodes to the strict majority of their children's
// resolutions. A strict majority is unique, so the pairwise count below is
// order-independent and needs no map.
func (e *EIG) resolve() Value {
	start, end := e.lay.level(e.f + 1)
	for i := start; i < end; i++ {
		if e.set[i] {
			e.res[i] = e.vals[i]
		} else {
			e.res[i] = DefaultValue
		}
	}
	for lv := e.f; lv >= 0; lv-- {
		start, end := e.lay.level(lv)
		for i := start; i < end; i++ {
			children := e.lay.child[i]
			total := 0
			for j := 0; j < e.n; j++ {
				if children[j] >= 0 {
					total++
				}
			}
			if total == 0 {
				if e.set[i] {
					e.res[i] = e.vals[i]
				} else {
					e.res[i] = DefaultValue
				}
				continue
			}
			e.res[i] = DefaultValue
			for j := 0; j < e.n; j++ {
				if children[j] < 0 {
					continue
				}
				v := e.res[children[j]]
				count := 0
				for k := 0; k < e.n; k++ {
					if children[k] >= 0 && e.res[children[k]] == v {
						count++
					}
				}
				if 2*count > total {
					e.res[i] = v
					break
				}
			}
		}
	}
	return e.res[0]
}

// TreeSize returns the number of stored tree nodes (for overhead metrics).
func (e *EIG) TreeSize() int {
	size := 0
	for _, s := range e.set {
		if s {
			size++
		}
	}
	return size
}

// Corrupt scrambles the instance's internal state (transient fault model):
// random round counter, garbage values, arbitrary decision flag.
func (e *EIG) Corrupt(entropy func() uint64) {
	e.round = int(entropy() % uint64(e.f+2))
	e.decided = entropy()&1 == 0
	e.decision = Value(fmt.Sprintf("garbage-%d", entropy()%97))
	for i := range e.set {
		e.set[i] = false
	}
	e.vals[0] = e.decision
	e.set[0] = true
	// A few arbitrary level-1 nodes.
	for i := uint64(0); i < entropy()%5; i++ {
		idx := e.lay.child[0][entropy()%uint64(e.n)]
		e.vals[idx] = Value(fmt.Sprintf("junk-%d", entropy()%31))
		e.set[idx] = true
	}
}
