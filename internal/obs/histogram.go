package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-spaced doubling upper bounds. Bucket 0 covers
// (0, 2^minShift] ns; bucket i covers (2^(minShift+i-1), 2^(minShift+i)]
// ns; the final slot is the +Inf overflow. 26 finite buckets span
// ~1µs .. ~34s, which brackets everything from a pure in-process play
// (~µs) to a crash-recovery replay (~s) with ≤2× quantile error.
const (
	minShift   = 10 // bucket 0 upper bound: 2^10 ns ≈ 1.02 µs
	numBuckets = 26 // last finite upper bound: 2^35 ns ≈ 34.4 s
)

// Label is one constant name="value" pair attached to a series at
// registration time. Recording never touches labels.
type Label struct {
	Key   string
	Value string
}

// Histogram is a fixed-bucket latency histogram. Record is safe for
// concurrent use and performs no allocation: three atomic adds on
// preallocated slots (pinned by TestRecordZeroAlloc). Construct through
// Registry.Histogram / obs.NewHistogram so the series is exported.
type Histogram struct {
	name   string
	help   string
	labels []Label
	key    string // name + canonical label string, the registry identity

	counts [numBuckets + 1]atomic.Uint64 // last slot is +Inf
	count  atomic.Uint64
	sumNs  atomic.Uint64
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Count reports the total number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Name reports the series' metric name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a nanosecond value to its bucket slot.
func bucketIndex(ns uint64) int {
	if ns <= 1<<minShift {
		return 0
	}
	idx := bits.Len64(ns-1) - minShift
	if idx > numBuckets {
		idx = numBuckets
	}
	return idx
}

// bucketUpperNs is finite bucket i's inclusive upper bound in
// nanoseconds (the exposition's le label).
func bucketUpperNs(i int) float64 {
	return float64(uint64(1) << (minShift + i))
}
