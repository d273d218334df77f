package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gameauthority/internal/bap"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

// equivShapes are the (n, f) shapes the engine-equivalence tests run:
// both EIG depths the committee benchmark plays (n = 4/f = 1 and
// n = 7/f = 2) and n = 15/f = 1, the smallest benchmarked shape the auto
// width sends to the pool.
var equivShapes = []struct{ n, f int }{{4, 1}, {7, 2}, {15, 1}}

// buildEquivSession constructs one distributed session at (n, f) with an
// equivocating network adversary on processor 3 and the given pulse
// engine width.
func buildEquivSession(t *testing.T, n, f, workers int) Session {
	t.Helper()
	g := &nPlayerPD{n: n}
	evil := prng.New(77)
	ticks := uint64(PulsesPerPlay(f))
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		msg, ok := payload.(*distMsg)
		if !ok {
			return payload
		}
		forged := *msg
		forged.Tick = int(evil.Uint64() % ticks)
		if to%2 == 1 {
			forged.HasInner = false
			forged.Inner = nil
		}
		return &forged
	})}
	s, err := NewSession(SessionConfig{
		Game: g, Seed: 9, DistProcs: n, DistFaults: f, DistByz: byz,
		DistWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDistEngineEquivalence proves the worker-pool pulse engine replays
// the lockstep execution exactly through the full middleware stack:
// identical outcomes, pulses, verdicts, and traffic, play for play.
func TestDistEngineEquivalence(t *testing.T) {
	for _, sh := range equivShapes {
		t.Run(fmt.Sprintf("n=%d/f=%d", sh.n, sh.f), func(t *testing.T) {
			testDistEngineEquivalence(t, sh.n, sh.f)
		})
	}
}

func testDistEngineEquivalence(t *testing.T, n, f int) {
	ctx := context.Background()
	const plays = 5
	lock := buildEquivSession(t, n, f, 1)
	pool := buildEquivSession(t, n, f, 4)
	defer pool.Close()
	for i := 0; i < plays; i++ {
		a, err := lock.Play(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pool.Play(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Outcome.Equal(b.Outcome) || a.Pulse != b.Pulse {
			t.Fatalf("play %d diverges: lockstep %v@%d, pool %v@%d",
				i, a.Outcome, a.Pulse, b.Outcome, b.Pulse)
		}
		if EncodeFoulSet(a.Convicted) != EncodeFoulSet(b.Convicted) {
			t.Fatalf("play %d verdicts diverge: %v vs %v", i, a.Convicted, b.Convicted)
		}
	}
	sa, sb := lock.Stats(), pool.Stats()
	if sa.Pulses != sb.Pulses || sa.Messages != sb.Messages {
		t.Fatalf("traffic diverges: lockstep %d pulses/%d msgs, pool %d pulses/%d msgs",
			sa.Pulses, sa.Messages, sb.Pulses, sb.Messages)
	}
}

// TestDistEngineEquivalenceUnderCorruption repeats the equivalence check
// across a transient fault injected into both executions at the same
// point, covering the §4 recovery path on the pool engine.
func TestDistEngineEquivalenceUnderCorruption(t *testing.T) {
	for _, sh := range equivShapes {
		t.Run(fmt.Sprintf("n=%d/f=%d", sh.n, sh.f), func(t *testing.T) {
			testDistEngineEquivalenceUnderCorruption(t, sh.n, sh.f)
		})
	}
}

func testDistEngineEquivalenceUnderCorruption(t *testing.T, n, f int) {
	ctx := context.Background()
	lock := buildEquivSession(t, n, f, 1)
	pool := buildEquivSession(t, n, f, 3)
	defer pool.Close()
	play := func(s Session) RoundResult {
		t.Helper()
		r, err := s.Play(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i := 0; i < 2; i++ {
		play(lock)
		play(pool)
	}
	// Identical corruption entropy on both networks.
	AsDist := func(s Session) *DistSession {
		d, ok := Driver(s).(*DistSession)
		if !ok {
			t.Fatal("not a distributed session")
		}
		return d
	}
	entA, entB := prng.New(1234), prng.New(1234)
	AsDist(lock).Net.Corrupt(entA.Uint64)
	AsDist(pool).Net.Corrupt(entB.Uint64)
	for i := 0; i < 3; i++ {
		a, b := play(lock), play(pool)
		if !a.Outcome.Equal(b.Outcome) || a.Pulse != b.Pulse {
			t.Fatalf("post-fault play %d diverges: %v@%d vs %v@%d",
				i, a.Outcome, a.Pulse, b.Outcome, b.Pulse)
		}
	}
}

// TestAutoPulseWorkers pins how DistWorkers == 0 resolves: lockstep while
// n × EIG tree nodes is below poolCrossover, a GOMAXPROCS-wide pool from
// it on. An explicit width always stands.
func TestAutoPulseWorkers(t *testing.T) {
	pool := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, f, want int }{
		{0, 4, 1, 1},     // 68 per pulse
		{0, 10, 1, 1},    // 1,010
		{0, 7, 2, 1},     // 1,820
		{0, 8, 2, 1},     // 3,208
		{0, 15, 1, pool}, // 3,390
		{0, 16, 1, pool}, // 4,112
		{1, 16, 1, 1},
		{3, 4, 1, 3},
	} {
		if got := autoPulseWorkers(c.workers, c.n, c.f); got != c.want {
			t.Errorf("autoPulseWorkers(%d, n=%d, f=%d) = %d, want %d", c.workers, c.n, c.f, got, c.want)
		}
	}
}

// TestDistEIGNodes pins the agreement-state count against bap.TreeNodes
// on shapes inside the budget, and its saturation on shapes beyond it,
// including ones whose level widths would overflow int.
func TestDistEIGNodes(t *testing.T) {
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 1}, {10, 2}, {16, 1}, {16, 2}, {31, 1}, {4, 5}} {
		if got, want := distEIGNodes(c.n, c.f), c.n*c.n*bap.TreeNodes(c.n, c.f); got != want || got > maxDistEIGNodes {
			t.Errorf("distEIGNodes(%d, %d) = %d, want %d within the budget", c.n, c.f, got, want)
		}
	}
	for _, c := range []struct{ n, f int }{{32, 1}, {13, 3}, {16, 5}, {64, 21}, {1 << 40, 1}} {
		if got := distEIGNodes(c.n, c.f); got != maxDistEIGNodes+1 {
			t.Errorf("distEIGNodes(%d, %d) = %d, want saturation at %d", c.n, c.f, got, maxDistEIGNodes+1)
		}
	}
	if got := distEIGNodes(0, 1); got != 0 {
		t.Errorf("distEIGNodes(0, 1) = %d, want 0", got)
	}
}
