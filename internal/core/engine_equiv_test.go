package core

import (
	"context"
	"testing"

	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

// buildEquivSession constructs one distributed session with an
// equivocating network adversary on processor 3 and the given pulse
// engine width.
func buildEquivSession(t *testing.T, workers int) Session {
	t.Helper()
	n, f := 4, 1
	g := &nPlayerPD{n: n}
	evil := prng.New(77)
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		msg, ok := payload.(*distMsg)
		if !ok {
			return payload
		}
		forged := *msg
		forged.Tick = int(evil.Uint64() % 18)
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
	ctx := context.Background()
	const plays = 5
	lock := buildEquivSession(t, 1)
	pool := buildEquivSession(t, 4)
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
	ctx := context.Background()
	lock := buildEquivSession(t, 1)
	pool := buildEquivSession(t, 3)
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
