package core

import (
	"context"
	"math"
	"testing"

	"gameauthority/internal/game"
	"gameauthority/internal/punish"
)

// The equivalence tests play each bare driver and a NewSession session of
// the same configuration side by side: the session shell must add nothing
// to the seeded play it wraps.

// TestEquivalencePure compares the pure driver play by play.
func TestEquivalencePure(t *testing.T) {
	const rounds = 12
	g := game.PrisonersDilemma()
	stubborn := func() *Agent {
		return &Agent{Choose: func(int, game.Profile) int { return 0 }}
	}

	bare, err := NewPureSession(g, []*Agent{HonestPure(g, 0), stubborn()},
		punish.NewReputation(2, 0.5, 0.2, 0.01), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(SessionConfig{
		Game:   g,
		Agents: []*Agent{nil, stubborn()},
		Scheme: punish.NewReputation(2, 0.5, 0.2, 0.01),
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		want, err := bare.PlayRound()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Play(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != want.Round || !got.Outcome.Equal(want.Outcome) {
			t.Fatalf("round %d: bare %v, session round %d %v", i, want.Outcome, got.Round, got.Outcome)
		}
		for p, c := range want.Costs {
			if math.Abs(c-got.Costs[p]) > 1e-12 {
				t.Fatalf("round %d: costs diverge (%v vs %v)", i, want.Costs, got.Costs)
			}
		}
	}
	if len(s.Results()) != rounds {
		t.Fatalf("session retained %d plays, want %d", len(s.Results()), rounds)
	}
	st := s.Stats()
	for i := 0; i < 2; i++ {
		if math.Abs(st.CumulativeCost[i]-bare.CumulativeCost(i)) > 1e-12 {
			t.Fatalf("cumulative cost %d: bare %v session %v", i, bare.CumulativeCost(i), st.CumulativeCost[i])
		}
		if st.Excluded[i] != bare.Excluded(i) {
			t.Fatalf("excluded flag %d diverges", i)
		}
	}
}

// TestEquivalenceMixed proves seeded equivalence on the Fig. 1 scenario.
func TestEquivalenceMixed(t *testing.T) {
	const rounds = 300
	cfg := fig1Config(AuditPerRound, 0, punish.NewDisconnect(2, 0), 2)
	bare, err := NewMixedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Play(rounds); err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(SessionConfig{
		Game:        cfg.Elected,
		Actual:      cfg.Actual,
		Strategies:  cfg.Strategies,
		MixedAgents: cfg.Agents,
		Scheme:      punish.NewDisconnect(2, 0),
		Mode:        cfg.Mode,
		Seed:        cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	for i := 0; i < 2; i++ {
		if math.Abs(st.CumulativeCost[i]-bare.CumulativeCost(i)) > 1e-9 {
			t.Fatalf("agent %d cumulative cost: bare %v session %v", i, bare.CumulativeCost(i), st.CumulativeCost[i])
		}
	}
	if !st.Excluded[1] || !bare.Excluded(1) {
		t.Fatal("manipulator not excluded on both paths")
	}
	if got := st.Protocol; got != bare.Stats() {
		t.Fatalf("protocol stats diverge: bare %+v session %+v", bare.Stats(), got)
	}
}

// TestEquivalenceRRA proves seeded equivalence of the Theorem 5 harness.
func TestEquivalenceRRA(t *testing.T) {
	const (
		n, b, k = 8, 4, 400
	)
	bare, err := NewRRASupervised(n, b, 3, punish.NewDisconnect(n, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Play(k); err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(SessionConfig{
		RRAAgents: n, RRAResources: b,
		Scheme: punish.NewDisconnect(n, 0),
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	h, ok := Driver(s).(*RRASupervised)
	if !ok {
		t.Fatalf("Driver returned %T for an RRA session", Driver(s))
	}
	if got, want := s.Stats().MaxLoad, bare.RRA().MaxLoad(); got != want || h.RRA().MaxLoad() != want {
		t.Fatalf("max load: bare %d session %d", want, got)
	}
	bareLoads, loads := bare.RRA().Loads(), h.RRA().Loads()
	for i := range bareLoads {
		if bareLoads[i] != loads[i] {
			t.Fatalf("loads diverge: bare %v session %v", bareLoads, loads)
		}
	}
}

// TestEquivalenceDistributed proves the distributed session records the
// plays the bare network completes.
func TestEquivalenceDistributed(t *testing.T) {
	const plays = 4
	g := game.PrisonersDilemma()

	bare, err := NewDistSession(2, 0, g, make([]*Agent, 2), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare.RunPlays(plays)
	want := bare.Procs[0].Results()

	s, err := NewSession(SessionConfig{Game: g, DistProcs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), plays); err != nil {
		t.Fatal(err)
	}
	got := s.Results()
	if len(got) != plays || len(want) != plays {
		t.Fatalf("completed plays: bare %d session %d, want %d", len(want), len(got), plays)
	}
	if _, ok := Driver(s).(*DistSession); !ok {
		t.Fatalf("Driver returned %T for a distributed session", Driver(s))
	}
	for i := range want {
		if !want[i].Outcome.Equal(got[i].Outcome) || want[i].Pulse != got[i].Pulse {
			t.Fatalf("play %d diverges: bare %v@%d session %v@%d",
				i, want[i].Outcome, want[i].Pulse, got[i].Outcome, got[i].Pulse)
		}
	}
}
