package gameauthority_test

import (
	"context"
	"math"
	"testing"

	ga "gameauthority"
)

// TestEndToEndFig1 exercises the full public API on the paper's headline
// scenario: the Fig. 1 hidden manipulation, unsupervised vs supervised.
func TestEndToEndFig1(t *testing.T) {
	const rounds = 5000
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	manipulator := &ga.MixedAgent{Override: func(round, honest int) int { return ga.ManipulateAction }}

	newFig1 := func(seed uint64, opts ...ga.Option) *ga.MixedSession {
		t.Helper()
		opts = append([]ga.Option{
			ga.WithActual(ga.MatchingPenniesManipulated()),
			ga.WithStrategies(strategies),
			ga.WithMixedAgents(nil, manipulator),
			ga.WithSeed(seed),
		}, opts...)
		s, err := ga.New(ga.MatchingPennies(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), rounds); err != nil {
			t.Fatal(err)
		}
		return ga.AsMixed(s)
	}
	unsup := newFig1(1)
	sup := newFig1(2, ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), ga.WithAudit(ga.AuditPerRound))

	gainUnsup := unsup.CumulativePayoff(1) / rounds
	gainSup := sup.CumulativePayoff(1) / rounds
	if gainUnsup < 3.5 {
		t.Fatalf("unsupervised manipulation gain = %v, want ≈ 4", gainUnsup)
	}
	if math.Abs(gainSup) > 0.1 {
		t.Fatalf("supervised manipulation gain = %v, want ≈ 0", gainSup)
	}
	if !sup.Excluded(1) {
		t.Fatal("supervised session did not exclude the manipulator")
	}
}

// TestEndToEndDistributed runs the full distributed middleware through the
// facade: honest replicas agree on every play.
func TestEndToEndDistributed(t *testing.T) {
	g := ga.PrisonersDilemma()
	// Two-player game on a 4-processor network is not supported (one
	// player per processor), so use the 2-processor degenerate bound:
	// f must be 0 (n > 3f).
	s, err := ga.New(g, ga.WithDistributed(2, 0, nil), ga.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	d := ga.AsDistributed(s)
	if err := d.ConsistentResults(3); err != nil {
		t.Fatal(err)
	}
	res := d.Procs[0].Results()
	if len(res) < 3 {
		t.Fatalf("plays completed = %d", len(res))
	}
	// Best-response dynamics land on defect/defect.
	last := res[len(res)-1]
	if !last.Outcome.Equal(ga.Profile{1, 1}) {
		t.Fatalf("distributed PD outcome = %v, want [1 1]", last.Outcome)
	}
}

// TestEndToEndRRATheorem5 sweeps R(k) through the facade and checks the
// Theorem 5 bound.
func TestEndToEndRRATheorem5(t *testing.T) {
	const (
		n, b = 8, 4
		k    = 2000
	)
	s, err := ga.New(nil, ga.WithRRA(n, b),
		ga.WithPunishment(ga.NewDisconnectScheme(n, 0)), ga.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	h := ga.AsRRA(s)
	r, err := ga.MultiRoundAnarchyCost(float64(h.RRA().MaxLoad()), ga.OptMaxLoad(n, b, k))
	if err != nil {
		t.Fatal(err)
	}
	if r > ga.Theorem5Bound(b, k)+0.05 {
		t.Fatalf("R(k)=%v above bound %v", r, ga.Theorem5Bound(b, k))
	}
	if r < 1-1e-9 {
		t.Fatalf("R(k)=%v below 1", r)
	}
}

// TestEndToEndElection verifies the legislative service through the facade.
func TestEndToEndElection(t *testing.T) {
	candidates := []ga.Candidate{
		{Game: ga.MatchingPennies(), Description: "pennies"},
		{Game: ga.PrisonersDilemma(), Description: "pd"},
	}
	voters := []ga.Voter{
		{Prefs: []int{0, 1}}, {Prefs: []int{0, 1}}, {Prefs: []int{1, 0}},
	}
	out, err := ga.RobustElection(candidates, voters, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != 0 {
		t.Fatalf("winner = %d, want 0", out.Winner)
	}
}

// TestEndToEndMetrics sanity-checks the metric helpers via the facade.
func TestEndToEndMetrics(t *testing.T) {
	poa, err := ga.PriceOfAnarchy(ga.PrisonersDilemma(), 0)
	if err != nil || math.Abs(poa-2) > 1e-9 {
		t.Fatalf("PoA = %v, %v", poa, err)
	}
	pom, err := ga.PriceOfMalice(3, 2)
	if err != nil || math.Abs(pom-1.5) > 1e-9 {
		t.Fatalf("PoM = %v, %v", pom, err)
	}
	eqs := ga.MixedNashEquilibria2P(ga.MatchingPennies(), 0)
	if len(eqs) != 1 || math.Abs(eqs[0][0][0]-0.5) > 1e-6 {
		t.Fatalf("matching pennies equilibrium = %v", eqs)
	}
}
