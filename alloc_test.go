package gameauthority_test

import (
	"context"
	"fmt"
	"testing"

	ga "gameauthority"
)

// Allocation budgets per driver, enforced by TestAllocsPerPlay. The pure
// driver's budget is the headline: a fully audited play — choice,
// commitment, reveal, SHA-256 verification, best-response audit,
// publication, history recording — without a single heap allocation. The
// other budgets are pinned at measured+10% (mixed 14, RRA 56, distributed
// 112 as of the PR 9 arena work) so a real regression trips the gate
// instead of drifting inside slack. The distributed residue is entirely
// phase-boundary work — evidence encode/decode, commitments, the retained
// outcome profile — while the per-pulse engine itself is allocation-free
// (see TestICEnginePhaseZeroAlloc in internal/bap).
const (
	pureAllocBudget  = 0
	mixedAllocBudget = 16
	rraAllocBudget   = 62
	distAllocBudget  = 124
	// The wider committees of TestAllocsPerPlayDistributed, measured at
	// 260 (n=7/f=2) and 461 (n=10/f=1) allocs per play and pinned at
	// measured+10%, rounded up.
	distAllocBudgetN7  = 286
	distAllocBudgetN10 = 508
	// playNOverheadBudget bounds the fixed cost of one PlayN call beyond
	// its rounds' own budgets: the lock-once loop may allocate for its
	// play closure but must not allocate per round, so a whole pure batch
	// stays within this constant regardless of batch size.
	playNOverheadBudget = 2
)

func TestAllocsPerPlayPure(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil { // warm scratch + ring
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pureAllocBudget {
		t.Fatalf("pure play allocates %v times, budget %d", allocs, pureAllocBudget)
	}
}

// TestAllocsPerPlayNPure gates the batched hot path: a 16-round pure
// PlayN — 16 fully audited plays plus the batch loop itself — must stay
// within the fixed per-call overhead, i.e. zero allocations per round.
func TestAllocsPerPlayNPure(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(ga.PrisonersDilemma(), ga.WithSeed(1),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	sink := func(ga.RoundResult) error { return nil }
	if _, err := s.PlayN(ctx, 64, sink); err != nil { // warm scratch + ring
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.PlayN(ctx, 16, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > playNOverheadBudget {
		t.Fatalf("16-round pure PlayN allocates %v times, budget %d", allocs, playNOverheadBudget)
	}
	t.Logf("16-round pure PlayN: %v allocs (budget %d)", allocs, playNOverheadBudget)
}

func TestAllocsPerPlayMixed(t *testing.T) {
	ctx := context.Background()
	strategies := ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	s, err := ga.New(ga.MatchingPennies(),
		ga.WithStrategies(func(int, ga.Profile) ga.MixedProfile { return strategies }),
		ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
		ga.WithAudit(ga.AuditPerRound),
		ga.WithSeed(1),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > mixedAllocBudget {
		t.Fatalf("mixed play allocates %v times, budget %d", allocs, mixedAllocBudget)
	}
	t.Logf("mixed play: %v allocs (budget %d)", allocs, mixedAllocBudget)
}

func TestAllocsPerPlayRRA(t *testing.T) {
	ctx := context.Background()
	s, err := ga.New(nil, ga.WithRRA(8, 4),
		ga.WithPunishment(ga.NewDisconnectScheme(8, 0)),
		ga.WithSeed(1),
		ga.WithHistoryLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rraAllocBudget {
		t.Fatalf("RRA play allocates %v times, budget %d", allocs, rraAllocBudget)
	}
	t.Logf("RRA play: %v allocs (budget %d)", allocs, rraAllocBudget)
}

// TestAllocsPerPlayDistributed pins a lockstep distributed play at each
// committee size the byz-committee workload runs. The residue is
// phase-boundary work, which grows with n (n-wide evidence vectors,
// encodings and commitments); the per-pulse engine stays at zero.
func TestAllocsPerPlayDistributed(t *testing.T) {
	for _, tc := range []struct {
		n, f   int
		budget float64
	}{
		{4, 1, distAllocBudget},
		{7, 2, distAllocBudgetN7},
		{10, 1, distAllocBudgetN10},
	} {
		t.Run(fmt.Sprintf("n=%d/f=%d", tc.n, tc.f), func(t *testing.T) {
			ctx := context.Background()
			g, err := ga.PublicGoods(tc.n, 2)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ga.New(g, ga.WithDistributed(tc.n, tc.f, nil),
				ga.WithPulseWorkers(1), // lockstep: measure protocol allocations, not scheduler noise
				ga.WithSeed(1),
				ga.WithHistoryLimit(16))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(ctx, 8); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Play(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Fatalf("distributed play allocates %v times, budget %v", allocs, tc.budget)
			}
			t.Logf("distributed play: %v allocs (budget %v)", allocs, tc.budget)
		})
	}
}
