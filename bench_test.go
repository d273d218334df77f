// Benchmarks: one per experiment in DESIGN.md §2. Each bench regenerates
// its paper artifact (Fig. 1 analysis, Theorem 1 / Lemmas 2-3 behaviour,
// Theorem 5 curves, PoM reduction, audit/punishment/voting ablations) and
// reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness's performance profile. The
// full tables are printed by cmd/experiments.
package gameauthority_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	ga "gameauthority"
	"gameauthority/internal/auth"
	"gameauthority/internal/bap"
	"gameauthority/internal/game"
	"gameauthority/internal/metrics"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
	"gameauthority/internal/ssba"
)

// BenchmarkEF1MatchingPennies regenerates Fig. 1's manipulation analysis:
// B's expected gain without the authority (≈ +4/round) and with it (≈ 0).
func BenchmarkEF1MatchingPennies(b *testing.B) {
	const rounds = 2000
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	var gainUnsup, gainSup float64
	for i := 0; i < b.N; i++ {
		manip := &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
		play := func(opts ...ga.Option) *ga.MixedSession {
			opts = append([]ga.Option{
				ga.WithActual(ga.MatchingPenniesManipulated()),
				ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip),
				ga.WithSeed(uint64(i)),
			}, opts...)
			s, err := ga.New(ga.MatchingPennies(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(context.Background(), rounds); err != nil {
				b.Fatal(err)
			}
			return ga.AsMixed(s)
		}
		unsup := play(ga.WithAudit(ga.AuditOff))
		sup := play(ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), ga.WithAudit(ga.AuditPerRound))
		gainUnsup = unsup.CumulativePayoff(1) / rounds
		gainSup = sup.CumulativePayoff(1) / rounds
	}
	b.ReportMetric(gainUnsup, "gain-unsupervised/round")
	b.ReportMetric(gainSup, "gain-supervised/round")
}

// BenchmarkET1SSBA measures complete SSBA periods (clock-scheduled
// Byzantine agreements) per second with an equivocating Byzantine clock.
func BenchmarkET1SSBA(b *testing.B) {
	evil := prng.New(3)
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		msg, ok := payload.(ssba.Msg)
		if !ok {
			return payload
		}
		msg.Tick = int(evil.Uint64() % 8)
		return msg
	})}
	h, err := ssba.NewHarness(4, 1, 0, 17, func(id, pulse int) bap.Value { return "v" }, byz)
	if err != nil {
		b.Fatal(err)
	}
	m := h.Procs[0].M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Net.Run(m) // one period = one agreement
	}
	b.StopTimer()
	if v := h.CheckDecisions(3); len(v) != 0 {
		b.Fatalf("agreement violations: %+v", v)
	}
}

// BenchmarkEL2Convergence measures SSBA convergence from random corrupted
// configurations (Lemma 2's quantity) for n=4, f=1.
func BenchmarkEL2Convergence(b *testing.B) {
	var total float64
	count := 0
	for i := 0; i < b.N; i++ {
		h, err := ssba.NewHarness(4, 1, 0, uint64(100+i), func(id, pulse int) bap.Value { return "v" }, nil)
		if err != nil {
			b.Fatal(err)
		}
		ent := prng.New(uint64(9000 + i))
		pulses := h.ConvergencePulses(ent.Uint64, 2, 100000)
		total += float64(pulses)
		count++
	}
	b.ReportMetric(total/float64(count), "pulses-to-converge")
}

// BenchmarkEL3Closure runs long post-convergence executions and requires
// exactly one violation-free agreement per period (Lemma 3).
func BenchmarkEL3Closure(b *testing.B) {
	h, err := ssba.NewHarness(4, 1, 0, 5, func(id, pulse int) bap.Value { return "steady" }, nil)
	if err != nil {
		b.Fatal(err)
	}
	ent := prng.New(6)
	if p := h.ConvergencePulses(ent.Uint64, 2, 100000); p > 100000 {
		b.Fatal("no convergence")
	}
	m := h.Procs[0].M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := len(h.Procs[0].Decisions())
		h.Net.Run(10 * m)
		after := len(h.Procs[0].Decisions())
		if after-before != 10 {
			b.Fatalf("agreements per 10 periods = %d", after-before)
		}
	}
	b.StopTimer()
	if v := h.CheckDecisions(10); len(v) != 0 {
		b.Fatalf("closure violations: %+v", v)
	}
}

// BenchmarkET5RRA regenerates one Theorem 5 curve point: R(k) for the
// supervised RRA game at n=8, b=4, k=1000.
func BenchmarkET5RRA(b *testing.B) {
	const (
		n, bb, k = 8, 4, 1000
	)
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := ga.New(nil, ga.WithRRA(n, bb),
			ga.WithPunishment(ga.NewDisconnectScheme(n, 0)), ga.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background(), k); err != nil {
			b.Fatal(err)
		}
		r, err := ga.MultiRoundAnarchyCost(float64(s.Stats().MaxLoad), ga.OptMaxLoad(n, bb, k))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(ratio, "R(k)")
	b.ReportMetric(ga.Theorem5Bound(bb, k), "bound(1+2b/k)")
}

// BenchmarkEPoMInoculation regenerates the price-of-malice comparison on a
// 16x16 grid with 6 Byzantine nodes: selfish-only vs +Byzantine vs
// +Byzantine+authority.
func BenchmarkEPoMInoculation(b *testing.B) {
	var pomNoAuth, pomAuth float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		base, err := game.NewInoculation(16, 16, 1, 48)
		if err != nil {
			b.Fatal(err)
		}
		secure, _ := base.Equilibrium(seed, 200)
		costHonestOnly := base.SocialCost(secure, base.HonestNodes())

		byzIDs := []int{50, 51, 52, 100, 101, 102}
		withByz, _ := game.NewInoculation(16, 16, 1, 48)
		withByz.SetByzantine(byzIDs...)
		secureB, _ := withByz.Equilibrium(seed, 200)
		costWith := withByz.SocialCost(secureB, withByz.HonestNodes())

		authority, _ := game.NewInoculation(16, 16, 1, 48)
		authority.SetByzantine(byzIDs...)
		secureA, _ := authority.Equilibrium(seed, 200)
		for _, liar := range authority.AuditByzantine(secureA) {
			authority.Disconnect(liar)
		}
		secureA2, _ := authority.Equilibrium(seed+1, 200)
		costAuth := authority.SocialCost(secureA2, authority.HonestNodes())

		p1, err := metrics.PriceOfMalice(costWith, costHonestOnly)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := metrics.PriceOfMalice(costAuth, costHonestOnly)
		if err != nil {
			b.Fatal(err)
		}
		pomNoAuth, pomAuth = p1, p2
	}
	b.ReportMetric(pomNoAuth, "PoM-no-authority")
	b.ReportMetric(pomAuth, "PoM-authority")
}

// BenchmarkEAUDAuditing compares the per-round and batched (§5.3)
// disciplines' agreement overhead for 64 rounds.
func BenchmarkEAUDAuditing(b *testing.B) {
	const rounds = 64
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	run := func(seed uint64, audit ga.Option) float64 {
		s, err := ga.New(ga.MatchingPennies(), ga.WithStrategies(strategies),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)), audit, ga.WithSeed(seed))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background(), rounds); err != nil {
			b.Fatal(err)
		}
		// Close audits the trailing epoch.
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return float64(s.Stats().Protocol.Agreements)
	}
	var perRound, batched float64
	for i := 0; i < b.N; i++ {
		perRound = run(uint64(i), ga.WithAudit(ga.AuditPerRound))
		batched = run(uint64(i), ga.WithAudit(ga.AuditBatched, ga.EpochLen(16)))
	}
	b.ReportMetric(perRound/rounds, "agreements/round(per-round)")
	b.ReportMetric(batched/rounds, "agreements/round(batched-T16)")
}

// BenchmarkEPUNPunishment compares how many rounds each scheme needs to
// neutralize the Fig. 1 manipulator.
func BenchmarkEPUNPunishment(b *testing.B) {
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	roundsTo := func(scheme ga.PunishmentScheme, seed uint64) float64 {
		manip := &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
		s, err := ga.New(ga.MatchingPennies(),
			ga.WithActual(ga.MatchingPenniesManipulated()),
			ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip),
			ga.WithPunishment(scheme), ga.WithAudit(ga.AuditPerRound), ga.WithSeed(seed))
		if err != nil {
			b.Fatal(err)
		}
		mixed := ga.AsMixed(s)
		for r := 1; r <= 200; r++ {
			if _, err := s.Play(context.Background()); err != nil {
				b.Fatal(err)
			}
			if mixed.Excluded(1) {
				return float64(r)
			}
		}
		return 201
	}
	var disc, rep, dep float64
	for i := 0; i < b.N; i++ {
		disc = roundsTo(punish.NewDisconnect(2, 0), uint64(i))
		rep = roundsTo(punish.NewReputation(2, 0.5, 0.2, 0), uint64(i))
		dep = roundsTo(punish.NewDeposit(2, 3, 1), uint64(i))
	}
	b.ReportMetric(disc, "rounds-to-exclude(disconnect)")
	b.ReportMetric(rep, "rounds-to-exclude(reputation)")
	b.ReportMetric(dep, "rounds-to-exclude(deposit)")
}

// BenchmarkEVOTEVoting compares naive and robust legislative elections
// under a strategic voter.
func BenchmarkEVOTEVoting(b *testing.B) {
	candidates := []ga.Candidate{
		{Game: ga.MatchingPennies(), Description: "mp"},
		{Game: ga.PrisonersDilemma(), Description: "pd"},
		{Game: ga.CoordinationGame(), Description: "coord"},
	}
	voters := []ga.Voter{
		{Prefs: []int{0, 1, 2}}, {Prefs: []int{0, 1, 2}},
		{Prefs: []int{1, 0, 2}}, {Prefs: []int{1, 0, 2}},
		{Prefs: []int{2, 1, 0}, Manipulative: true},
	}
	var naiveWinner, robustWinner int
	for i := 0; i < b.N; i++ {
		n, err := ga.NaiveElection(candidates, voters)
		if err != nil {
			b.Fatal(err)
		}
		r, err := ga.RobustElection(candidates, voters, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		naiveWinner, robustWinner = n.Winner, r.Winner
	}
	b.ReportMetric(float64(naiveWinner), "naive-winner")
	b.ReportMetric(float64(robustWinner), "robust-winner")
}

// BenchmarkEBAPAgreement measures one EIG agreement (n=7, f=2) including
// an equivocating adversary, reporting messages per agreement.
func BenchmarkEBAPAgreement(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		n, f := 7, 2
		procs := make([]sim.Process, n)
		raws := make([]*bap.Proc, n)
		for j := 0; j < n; j++ {
			p, err := bap.NewProc(j, n, f, "v")
			if err != nil {
				b.Fatal(err)
			}
			raws[j] = p
			procs[j] = p
		}
		nw, err := sim.NewNetwork(procs, nil)
		if err != nil {
			b.Fatal(err)
		}
		evil := prng.New(uint64(i))
		nw.SetByzantine(6, sim.EquivocateAdversary(func(to int, payload any) any {
			_ = evil.Uint64()
			return payload
		}))
		nw.Run(bap.Rounds(f) + 2)
		for j := 0; j < n-1; j++ {
			if !raws[j].Decided() {
				b.Fatal("no decision")
			}
		}
		msgs = float64(nw.Stats.MessagesSent)
	}
	b.ReportMetric(msgs, "messages/agreement")
}

// BenchmarkDistributedPlay measures full distributed plays (4 processors,
// f=1: clock sync + 4 interactive consistencies per play).
func BenchmarkDistributedPlay(b *testing.B) {
	// A 4-player dominant-strategy game (one player per processor).
	g4 := benchNPD{n: 4}
	s, err := ga.New(g4, ga.WithDistributed(4, 1, nil), ga.WithPulseWorkers(1), ga.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	d := ga.AsDistributed(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunPlays(1)
	}
	b.StopTimer()
	if err := d.ConsistentResults(3); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDistributedCrossover measures one distributed play on the
// lockstep engine and on the worker pool at the committee sizes that
// bracket the auto-width crossover (DESIGN.md §13). The pool row runs at
// min(GOMAXPROCS, n) workers but never fewer than two, so it measures the
// pool even on one core. pulse-work is n × EIG layout nodes, the quantity
// the auto width compares against its crossover constant.
func BenchmarkDistributedCrossover(b *testing.B) {
	ctx := context.Background()
	pool := max(runtime.GOMAXPROCS(0), 2)
	for _, c := range []struct{ n, f int }{{4, 1}, {10, 1}, {7, 2}, {13, 1}, {8, 2}, {15, 1}, {16, 1}} {
		for _, engine := range []struct {
			name    string
			workers int
		}{{"lockstep", 1}, {"pool", min(pool, c.n)}} {
			b.Run(fmt.Sprintf("n=%d/f=%d/%s", c.n, c.f, engine.name), func(b *testing.B) {
				g, err := ga.PublicGoods(c.n, 2)
				if err != nil {
					b.Fatal(err)
				}
				s, err := ga.New(g, ga.WithDistributed(c.n, c.f, nil),
					ga.WithPulseWorkers(engine.workers), ga.WithSeed(1), ga.WithHistoryLimit(16))
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				if _, err := s.Run(ctx, 4); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Play(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(c.n*bap.TreeNodes(c.n, c.f)), "pulse-work")
				b.ReportMetric(float64(engine.workers), "workers")
			})
		}
	}
}

// BenchmarkEEXTSampled measures the §1.1 sampled-audit extension: detection
// latency of the Fig. 1 manipulator at a 20% spot-check rate.
func BenchmarkEEXTSampled(b *testing.B) {
	strategies := func(int, ga.Profile) ga.MixedProfile {
		return ga.MixedProfile{ga.Uniform(2), ga.Uniform(2)}
	}
	var latency float64
	for i := 0; i < b.N; i++ {
		manip := &ga.MixedAgent{Override: func(int, int) int { return ga.ManipulateAction }}
		s, err := ga.New(ga.MatchingPennies(),
			ga.WithActual(ga.MatchingPenniesManipulated()),
			ga.WithStrategies(strategies), ga.WithMixedAgents(nil, manip),
			ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
			ga.WithAudit(ga.AuditSampled, ga.SampleProb(0.2)), ga.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		mixed := ga.AsMixed(s)
		latency = 201
		for r := 1; r <= 200; r++ {
			if _, err := s.Play(context.Background()); err != nil {
				b.Fatal(err)
			}
			if mixed.Excluded(1) {
				latency = float64(r)
				break
			}
		}
	}
	b.ReportMetric(latency, "rounds-to-catch(p=0.2)")
}

// BenchmarkAuthIC measures authenticated interactive consistency (n=5,
// f=2 — beyond the n>3f bound of EIG) including HMAC verification.
func BenchmarkAuthIC(b *testing.B) {
	const n, f = 5, 2
	dealer := auth.NewDealer(n, 1)
	for i := 0; i < b.N; i++ {
		procs := make([]sim.Process, n)
		raw := make([]*bap.AuthICProc, n)
		for j := 0; j < n; j++ {
			a, err := dealer.Authenticator(j)
			if err != nil {
				b.Fatal(err)
			}
			p, err := bap.NewAuthICProc(j, n, f, a, bap.Value(fmt.Sprintf("v%d", j)))
			if err != nil {
				b.Fatal(err)
			}
			raw[j] = p
			procs[j] = p
		}
		nw, err := sim.NewNetwork(procs, nil)
		if err != nil {
			b.Fatal(err)
		}
		nw.Run(bap.AuthICTotalPulses(f))
		for j := 0; j < n; j++ {
			if !raw[j].Done() {
				b.Fatal("authenticated IC did not terminate")
			}
		}
	}
}

// benchNPD is an n-player dominant-strategy game for distributed benches.
type benchNPD struct{ n int }

func (g benchNPD) NumPlayers() int    { return g.n }
func (g benchNPD) NumActions(int) int { return 2 }
func (g benchNPD) Cost(i int, p ga.Profile) float64 {
	coop := 0
	for _, a := range p {
		if a == 0 {
			coop++
		}
	}
	base := float64(g.n - coop)
	if p[i] == 0 {
		return base + 2
	}
	return base
}

var _ = fmt.Sprintf // keep fmt for ad-hoc debugging of benches
