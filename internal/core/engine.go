package core

import (
	"context"
	"fmt"
	"runtime"

	"gameauthority/internal/audit"
	"gameauthority/internal/bap"
	"gameauthority/internal/game"
)

// engine is one play mode's plug-in behind the session shell: the step
// that differs between pure (§3.3), mixed (§5), RRA (§6) and distributed
// play, plus the state only that mode can report. The shell serializes
// every call.
type engine interface {
	// step runs the play with index round and returns its result and the
	// number of fouls the judicial service found in it. The result's
	// slices may alias engine scratch: the shell copies them into the
	// history ring before the next step. The shell sets Excluded.
	step(ctx context.Context, round int) (res RoundResult, fouls int, err error)
	// Excluded reports whether agent i is currently excluded by the
	// executive service.
	Excluded(i int) bool
	// CumulativeCost returns agent i's total cost over all plays.
	CumulativeCost(i int) float64
	// stats returns st with the mode-specific fields filled in.
	stats(st SessionStats) SessionStats
	// close finalizes the engine and returns the fouls a closing audit
	// found. On error the session stays open.
	close() (fouls []audit.Foul, err error)
	// driver returns the exported driver the engine plays on (see Driver).
	driver() any
}

// --- Pure engine (§3.3) ---------------------------------------------------------

// pureEngine is pointer-shaped, so storing it in the shell's engine
// interface does not allocate.
type pureEngine struct{ *PureSession }

func newPureEngine(cfg SessionConfig) (pureEngine, error) {
	n := cfg.Game.NumPlayers()
	agents := cfg.Agents
	if agents == nil {
		agents = make([]*Agent, n)
	}
	if len(agents) != n {
		return pureEngine{}, fmt.Errorf("%w: %d agents for %d players", ErrConfig, len(agents), n)
	}
	filled := make([]*Agent, n)
	copy(filled, agents)
	if err := installPureDeviants(filled, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return pureEngine{}, err
	}
	for i := range filled {
		if filled[i] == nil {
			filled[i] = HonestPure(cfg.Game, i)
		}
	}
	s, err := NewPureSession(cfg.Game, filled, cfg.Scheme, cfg.Seed)
	return pureEngine{s}, err
}

func (e pureEngine) step(context.Context, int) (RoundResult, int, error) {
	res, err := e.PlayRound()
	return res, len(res.Verdict.Fouls), err
}

func (e pureEngine) stats(st SessionStats) SessionStats { return st }
func (e pureEngine) close() ([]audit.Foul, error)       { return nil, nil }
func (e pureEngine) driver() any                        { return e.PureSession }

// --- Mixed engine (§5) ----------------------------------------------------------

type mixedEngine struct {
	*MixedSession
	seenVerdicts int

	// Per-play scratch, reused across plays.
	prevCost []float64
	costs    []float64
	merged   audit.Verdict
}

func newMixedEngine(cfg SessionConfig) (*mixedEngine, error) {
	n := cfg.Game.NumPlayers()
	agents := make([]*MixedAgent, n)
	if cfg.MixedAgents != nil {
		if len(cfg.MixedAgents) != n {
			return nil, fmt.Errorf("%w: %d mixed agents for %d players", ErrConfig, len(cfg.MixedAgents), n)
		}
		copy(agents, cfg.MixedAgents)
	}
	if err := installMixedDeviants(agents, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == 0 {
		// Default discipline: audit per round when an executive scheme is
		// installed, otherwise the unsupervised baseline.
		if cfg.Scheme != nil {
			mode = AuditPerRound
		} else {
			mode = AuditOff
		}
	}
	s, err := NewMixedSession(MixedConfig{
		Elected:      cfg.Game,
		Actual:       cfg.Actual,
		Strategies:   cfg.Strategies,
		Agents:       agents,
		Scheme:       cfg.Scheme,
		Mode:         mode,
		EpochLen:     cfg.EpochLen,
		SampleProb:   cfg.SampleProb,
		Window:       cfg.Window,
		ChiThreshold: cfg.ChiThreshold,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &mixedEngine{
		MixedSession: s,
		prevCost:     make([]float64, n),
		costs:        make([]float64, n),
	}, nil
}

func (e *mixedEngine) step(_ context.Context, round int) (RoundResult, int, error) {
	for i := range e.prevCost {
		e.prevCost[i] = e.CumulativeCost(i)
	}
	outcome, err := e.PlayRound()
	if err != nil {
		return RoundResult{}, 0, err
	}
	for i := range e.costs {
		e.costs[i] = e.CumulativeCost(i) - e.prevCost[i]
	}
	verdict := e.drainVerdicts()
	return RoundResult{
		Round:     round,
		Outcome:   outcome,
		Verdict:   verdict,
		Convicted: verdict.Guilty(),
		Costs:     e.costs,
	}, len(verdict.Fouls), nil
}

// drainVerdicts merges verdicts issued since the last drain into one
// (reusing the engine's scratch). In batched mode an epoch's verdict lands
// on the play that closed the epoch.
func (e *mixedEngine) drainVerdicts() audit.Verdict {
	count := e.VerdictCount()
	e.merged.Fouls = e.merged.Fouls[:0]
	for i := e.seenVerdicts; i < count; i++ {
		e.merged.Fouls = append(e.merged.Fouls, e.VerdictAt(i).Fouls...)
	}
	e.seenVerdicts = count
	return e.merged
}

func (e *mixedEngine) stats(st SessionStats) SessionStats {
	st.Protocol = e.Stats()
	return st
}

// close audits any trailing partial epoch (batched mode).
func (e *mixedEngine) close() ([]audit.Foul, error) {
	if err := e.CloseEpoch(); err != nil {
		return nil, err
	}
	return e.drainVerdicts().Fouls, nil
}

func (e *mixedEngine) driver() any { return e.MixedSession }

// --- RRA engine (§6) ------------------------------------------------------------

type rraEngine struct {
	*RRASupervised
	seenFouls int
	cumCost   []float64

	// Per-play scratch, reused across plays.
	verdict audit.Verdict
	costs   []float64
}

func newRRAEngine(cfg SessionConfig) (*rraEngine, error) {
	h, err := NewRRASupervised(cfg.RRAAgents, cfg.RRAResources, cfg.Seed, cfg.Scheme, cfg.Scheme != nil)
	if err != nil {
		return nil, err
	}
	for agent, choose := range cfg.RRAByz {
		h.SetByzantine(agent, choose)
	}
	deviants, err := deviantPlayers(cfg.Deviants, cfg.RRAAgents)
	if err != nil {
		return nil, err
	}
	for _, player := range deviants {
		if _, taken := cfg.RRAByz[player]; taken {
			return nil, fmt.Errorf("%w: RRA agent %d has both a Byzantine chooser and a deviant strategy", ErrConfig, player)
		}
		h.SetDeviant(player, cfg.Deviants[player].RRAChooser(player, cfg.Seed))
	}
	return &rraEngine{
		RRASupervised: h,
		costs:         make([]float64, cfg.RRAAgents),
		cumCost:       make([]float64, cfg.RRAAgents),
	}, nil
}

func (e *rraEngine) step(_ context.Context, round int) (RoundResult, int, error) {
	if err := e.PlayRound(); err != nil {
		return RoundResult{}, 0, err
	}
	e.verdict.Fouls = append(e.verdict.Fouls[:0], e.fouls[e.seenFouls:]...)
	e.seenFouls = len(e.fouls)
	// Per-agent cost of the play: the post-step cumulative load of the
	// chosen resource — exactly the §6 strategic-form cost (pre-step load
	// plus this round's contention).
	for i, choice := range e.lastChoices {
		e.costs[i] = float64(e.RRA().Load(choice))
		e.cumCost[i] += e.costs[i]
	}
	return RoundResult{
		Round:     round,
		Outcome:   e.lastChoices,
		Verdict:   e.verdict,
		Convicted: e.verdict.Guilty(),
		Costs:     e.costs,
	}, len(e.verdict.Fouls), nil
}

func (e *rraEngine) CumulativeCost(i int) float64 { return e.cumCost[i] }
func (e *rraEngine) stats(st SessionStats) SessionStats {
	st.MaxLoad = e.RRA().MaxLoad()
	return st
}
func (e *rraEngine) close() ([]audit.Foul, error) { return nil, nil }
func (e *rraEngine) driver() any                  { return e.RRASupervised }

// --- Distributed engine (§3.3 over the synchronous network) --------------------

type distEngine struct {
	*DistSession
	g         game.Game
	f         int
	hub       *observerHub
	budget    int
	seen      int
	lastPulse int
	cumCost   []float64

	costs []float64 // per-play scratch
}

func newDistEngine(cfg SessionConfig, hub *observerHub) (*distEngine, error) {
	n, f := cfg.DistProcs, cfg.DistFaults
	if n <= 3*f {
		return nil, fmt.Errorf("%w: need n > 3f (got n=%d f=%d)", ErrConfig, n, f)
	}
	if cfg.Agents != nil && len(cfg.Agents) != n {
		return nil, fmt.Errorf("%w: %d agents for %d processors", ErrConfig, len(cfg.Agents), n)
	}
	behaviors := make([]*Agent, n)
	copy(behaviors, cfg.Agents)
	if err := installPureDeviants(behaviors, cfg.Deviants, cfg.Game, cfg.Seed); err != nil {
		return nil, err
	}
	s, err := NewDistSessionWith(n, f, cfg.Game, behaviors, cfg.Seed, cfg.DistByz, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	budget := cfg.DistPulseBudget
	if budget <= 0 {
		budget = 50 * PulsesPerPlay(f)
	}
	s.Net.SetWorkers(autoPulseWorkers(cfg.DistWorkers, n, f))
	return &distEngine{
		DistSession: s, g: cfg.Game, f: f, hub: hub, budget: budget,
		costs:   make([]float64, n),
		cumCost: make([]float64, n),
	}, nil
}

// poolCrossover is the per-pulse work, n × EIG layout nodes, from which
// the worker pool clearly beats lockstep on one session. Below it the
// pool's per-pulse hand-off costs about as much as the work it spreads,
// and under concurrent sessions it loses. DESIGN.md §13 has the
// BenchmarkDistributedCrossover table and the byz-committee runs it was
// read from.
const poolCrossover = 3300

// autoPulseWorkers resolves a DistWorkers setting to a pulse-engine width:
// an explicit width stands; 0 picks lockstep below poolCrossover and a
// GOMAXPROCS-wide pool from it on (the network clamps any width to n).
func autoPulseWorkers(workers, n, f int) int {
	if workers != 0 {
		return workers
	}
	if n*bap.TreeNodes(n, f) < poolCrossover {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// step steps the network until the reference honest processor completes
// its next play, within the pulse budget.
func (e *distEngine) step(ctx context.Context, round int) (RoundResult, int, error) {
	if len(e.Honest) == 0 {
		return RoundResult{}, 0, fmt.Errorf("%w: no honest processors to observe", ErrConfig)
	}
	ref := e.Procs[e.Honest[0]]
	// A transient fault wipes processor histories; re-anchor the cursor.
	if c := ref.ResultCount(); c < e.seen {
		e.seen = c
	}
	for steps := 0; ref.ResultCount() <= e.seen; steps++ {
		if err := ctx.Err(); err != nil {
			return RoundResult{}, 0, err
		}
		if steps >= e.budget {
			return RoundResult{}, 0, fmt.Errorf("%w (budget %d pulses)", ErrPulseBudget, e.budget)
		}
		e.Net.Step()
	}
	r := ref.resultRef(e.seen)
	e.seen++

	if e.lastPulse > 0 && r.Pulse-e.lastPulse > PulsesPerPlay(e.f) && e.hub.active() {
		e.hub.emit(Event{
			Kind:   EventClockRecovery,
			Round:  round,
			Pulse:  r.Pulse,
			Detail: fmt.Sprintf("play completed after a %d-pulse gap (one period is %d)", r.Pulse-e.lastPulse, PulsesPerPlay(e.f)),
		})
	}
	e.lastPulse = r.Pulse

	// Per-agent cost of the agreed outcome on the elected game — the
	// value the profit auditor compares across honest/deviant twins.
	for i := range e.costs {
		e.costs[i] = e.g.Cost(i, r.Outcome)
		e.cumCost[i] += e.costs[i]
	}
	return RoundResult{
		Round:     round,
		Outcome:   r.Outcome,
		Convicted: r.Guilty,
		Costs:     e.costs,
		Pulse:     r.Pulse,
	}, len(r.Guilty), nil
}

// Excluded reads the executive replica of the reference honest processor.
func (e *distEngine) Excluded(i int) bool {
	return len(e.Honest) > 0 && e.Procs[e.Honest[0]].Excluded(i)
}

func (e *distEngine) CumulativeCost(i int) float64 { return e.cumCost[i] }

func (e *distEngine) stats(st SessionStats) SessionStats {
	st.Pulses = int64(e.Net.Stats.Pulses)
	st.Messages = e.Net.Stats.MessagesSent
	return st
}

// close releases the pulse engine's worker pool.
func (e *distEngine) close() ([]audit.Foul, error) {
	e.Net.Close()
	return nil, nil
}

func (e *distEngine) driver() any { return e.DistSession }
