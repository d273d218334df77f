package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gameauthority/internal/game"
	"gameauthority/internal/obs"
	"gameauthority/internal/prng"
	"gameauthority/internal/punish"
	"gameauthority/internal/sim"
)

// ErrPulseBudget is returned by the distributed driver when a play did not
// complete within the configured pulse budget (e.g. while the
// self-stabilizing clock is still re-converging after a transient fault).
var ErrPulseBudget = errors.New("core: pulse budget exhausted before the play completed")

// SessionKind identifies which driver a Session runs on.
type SessionKind int

// Session kinds, inferred from the configuration: distributed if
// DistProcs is set, RRA if RRAAgents is set, mixed if Strategies is set,
// pure otherwise.
const (
	kindUnset SessionKind = iota
	KindPure
	KindMixed
	KindRRA
	KindDistributed
)

// String implements fmt.Stringer.
func (k SessionKind) String() string {
	switch k {
	case KindPure:
		return "pure"
	case KindMixed:
		return "mixed"
	case KindRRA:
		return "rra"
	case KindDistributed:
		return "distributed"
	default:
		return "unknown"
	}
}

// Session is the uniform authority-session interface. NewSession returns
// one implementation for every play mode — pure, mixed, RRA and
// distributed differ only in the engine behind it. Sessions are safe for
// concurrent use; plays are serialized internally.
type Session interface {
	// Play executes one audited play of the §3.3 protocol.
	Play(ctx context.Context) (RoundResult, error)
	// PlayN executes n audited plays under a single lock acquisition and
	// returns the last result. State evolution is exactly that of n
	// sequential Play calls at the same point — the batch is purely a
	// locking/journaling optimization. sink, when non-nil, observes each
	// completed round before the next play begins; results passed to it
	// may alias per-play scratch, so it must hash or copy what it keeps.
	// On a mid-batch error the completed prefix stands (and was already
	// seen by sink); the last completed result is returned with the error.
	PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error)
	// Run executes the given number of plays and returns the last result.
	Run(ctx context.Context, rounds int) (RoundResult, error)
	// Results returns deep copies of the retained plays, oldest first.
	// Sessions bounded with a history limit retain only the most recent
	// plays; Stats().Rounds still counts every play.
	Results() []RoundResult
	// ResultAt returns the play with absolute round index round without
	// copying the whole history, or false when the round was evicted from
	// a bounded history or not yet played. The result may alias
	// session-owned buffers (see RoundResult); Clone it to retain it
	// across further plays on a bounded session.
	ResultAt(round int) (RoundResult, bool)
	// Stats returns a snapshot of the session's counters.
	Stats() SessionStats
	// Subscribe registers an observer for session events (plays, verdicts,
	// convictions, elections, clock recoveries); the returned function
	// cancels the subscription. Sticky events (elections) are replayed to
	// late subscribers.
	Subscribe(Observer) (cancel func())
	// Snapshot captures the session's durable state summary — the replay
	// watermark, counters, and a canonical state digest. Restore rebuilds
	// a byte-identical session from the configuration plus a snapshot.
	// Snapshot works on open and closed sessions alike.
	Snapshot() SessionSnapshot
	// Close finalizes the session: a batched-audit mixed session audits
	// its trailing partial epoch, and a distributed session releases its
	// pulse-engine worker pool. Close is idempotent; after a successful
	// Close, Play fails with ErrClosed while Results, ResultAt and Stats
	// keep answering.
	Close() error
}

// SessionStats is a point-in-time snapshot of a session's counters.
type SessionStats struct {
	Kind    SessionKind
	Players int
	// Rounds is the number of completed plays.
	Rounds int
	// CumulativeCost[i] is agent i's total cost over all plays. Every
	// driver tracks it: the trusted drivers on the (actual) game's cost
	// function, the RRA driver as the post-step load of each chosen
	// resource (the §6 strategic-form cost), and the distributed driver on
	// the elected game over the agreed outcomes.
	CumulativeCost []float64
	// Excluded[i] reports whether agent i is currently excluded by the
	// executive service.
	Excluded []bool
	// Fouls is the total number of fouls the judicial service detected.
	Fouls int
	// Convictions counts executive conviction events: agents newly
	// excluded by a play (an agent excluded, re-admitted and excluded
	// again counts twice).
	Convictions int
	// Protocol counts audit-protocol overhead (mixed driver).
	Protocol CostStats
	// MaxLoad is the maximum resource load so far (RRA driver, §6).
	MaxLoad int64
	// Pulses and Messages count network activity (distributed driver).
	Pulses   int64
	Messages int64
}

// ElectionSpec asks NewSession to run the legislative service first: the
// voters elect the game from the candidates via a robust commit-reveal
// election, and the winning game becomes the session's elected game.
type ElectionSpec struct {
	Candidates []Candidate
	Voters     []Voter
}

// SessionConfig is the single configuration surface behind the façade's
// functional options. Exactly one game source must be set: Game, Election,
// or (for the RRA driver) RRAAgents/RRAResources. The driver is inferred
// from the options (see inferKind).
type SessionConfig struct {
	// Game is the elected game the authority enforces.
	Game game.Game
	// Election, if set, elects the game legislatively instead.
	Election *ElectionSpec
	// Seed drives all commitments, honest sampling, and clocks.
	Seed uint64
	// Scheme is the executive's punishment policy. For the distributed
	// driver it is a prototype: each processor replica gets a Fresh copy.
	Scheme punish.Scheme
	// HistoryLimit bounds the retained play history to the most recent
	// HistoryLimit plays (0 = unbounded). Bounded sessions stop growing
	// and record plays into reused ring slots — see Session.Results.
	HistoryLimit int

	// Deviants installs player-level selfish strategies: Deviants[i]
	// replaces player i's honest behaviour with the strategy's compiled
	// hooks for the resolved driver (see Deviant). A player cannot carry
	// both an explicit agent and a deviant.
	Deviants map[int]Deviant

	// Agents are pure-strategy behaviours (pure and distributed drivers);
	// nil entries (or a nil slice) mean honest best-response agents.
	Agents []*Agent

	// Mixed-driver configuration (§5). Strategies is required for a mixed
	// session; MixedAgents nil entries mean honest samplers.
	MixedAgents  []*MixedAgent
	Strategies   func(round int, prev game.Profile) game.MixedProfile
	Actual       game.Game
	Mode         AuditMode
	EpochLen     int
	SampleProb   float64
	Window       int
	ChiThreshold float64

	// RRA-driver configuration (§6). RRAAgents agents share RRAResources
	// resources; RRAByz overrides per-agent choices. Supervision is on
	// exactly when Scheme is set.
	RRAAgents    int
	RRAResources int
	RRAByz       map[int]func(agent int, loads []int64) int

	// Distributed-driver configuration (§3.3 over the synchronous
	// network). DistProcs processors tolerate DistFaults Byzantine ones
	// (n > 3f); DistByz installs network-level adversaries.
	DistProcs  int
	DistFaults int
	DistByz    map[int]sim.Adversary
	// DistPulseBudget bounds how many pulses one Play may consume waiting
	// for a play to complete (0 = a generous default). Exhaustion returns
	// ErrPulseBudget, which is recoverable: the next Play keeps stepping.
	DistPulseBudget int
	// DistWorkers selects the pulse engine: 0 = auto (parallel on
	// min(GOMAXPROCS, n) workers when more than one core is available),
	// 1 = the lockstep reference engine, w > 1 = a worker pool of that
	// width. Both engines produce identical executions.
	DistWorkers int
}

// inferKind resolves the driver from the configuration.
func (cfg *SessionConfig) inferKind() SessionKind {
	switch {
	case cfg.DistProcs > 0 || cfg.DistFaults > 0 || cfg.DistByz != nil:
		return KindDistributed
	case cfg.RRAAgents > 0 || cfg.RRAResources > 0 || cfg.RRAByz != nil:
		return KindRRA
	case cfg.Strategies != nil || cfg.MixedAgents != nil || cfg.Mode != 0:
		return KindMixed
	default:
		return KindPure
	}
}

// configRules are the cross-kind option checks. NewSession applies them
// once the kind is resolved and before any engine is built: a rule rejects
// a configuration of one of its kinds when its predicate holds. Checks that
// need an engine's own arithmetic (player counts, n > 3f) stay in the
// engine constructors.
var configRules = []struct {
	kinds  []SessionKind
	reject func(SessionConfig) bool
	msg    string
}{
	{[]SessionKind{KindPure, KindMixed, KindDistributed},
		func(c SessionConfig) bool { return c.Game == nil }, "nil game"},
	{[]SessionKind{KindRRA},
		func(c SessionConfig) bool { return c.Game != nil }, "RRA sessions build their own game (drop the game argument)"},
	{[]SessionKind{KindMixed},
		func(c SessionConfig) bool { return c.Strategies == nil }, "mixed sessions require strategies"},
	{[]SessionKind{KindRRA, KindDistributed},
		func(c SessionConfig) bool { return c.Strategies != nil || c.MixedAgents != nil }, "mixed strategies apply to mixed sessions"},
	{[]SessionKind{KindMixed},
		func(c SessionConfig) bool { return c.Agents != nil }, "pure-strategy agents on a mixed session (use mixed agents)"},
	{[]SessionKind{KindRRA},
		func(c SessionConfig) bool { return c.Agents != nil }, "RRA behaviours are installed with RRAByz, not agents"},
	{[]SessionKind{KindPure, KindRRA, KindDistributed},
		func(c SessionConfig) bool { return c.Actual != nil }, "an actual game applies to mixed sessions"},
	{[]SessionKind{KindRRA, KindDistributed},
		func(c SessionConfig) bool { return c.Mode != 0 }, "audit disciplines apply to mixed sessions"},
	{[]SessionKind{KindDistributed},
		func(c SessionConfig) bool { return c.RRAAgents > 0 || c.RRAResources > 0 || c.RRAByz != nil }, "RRA options on a distributed session"},
	{[]SessionKind{KindPure, KindMixed, KindRRA},
		func(c SessionConfig) bool { return c.DistPulseBudget != 0 }, "pulse budgets apply to distributed sessions"},
	{[]SessionKind{KindPure, KindMixed, KindRRA},
		func(c SessionConfig) bool { return c.DistWorkers != 0 }, "pulse workers apply to distributed sessions"},
	{[]SessionKind{KindDistributed},
		func(c SessionConfig) bool { return c.DistWorkers < 0 }, "negative pulse workers"},
	// A network adversary alone selects the distributed kind; name the real
	// mistake instead of failing the engine's n > 3f arithmetic.
	{[]SessionKind{KindDistributed},
		func(c SessionConfig) bool { return c.DistProcs == 0 && c.DistByz != nil },
		"network adversaries require a distributed session (combine WithNetworkAdversary with WithDistributed)"},
}

// NewSession validates the configuration, runs the legislative service if
// requested, and wraps the engine for the resolved session kind in the
// session shell.
func NewSession(cfg SessionConfig) (Session, error) {
	hub := newObserverHub()

	if cfg.HistoryLimit < 0 {
		return nil, fmt.Errorf("%w: negative history limit %d", ErrConfig, cfg.HistoryLimit)
	}
	if cfg.Election != nil {
		if cfg.Game != nil {
			return nil, fmt.Errorf("%w: both a game and an election were supplied", ErrConfig)
		}
		out, err := RobustElection(cfg.Election.Candidates, cfg.Election.Voters,
			prng.Derive(cfg.Seed, 0xE1EC7).Uint64())
		if err != nil {
			return nil, err
		}
		cfg.Game = cfg.Election.Candidates[out.Winner].Game
		hub.emit(Event{
			Kind:   EventElection,
			Winner: out.Winner,
			Detail: cfg.Election.Candidates[out.Winner].Description,
		})
	}

	kind := cfg.inferKind()
	for _, rule := range configRules {
		if slices.Contains(rule.kinds, kind) && rule.reject(cfg) {
			return nil, fmt.Errorf("%w: %s", ErrConfig, rule.msg)
		}
	}

	// Accelerate the elected game into cost lookup tables (when its
	// profile space is small enough) before any engine or honest agent
	// captures it, so every audit and best-response query is a lookup.
	cfg.Game = game.Accelerate(cfg.Game)
	cfg.Actual = game.Accelerate(cfg.Actual)

	var (
		eng engine
		n   int
		err error
	)
	switch kind {
	case KindPure:
		n = cfg.Game.NumPlayers()
		eng, err = newPureEngine(cfg)
	case KindMixed:
		n = cfg.Game.NumPlayers()
		eng, err = newMixedEngine(cfg)
	case KindRRA:
		n = cfg.RRAAgents
		eng, err = newRRAEngine(cfg)
	case KindDistributed:
		n = cfg.DistProcs
		eng, err = newDistEngine(cfg, hub)
	}
	if err != nil {
		return nil, err
	}
	s := &session{kind: kind, eng: eng, hub: hub, before: make([]bool, n)}
	s.history.setLimit(cfg.HistoryLimit)
	return s, nil
}

// playLatency is the per-driver play-latency histogram family, indexed
// by SessionKind. Recording is three atomic adds, so the instrumented
// hot paths keep their pinned allocation budgets (pure play stays 0).
// Every audited round records inside PlayN, so it lands in the same
// series regardless of transport or batching.
var playLatency = [...]*obs.Histogram{
	KindPure: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "pure"}),
	KindMixed: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "mixed"}),
	KindRRA: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "rra"}),
	KindDistributed: obs.NewHistogram("gameauthority_play_latency_seconds",
		"Latency of one audited play, by driver.", obs.Label{Key: "driver", Value: "distributed"}),
}

// session is the one Session implementation. The authority runs the same
// per-play protocol in every play mode — choose, commit, reveal, audit,
// punish, publish — and only the engine step differs, so the shell owns
// everything around that step: locking, the closed flag, the foul and
// conviction counters, the exclusion diff that detects convictions, the
// history ring, the observer stream, latency recording, and snapshots.
type session struct {
	mu          sync.Mutex
	kind        SessionKind
	eng         engine
	hub         *observerHub
	history     historyRing
	fouls       int
	convictions int
	closed      bool

	// Per-play scratch, reused across plays. len(before) is the player
	// count.
	before   []bool // exclusion flags ahead of the play
	excluded []int
}

// Play implements Session.
func (s *session) Play(ctx context.Context) (RoundResult, error) {
	return s.PlayN(ctx, 1, nil)
}

// PlayN implements Session: one lock acquisition, n sequential locked
// plays, sink observing each result before the next play reuses its
// scratch. Events are emitted under the lock so concurrent players cannot
// interleave streams out of round order (observers must not call back
// into the session — see Observer).
func (s *session) PlayN(ctx context.Context, n int, sink func(RoundResult) error) (RoundResult, error) {
	if n <= 0 {
		return RoundResult{}, fmt.Errorf("%w: non-positive batch size %d", ErrConfig, n)
	}
	hist := playLatency[s.kind]
	s.mu.Lock()
	defer s.mu.Unlock()
	var last RoundResult
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := s.playLocked(ctx)
		hist.Record(time.Since(t0))
		if err != nil {
			return last, err
		}
		last = res
		if sink != nil {
			if err := sink(res); err != nil {
				return last, err
			}
		}
	}
	return last, nil
}

func (s *session) playLocked(ctx context.Context) (RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if s.closed {
		return RoundResult{}, fmt.Errorf("%w: play on a closed session", ErrClosed)
	}
	s.markExcluded()
	s.excluded = s.excluded[:0]
	for i, was := range s.before {
		if was {
			s.excluded = append(s.excluded, i)
		}
	}
	res, fouls, err := s.eng.step(ctx, s.history.recorded())
	if err != nil {
		return RoundResult{}, err
	}
	res.Excluded = s.excluded
	s.fouls += fouls
	out := s.history.record(&res)
	newly := s.newlyExcluded()
	s.convictions += len(newly)
	if s.hub.active() {
		s.hub.emitAll(playEvents(out, newly))
	}
	return out, nil
}

// markExcluded captures the executive's exclusion flags into the before
// scratch, ahead of a play or a closing audit.
func (s *session) markExcluded() {
	for i := range s.before {
		s.before[i] = s.eng.Excluded(i)
	}
}

// newlyExcluded lists the agents excluded since markExcluded.
func (s *session) newlyExcluded() []int {
	var out []int
	for i, was := range s.before {
		if !was && s.eng.Excluded(i) {
			out = append(out, i)
		}
	}
	return out
}

// excludedFlags returns a fresh copy of the current exclusion flags.
func (s *session) excludedFlags() []bool {
	out := make([]bool, len(s.before))
	for i := range out {
		out[i] = s.eng.Excluded(i)
	}
	return out
}

// cumulativeCosts returns a fresh copy of every agent's cumulative cost.
func (s *session) cumulativeCosts() []float64 {
	out := make([]float64, len(s.before))
	for i := range out {
		out[i] = s.eng.CumulativeCost(i)
	}
	return out
}

// playEvents assembles the observer events for one completed play. Event
// payloads are deep-cloned: observers may hold them past the play's
// eviction from a bounded history ring.
func playEvents(res RoundResult, convictions []int) []Event {
	evs := []Event{{
		Kind:    EventPlay,
		Round:   res.Round,
		Outcome: cloneProfile(res.Outcome),
		Costs:   cloneFloats(res.Costs),
		Pulse:   res.Pulse,
	}}
	if len(res.Verdict.Fouls) > 0 {
		evs = append(evs, Event{Kind: EventVerdict, Round: res.Round, Fouls: cloneFouls(res.Verdict.Fouls)})
	}
	return appendConvictions(evs, res.Round, convictions)
}

func appendConvictions(evs []Event, round int, agents []int) []Event {
	for _, agent := range agents {
		evs = append(evs, Event{
			Kind:   EventConviction,
			Round:  round,
			Agent:  agent,
			Detail: "excluded by the executive service",
		})
	}
	return evs
}

// Run implements Session.
func (s *session) Run(ctx context.Context, rounds int) (RoundResult, error) {
	var last RoundResult
	for i := 0; i < rounds; i++ {
		res, err := s.Play(ctx)
		if err != nil {
			return last, err
		}
		last = res
	}
	return last, nil
}

// Results implements Session.
func (s *session) Results() []RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.history.snapshot()
}

// ResultAt implements Session.
func (s *session) ResultAt(round int) (RoundResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.history.at(round)
	if !ok {
		return RoundResult{}, false
	}
	return view(slot), true
}

// Stats implements Session.
func (s *session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		Kind:           s.kind,
		Players:        len(s.before),
		Rounds:         s.history.recorded(),
		CumulativeCost: s.cumulativeCosts(),
		Excluded:       s.excludedFlags(),
		Fouls:          s.fouls,
		Convictions:    s.convictions,
	}
	return s.eng.stats(st)
}

// Subscribe implements Session.
func (s *session) Subscribe(o Observer) func() { return s.hub.subscribe(o) }

// Close implements Session. Fouls the engine's closing audit finds (a
// batched-audit mixed session's trailing epoch) are attached to the last
// recorded play. A failed close leaves the session open so callers can
// retry it.
func (s *session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.markExcluded()
	fouls, err := s.eng.close()
	if err != nil {
		return err
	}
	s.closed = true
	s.fouls += len(fouls)
	newly := s.newlyExcluded()
	s.convictions += len(newly)
	if last, ok := s.history.at(s.history.recorded() - 1); len(fouls) > 0 && ok {
		last.Verdict.Fouls = append(last.Verdict.Fouls, fouls...)
		last.Convicted = append(last.Convicted[:0], last.Verdict.Guilty()...)
		evs := []Event{{Kind: EventVerdict, Round: last.Round, Fouls: cloneFouls(fouls)}}
		s.hub.emitAll(appendConvictions(evs, last.Round, newly))
	}
	return nil
}

// Driver returns the play-mode driver behind s — a *PureSession,
// *MixedSession, *RRASupervised or *DistSession — or nil when s is not a
// session NewSession built. It serves measurements and fault injection;
// playing the driver directly bypasses the session's history and counters.
func Driver(s Session) any {
	if sh, ok := s.(*session); ok {
		return sh.eng.driver()
	}
	return nil
}
