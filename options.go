package gameauthority

import (
	"sync"

	"gameauthority/internal/core"
	"gameauthority/internal/game"
)

// Session is the uniform authority-session interface: one audited play per
// Play call, driven by whichever driver the options selected (pure, mixed,
// RRA, or distributed). Sessions are safe for concurrent use and emit an
// observer stream of plays, verdicts, convictions, elections, and clock
// recoveries. See New.
type Session = core.Session

// SessionStats is a point-in-time snapshot of a session's counters.
type SessionStats = core.SessionStats

// SessionKind identifies a session's driver.
type SessionKind = core.SessionKind

// Session kinds (see New for how options select a driver).
const (
	KindPure        = core.KindPure
	KindMixed       = core.KindMixed
	KindRRA         = core.KindRRA
	KindDistributed = core.KindDistributed
)

// AuditMode selects the judicial service's auditing discipline (§5.3).
type AuditMode = core.AuditMode

// Event is one entry in a session's observer stream.
type Event = core.Event

// EventKind classifies observer-stream events.
type EventKind = core.EventKind

// Observer receives session events; ObserverFunc adapts plain functions.
type (
	Observer     = core.Observer
	ObserverFunc = core.ObserverFunc
)

// Observer-stream event kinds.
const (
	EventPlay          = core.EventPlay
	EventVerdict       = core.EventVerdict
	EventConviction    = core.EventConviction
	EventElection      = core.EventElection
	EventClockRecovery = core.EventClockRecovery
)

// ErrPulseBudget is returned by distributed sessions when a play did not
// complete within the pulse budget (see WithPulseBudget). It is
// recoverable: the next Play keeps stepping the network.
var ErrPulseBudget = core.ErrPulseBudget

// ErrConfig reports an invalid session configuration (conflicting or
// malformed options passed to New).
var ErrConfig = core.ErrConfig

// ErrClosed is returned by Play on a session that was Closed. Close is
// idempotent and terminal: Results, ResultAt and Stats keep answering on
// a closed session, but no further plays run.
var ErrClosed = core.ErrClosed

// Option configures a Session built by New.
type Option func(*core.SessionConfig)

// AuditOption refines WithAudit.
type AuditOption func(*core.SessionConfig)

// New builds an authority session for the elected game g. The options
// select the driver:
//
//   - default: the trusted pure-strategy driver (§3.3) with honest
//     best-response agents; customize with WithAgents;
//   - WithStrategies (plus WithMixedAgents, WithAudit, WithActual): the
//     mixed-strategy driver with committed-randomness auditing (§5);
//   - WithRRA: the §6 repeated resource allocation harness (pass a nil
//     game — the harness builds its own);
//   - WithDistributed: the full middleware over the synchronous Byzantine
//     network — self-stabilizing clock plus interactive consistency for
//     every phase of every play (§3.3, §4).
//
// WithElection replaces g (pass nil) with a robust commit-reveal election
// among candidate games. WithPunishment installs the executive service's
// sanction policy on any driver.
func New(g Game, opts ...Option) (Session, error) {
	cfg := core.SessionConfig{Game: g}
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewSession(cfg)
}

// WithSeed sets the root seed for all commitments, honest sampling, and
// clocks. Sessions are deterministic in (configuration, seed).
func WithSeed(seed uint64) Option {
	return func(c *core.SessionConfig) { c.Seed = seed }
}

// WithHistoryLimit bounds the session's retained play history to the most
// recent limit plays (0, the default, retains everything). Bounded
// sessions record plays into a reused ring buffer, so long-running
// sessions stop growing and the play hot path stops allocating; evicted
// plays disappear from Results and ResultAt while Stats keeps counting
// every play. Results returned by Play/ResultAt on a bounded session alias
// session-owned buffers and stay valid until their round is evicted; Clone
// them (or use Results, which deep-copies) to keep them longer.
func WithHistoryLimit(limit int) Option {
	return func(c *core.SessionConfig) { c.HistoryLimit = limit }
}

// WithAgents installs pure-strategy behaviours (pure and distributed
// drivers). Nil entries mean honest best-response agents.
func WithAgents(agents ...*Agent) Option {
	return func(c *core.SessionConfig) { c.Agents = agents }
}

// WithPunishment installs the executive service's punishment scheme. On
// the distributed driver the scheme is a prototype: every processor's
// executive replica gets its own fresh copy.
func WithPunishment(scheme PunishmentScheme) Option {
	return func(c *core.SessionConfig) { c.Scheme = scheme }
}

// WithDeviant attaches a player-level selfish strategy to the given
// player: the strategy compiles itself into whichever driver the session
// resolves to (pure, mixed, RRA, or distributed), replacing the player's
// honest behaviour. Use it with the deviation catalog (AlwaysDefect,
// BestResponseLiar, CommitmentCheat, DistributionSkewer, Freerider) to
// probe whether deviation ever beats honesty under the installed
// punishment scheme; it composes with network-level adversaries on the
// distributed driver. A player cannot carry both an explicit agent and a
// deviant.
func WithDeviant(player int, strategy DeviantStrategy) Option {
	return func(c *core.SessionConfig) {
		if c.Deviants == nil {
			c.Deviants = make(map[int]core.Deviant)
		}
		c.Deviants[player] = strategy
	}
}

// WithElection runs the legislative service first: the voters elect the
// session's game from the candidates via a robust commit-reveal election
// (§3.1). Pass a nil game to New. Subscribers receive the EventElection
// even when they subscribe after New returns.
func WithElection(candidates []Candidate, voters []Voter) Option {
	return func(c *core.SessionConfig) {
		c.Election = &core.ElectionSpec{Candidates: candidates, Voters: voters}
	}
}

// --- Mixed-strategy options (§5) ----------------------------------------------

// WithStrategies selects the mixed-strategy driver and supplies the
// common-knowledge equilibrium strategies for each round (they may depend
// on the agreed previous outcome).
func WithStrategies(strategies func(round int, prev Profile) MixedProfile) Option {
	return func(c *core.SessionConfig) {
		c.Strategies = func(round int, prev game.Profile) game.MixedProfile {
			return strategies(round, prev)
		}
	}
}

// WithMixedAgents installs mixed-strategy behaviours; nil entries mean
// honest samplers of the committed PRG stream. Requires WithStrategies.
func WithMixedAgents(agents ...*MixedAgent) Option {
	return func(c *core.SessionConfig) { c.MixedAgents = agents }
}

// WithActual sets the true cost structure when it secretly extends the
// elected game (hidden manipulative strategies, Fig. 1).
func WithActual(g Game) Option {
	return func(c *core.SessionConfig) { c.Actual = g }
}

// WithAudit selects the judicial service's auditing discipline. Without
// it, mixed sessions default to AuditPerRound when a punishment scheme is
// installed and AuditOff otherwise.
//
//	ga.WithAudit(ga.AuditBatched, ga.EpochLen(16))
//	ga.WithAudit(ga.AuditSampled, ga.SampleProb(0.2))
//	ga.WithAudit(ga.AuditStatistical, ga.Window(50), ga.ChiThreshold(6.63))
func WithAudit(mode AuditMode, opts ...AuditOption) Option {
	return func(c *core.SessionConfig) {
		c.Mode = mode
		for _, opt := range opts {
			opt(c)
		}
	}
}

// EpochLen sets the batch size for AuditBatched (§5.3).
func EpochLen(rounds int) AuditOption {
	return func(c *core.SessionConfig) { c.EpochLen = rounds }
}

// SampleProb sets the per-round spot-check probability for AuditSampled.
func SampleProb(p float64) AuditOption {
	return func(c *core.SessionConfig) { c.SampleProb = p }
}

// Window sets the screening window for AuditStatistical (§5.2).
func Window(rounds int) AuditOption {
	return func(c *core.SessionConfig) { c.Window = rounds }
}

// ChiThreshold sets the chi-square-style threshold for AuditStatistical.
func ChiThreshold(t float64) AuditOption {
	return func(c *core.SessionConfig) { c.ChiThreshold = t }
}

// --- RRA options (§6) ----------------------------------------------------------

// WithRRA selects the repeated resource allocation driver: n agents share
// b resources and honest agents sample the committed water-filling
// equilibrium. Pass a nil game to New. Supervision (seed audits plus
// executive restriction) is on exactly when WithPunishment is set.
func WithRRA(n, b int) Option {
	return func(c *core.SessionConfig) {
		c.RRAAgents = n
		c.RRAResources = b
	}
}

// WithRRAByzantine overrides one RRA agent's choices (e.g. HogChooser or
// FixedChooser).
func WithRRAByzantine(agent int, choose func(agent int, loads []int64) int) Option {
	return func(c *core.SessionConfig) {
		if c.RRAByz == nil {
			c.RRAByz = make(map[int]func(int, []int64) int)
		}
		c.RRAByz[agent] = choose
	}
}

// --- Distributed options (§3.3, §4) --------------------------------------------

// WithDistributed selects the full distributed middleware: n processors
// (one player each, n > 3f) over a synchronous full mesh, with a
// self-stabilizing Byzantine clock scheduling interactive-consistency
// agreements for every phase of every play. byz installs network-level
// adversaries and may be nil.
func WithDistributed(n, f int, byz map[int]Adversary) Option {
	return func(c *core.SessionConfig) {
		c.DistProcs = n
		c.DistFaults = f
		// Copy rather than alias the caller's map: WithNetworkAdversary
		// merges into the session's map, and writing through to a map
		// the caller may reuse for other sessions would leak adversaries
		// across them.
		if len(byz) > 0 && c.DistByz == nil {
			c.DistByz = make(map[int]Adversary, len(byz))
		}
		for proc, adv := range byz {
			c.DistByz[proc] = adv
		}
	}
}

// WithNetworkAdversary installs a network-level adversary on one
// processor of a distributed session, merging into the same adversary
// map WithDistributed's byz argument populates. Options apply in order,
// so when both configure the same processor the later option wins. It
// composes with WithDeviant: one session can carry an application-layer
// selfish deviant on one processor and wire-level Byzantine behaviour on
// another — the loadgen chaos mix.
func WithNetworkAdversary(proc int, adv Adversary) Option {
	return func(c *core.SessionConfig) {
		if c.DistByz == nil {
			c.DistByz = make(map[int]Adversary)
		}
		c.DistByz[proc] = adv
	}
}

// WithPulseBudget bounds how many network pulses one Play may consume
// waiting for a distributed play to complete (0 = a generous default).
// Exhaustion returns ErrPulseBudget; the next Play keeps stepping, which
// lets callers observe §4 recovery in progress.
func WithPulseBudget(pulses int) Option {
	return func(c *core.SessionConfig) { c.DistPulseBudget = pulses }
}

// WithPulseWorkers selects the distributed session's pulse engine: 0 (the
// default) sizes it from the per-pulse work, n × EIG tree nodes — lockstep
// below a measured crossover (n=4, n=10 and n=13 at f=1, n=7 and n=8 at
// f=2 stay lockstep), and a pool of min(GOMAXPROCS, n) workers from it on
// (n=15/f=1 and up); 1
// pins the lockstep reference engine; w > 1 forces a worker pool of that
// width. Both engines produce identical executions — a property test
// proves it — so this is purely a scheduling choice.
func WithPulseWorkers(workers int) Option {
	return func(c *core.SessionConfig) { c.DistWorkers = workers }
}

// --- Accessors and helpers ------------------------------------------------------

// AsPure returns the pure-strategy driver behind s, or nil if s is not a
// pure session.
func AsPure(s Session) *PureSession {
	p, _ := core.Driver(s).(*core.PureSession)
	return p
}

// AsMixed returns the mixed-strategy driver behind s, or nil.
func AsMixed(s Session) *MixedSession {
	m, _ := core.Driver(s).(*core.MixedSession)
	return m
}

// AsRRA returns the RRA harness behind s, or nil.
func AsRRA(s Session) *SupervisedRRA {
	h, _ := core.Driver(s).(*core.RRASupervised)
	return h
}

// AsDistributed returns the network session behind s (for fault injection
// and replica-consistency checks), or nil.
func AsDistributed(s Session) *DistributedSession {
	d, _ := core.Driver(s).(*core.DistSession)
	return d
}

// Events subscribes a buffered channel to s's observer stream. Events are
// dropped (never blocking the session) when the channel is full; size the
// buffer for the expected burst. The returned cancel function unsubscribes
// and closes the channel.
func Events(s Session, buffer int) (<-chan Event, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan Event, buffer)
	var mu sync.Mutex
	closed := false
	unsubscribe := s.Subscribe(ObserverFunc(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		select {
		case ch <- e:
		default: // drop rather than stall the authority loop
		}
	}))
	cancel := func() {
		unsubscribe()
		mu.Lock()
		defer mu.Unlock()
		if !closed {
			closed = true
			close(ch)
		}
	}
	return ch, cancel
}
