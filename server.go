package gameauthority

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"gameauthority/internal/audit"
	"gameauthority/internal/metrics"
	"gameauthority/internal/obs"
)

// maxPlayRounds caps rounds per play request on both transports (HTTP
// and WebSocket).
const maxPlayRounds = 100000

// sseWriteTimeout bounds one SSE event write: a subscriber that cannot
// absorb an event within it is considered dead and its connection is
// closed (counted in StreamTimeouts).
const sseWriteTimeout = 10 * time.Second

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	webSocket bool
	debug     bool
}

// WithWebSocket enables or disables the /ws streaming endpoint (enabled
// by default).
func WithWebSocket(enabled bool) ServerOption {
	return func(c *serverConfig) { c.webSocket = enabled }
}

// WithDebug mounts the live-profiling plane (disabled by default):
// net/http/pprof under /debug/pprof/ and the tracer capture endpoint at
// GET /debug/trace?plays=N. Enable it only on operator-facing listeners —
// profiles and traces expose internals no public client should see.
func WithDebug(enabled bool) ServerOption {
	return func(c *serverConfig) { c.debug = enabled }
}

// route registers a handler wrapped with a per-route latency histogram.
// The route label is the mux pattern, so series cardinality is fixed at
// the size of the route table. Streaming routes (/ws, SSE events)
// register directly: their "latency" is the connection lifetime.
func route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	hist := obs.NewHistogram("gameauthority_http_request_seconds",
		"HTTP request latency by route.", obs.Label{Key: "route", Value: pattern})
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Record(time.Since(t0))
	})
}

// NewServer exposes an Authority as an HTTP/JSON API:
//
//	POST   /sessions                 create a session (CreateSessionRequest)
//	GET    /sessions                 list hosted sessions
//	GET    /sessions/{id}            session stats (incl. conviction counts)
//	POST   /sessions/{id}/play       run plays ({"rounds": k}, default 1)
//	POST   /sessions/{id}/snapshot   snapshot (and persist) session state
//	GET    /sessions/{id}/events     live event stream (server-sent events)
//	DELETE /sessions/{id}            close and unregister the session
//	GET    /snapshots                list persisted compacted snapshots
//	GET    /deviants                 list the deviation-strategy catalog
//	GET    /metrics                  Prometheus text exposition of host counters
//	GET    /ws                       binary streaming transport (internal/wire
//	                                 over WebSocket; see DESIGN.md §10)
//	GET    /debug/pprof/             live profiling endpoints (WithDebug only)
//	GET    /debug/trace              capture a play trace as Chrome
//	                                 trace_event JSON (WithDebug only)
//
// Sessions are independent and may be created and played concurrently;
// each session serializes its own plays. On a store-backed authority
// (WithStore) created sessions are durable, and a request for a session
// id the registry misses restores it from the store before answering —
// the restore-on-miss path that makes a crashed host's sessions
// addressable again without an explicit recovery pass.
func NewServer(a *Authority, opts ...ServerOption) http.Handler {
	cfg := serverConfig{webSocket: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	if cfg.webSocket {
		mux.Handle("GET /ws", a.streamHub())
	}
	route(mux, "POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		handleCreate(a, w, r)
	})
	route(mux, "GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"sessions": a.Len(),
			"durable":  a.getStore() != nil,
		})
	})
	route(mux, "GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = a.counters.WritePrometheus(w)
		_ = obs.Default.WritePrometheus(w)
	})
	route(mux, "GET /snapshots", func(w http.ResponseWriter, _ *http.Request) {
		handleSnapshotList(a, w)
	})
	route(mux, "POST /sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		withSession(a, w, r, handleSnapshot)
	})
	route(mux, "GET /deviants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, deviantInfos())
	})
	route(mux, "GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		handleList(a, w)
	})
	route(mux, "GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		withSession(a, w, r, handleStats)
	})
	route(mux, "POST /sessions/{id}/play", func(w http.ResponseWriter, r *http.Request) {
		withSession(a, w, r, handlePlay)
	})
	mux.HandleFunc("GET /sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		withSession(a, w, r, handleEvents)
	})
	route(mux, "DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := a.Remove(r.PathValue("id")); err != nil {
			status := http.StatusNotFound
			if errors.Is(err, ErrDurability) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	if cfg.debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /debug/trace", handleTraceCapture)
	}
	return mux
}

// traceCaptureMu serializes /debug/trace captures: each one owns the
// process-wide tracer for its duration.
var traceCaptureMu sync.Mutex

// handleTraceCapture arms the tracer, waits until ?plays=N sampled root
// plays complete (bounded by ?wait, default 5s; ?sample=K admits one
// play in K), and streams the span ring as Chrome trace_event JSON —
// loadable in chrome://tracing or Perfetto.
func handleTraceCapture(w http.ResponseWriter, r *http.Request) {
	plays := 1
	if raw := r.URL.Query().Get("plays"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid plays %q", raw))
			return
		}
		plays = n
	}
	sample := 1
	if raw := r.URL.Query().Get("sample"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid sample %q", raw))
			return
		}
		sample = n
	}
	wait := 5 * time.Second
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid wait %q", raw))
			return
		}
		wait = d
	}
	if !traceCaptureMu.TryLock() {
		writeError(w, http.StatusConflict, fmt.Errorf("another trace capture is in progress"))
		return
	}
	defer traceCaptureMu.Unlock()
	obs.DefaultTracer.Enable(obs.DefaultTraceRing, sample)
	defer obs.DefaultTracer.Disable()
	deadline := time.Now().Add(wait)
	for obs.DefaultTracer.RootCount() < uint64(plays) && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	obs.DefaultTracer.Disable()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.DefaultTracer.WriteJSON(w)
}

// CreateSessionRequest is the JSON body of POST /sessions. Game names a
// built-in game ("matchingpennies", "matchingpennies-manipulated",
// "prisonersdilemma", "coordination", "publicgoods") or any scenario-
// catalog family ("braess", "congestion", "coordination-n", "firstprice",
// "minority", "pd", "publicgoods-punish", "secondprice"), sized by
// Players (default 4, canonicalized per family — e.g. minority rounds up
// to odd); RRA sessions omit it. Kind is inferred when empty:
// "distributed" if
// Distributed is set, "rra" if RRA is set, "mixed" if Audit is set,
// otherwise "pure". Mixed sessions play the uniform strategy profile.
type CreateSessionRequest struct {
	ID      string  `json:"id,omitempty"`
	Game    string  `json:"game,omitempty"`
	Players int     `json:"players,omitempty"` // publicgoods, minority
	Benefit float64 `json:"benefit,omitempty"` // publicgoods
	Kind    string  `json:"kind,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`

	Punishment *PunishmentSpec `json:"punishment,omitempty"`

	Audit        string  `json:"audit,omitempty"` // off, per-round, batched, sampled, statistical
	EpochLen     int     `json:"epoch_len,omitempty"`
	SampleProb   float64 `json:"sample_prob,omitempty"`
	Window       int     `json:"window,omitempty"`
	ChiThreshold float64 `json:"chi_threshold,omitempty"`

	RRA *struct {
		Agents    int `json:"agents"`
		Resources int `json:"resources"`
	} `json:"rra,omitempty"`

	Distributed *struct {
		N int `json:"n"`
		F int `json:"f"`
	} `json:"distributed,omitempty"`
	// Deviant attaches a player-level selfish strategy from the deviation
	// catalog (GET /deviants) to one player — the HTTP face of
	// WithDeviant. Any session kind accepts it.
	Deviant     *DeviantSpec `json:"deviant,omitempty"`
	PulseBudget int          `json:"pulse_budget,omitempty"`
	// PulseWorkers selects the distributed pulse engine (0 auto, 1
	// lockstep, >1 worker-pool width).
	PulseWorkers int `json:"pulse_workers,omitempty"`
	// HistoryLimit bounds the retained play history (0 = unbounded); any
	// session kind accepts it.
	HistoryLimit int `json:"history_limit,omitempty"`
}

// DeviantSpec selects a deviation strategy over HTTP: Strategy names a
// catalog entry ("always-defect", "best-response-liar",
// "commitment-cheat", "distribution-skewer", "freerider"); Prob
// parameterizes the skewer (0 = its default).
type DeviantSpec struct {
	Player   int     `json:"player"`
	Strategy string  `json:"strategy"`
	Prob     float64 `json:"prob,omitempty"`
}

// deviantInfo is one GET /deviants catalog entry.
type deviantInfo struct {
	Name string `json:"name"`
}

func deviantInfos() []deviantInfo {
	var out []deviantInfo
	for _, d := range DeviantStrategies() {
		out = append(out, deviantInfo{Name: d.Name()})
	}
	return out
}

// PunishmentSpec selects an executive punishment scheme over HTTP.
type PunishmentSpec struct {
	Scheme    string  `json:"scheme"` // disconnect, reputation, deposit
	Budget    float64 `json:"budget,omitempty"`
	Decay     float64 `json:"decay,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Regen     float64 `json:"regen,omitempty"`
	Escrow    float64 `json:"escrow,omitempty"`
	Fine      float64 `json:"fine,omitempty"`
}

type sessionInfo struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Players int    `json:"players"`
	Rounds  int    `json:"rounds"`
}

type statsResponse struct {
	sessionInfo
	CumulativeCost []float64 `json:"cumulative_cost,omitempty"`
	Excluded       []bool    `json:"excluded,omitempty"`
	Fouls          int       `json:"fouls"`
	Convictions    int       `json:"convictions"`
	Commitments    int64     `json:"commitments,omitempty"`
	Reveals        int64     `json:"reveals,omitempty"`
	Agreements     int64     `json:"agreements,omitempty"`
	MaxLoad        int64     `json:"max_load,omitempty"`
	Pulses         int64     `json:"pulses,omitempty"`
	Messages       int64     `json:"messages,omitempty"`
}

type roundResponse struct {
	Round     int        `json:"round"`
	Outcome   []int      `json:"outcome"`
	Fouls     []foulInfo `json:"fouls,omitempty"`
	Convicted []int      `json:"convicted,omitempty"`
	Excluded  []int      `json:"excluded,omitempty"`
	Costs     []float64  `json:"costs,omitempty"`
	Pulse     int        `json:"pulse,omitempty"`
}

type foulInfo struct {
	Agent  int    `json:"agent"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

type eventInfo struct {
	Kind    string     `json:"kind"`
	Round   int        `json:"round"`
	Dropped int64      `json:"dropped,omitempty"`
	Outcome []int      `json:"outcome,omitempty"`
	Costs   []float64  `json:"costs,omitempty"`
	Fouls   []foulInfo `json:"fouls,omitempty"`
	// Agent and Winner are pointers so that agent 0 / candidate 0 survive
	// the wire format: the fields appear exactly on the event kinds that
	// define them (conviction, election).
	Agent  *int   `json:"agent,omitempty"`
	Winner *int   `json:"winner,omitempty"`
	Pulse  int    `json:"pulse,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func handleCreate(a *Authority, w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	// CreateFromSpec journals the spec on a store-backed authority, making
	// the session durable; without a store it is exactly build+Create.
	h, err := a.CreateFromSpec(req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrSessionExists):
			status = http.StatusConflict
		case errors.Is(err, ErrDurability):
			// The request was valid; the durable store could not record
			// it — a server-side condition, not a client error.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(h))
}

// Request size caps: the HTTP surface is open to arbitrary clients, so
// session sizing is bounded before any construction cost is paid. The
// in-process API has no such caps (internal/game still guards dense
// table allocations).
const (
	// maxRequestPlayers bounds the game size of table-backed scenarios
	// (dense cost tables grow exponentially in the player count).
	maxRequestPlayers = 20
	// maxRequestProcs bounds the distributed mesh (n² links, n³ messages
	// per agreement pulse).
	maxRequestProcs = 64
	// maxRequestRRA bounds the RRA harness's agents and resources.
	maxRequestRRA = 1 << 16
)

// build translates the wire request into a game plus functional options —
// the HTTP surface is a thin skin over the same New entry point.
func (req *CreateSessionRequest) build() (Game, []Option, error) {
	if req.Players > maxRequestPlayers {
		return nil, nil, fmt.Errorf("players %d exceeds the request cap %d", req.Players, maxRequestPlayers)
	}
	g, err := gameByName(req.Game, req.Players, req.Benefit)
	if err != nil {
		return nil, nil, err
	}
	opts := []Option{WithSeed(req.Seed)}

	kind := strings.ToLower(req.Kind)
	if kind == "" {
		switch {
		case req.Distributed != nil:
			kind = "distributed"
		case req.RRA != nil:
			kind = "rra"
		case req.Audit != "":
			kind = "mixed"
		default:
			kind = "pure"
		}
	}

	players := 0
	if g != nil {
		players = g.NumPlayers()
	}

	// Reject fields that conflict with the resolved kind instead of
	// silently dropping them — a client asking for auditing must not get
	// an unaudited session back.
	reject := func(field, appliesTo string) error {
		return fmt.Errorf("%s only applies to %s sessions (got kind %q)", field, appliesTo, kind)
	}
	if kind != "mixed" && req.Audit != "" {
		return nil, nil, reject("audit", "mixed")
	}
	if kind != "rra" && req.RRA != nil {
		return nil, nil, reject("rra", "rra")
	}
	if kind != "distributed" && req.Distributed != nil {
		return nil, nil, reject("distributed", "distributed")
	}
	if kind != "distributed" && req.PulseBudget != 0 {
		return nil, nil, reject("pulse_budget", "distributed")
	}
	if kind != "distributed" && req.PulseWorkers != 0 {
		return nil, nil, reject("pulse_workers", "distributed")
	}
	if req.HistoryLimit != 0 {
		opts = append(opts, WithHistoryLimit(req.HistoryLimit))
	}

	switch kind {
	case "pure":
	case "mixed":
		if g == nil {
			return nil, nil, fmt.Errorf("mixed sessions require a game")
		}
		opts = append(opts, WithStrategies(uniformStrategies(g)))
		if req.Audit != "" {
			mode, auditOpts, err := auditByName(req)
			if err != nil {
				return nil, nil, err
			}
			opts = append(opts, WithAudit(mode, auditOpts...))
		}
	case "rra":
		if req.RRA == nil {
			return nil, nil, fmt.Errorf("rra sessions require the rra object")
		}
		if g != nil {
			return nil, nil, fmt.Errorf("rra sessions build their own game; omit game")
		}
		if req.RRA.Agents > maxRequestRRA || req.RRA.Resources > maxRequestRRA {
			return nil, nil, fmt.Errorf("rra size %d×%d exceeds the request cap %d",
				req.RRA.Agents, req.RRA.Resources, maxRequestRRA)
		}
		players = req.RRA.Agents
		opts = append(opts, WithRRA(req.RRA.Agents, req.RRA.Resources))
	case "distributed":
		if req.Distributed == nil {
			return nil, nil, fmt.Errorf("distributed sessions require the distributed object")
		}
		if req.Distributed.N > maxRequestProcs {
			return nil, nil, fmt.Errorf("distributed n %d exceeds the request cap %d",
				req.Distributed.N, maxRequestProcs)
		}
		opts = append(opts, WithDistributed(req.Distributed.N, req.Distributed.F, nil))
		if req.PulseBudget > 0 {
			opts = append(opts, WithPulseBudget(req.PulseBudget))
		}
		if req.PulseWorkers != 0 {
			// Pass negatives through too: core rejects them with ErrConfig
			// so the client gets a 400 instead of a silently-coerced engine.
			opts = append(opts, WithPulseWorkers(req.PulseWorkers))
		}
		players = req.Distributed.N
	default:
		return nil, nil, fmt.Errorf("unknown session kind %q", req.Kind)
	}

	scheme, err := schemeFromSpec(req.Punishment, players)
	if err != nil {
		return nil, nil, err
	}
	if scheme == nil && kind == "mixed" && req.Audit != "" && strings.ToLower(req.Audit) != "off" {
		// Auditing without an executive is a configuration error in core;
		// default to the paper's disconnection scheme.
		scheme = NewDisconnectScheme(players, 0)
	}
	if scheme != nil {
		opts = append(opts, WithPunishment(scheme))
	}
	if req.Deviant != nil {
		strategy, err := deviantFromSpec(req.Deviant)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, WithDeviant(req.Deviant.Player, strategy))
	}
	return g, opts, nil
}

// deviantFromSpec resolves a wire deviant spec against the catalog.
// Invalid parameters are rejected, never silently clamped: a client
// probing a specific skew rate must not get a session that behaves
// differently than requested.
func deviantFromSpec(spec *DeviantSpec) (DeviantStrategy, error) {
	name := strings.ToLower(spec.Strategy)
	if spec.Prob != 0 {
		if name != "distribution-skewer" {
			return nil, fmt.Errorf("prob only applies to the distribution-skewer strategy (got %q)", spec.Strategy)
		}
		if spec.Prob < 0 || spec.Prob > 1 {
			return nil, fmt.Errorf("deviant prob %v must be in (0,1]", spec.Prob)
		}
		return DistributionSkewer(spec.Prob), nil
	}
	d, ok := DeviantByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown deviant strategy %q (see GET /deviants)", spec.Strategy)
	}
	return d, nil
}

func gameByName(name string, players int, benefit float64) (Game, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "matchingpennies":
		return MatchingPennies(), nil
	case "matchingpennies-manipulated":
		return MatchingPenniesManipulated(), nil
	case "prisonersdilemma":
		return PrisonersDilemma(), nil
	case "coordination":
		return CoordinationGame(), nil
	case "publicgoods":
		if players <= 0 {
			players = 4
		}
		if benefit <= 0 {
			benefit = 2
		}
		return PublicGoods(players, benefit)
	// "minority" intentionally has no legacy case: the catalog fallback
	// builds it with the same odd-n canonicalization the in-process path
	// uses (default players 4 → 5, matching the old HTTP default).
	default:
		// Fall through to the scenario catalog: any registry name builds at
		// the requested (canonicalized) size.
		if e, ok := ScenarioByName(strings.ToLower(name)); ok {
			if players <= 0 {
				players = 4
			}
			return e.Build(e.Players(players))
		}
		return nil, fmt.Errorf("unknown game %q", name)
	}
}

func auditByName(req *CreateSessionRequest) (AuditMode, []AuditOption, error) {
	var opts []AuditOption
	switch strings.ToLower(req.Audit) {
	case "off":
		return AuditOff, nil, nil
	case "per-round", "perround":
		return AuditPerRound, nil, nil
	case "batched":
		epoch := req.EpochLen
		if epoch <= 0 {
			epoch = 16
		}
		return AuditBatched, append(opts, EpochLen(epoch)), nil
	case "sampled":
		p := req.SampleProb
		if p <= 0 {
			p = 0.2
		}
		return AuditSampled, append(opts, SampleProb(p)), nil
	case "statistical":
		window, chi := req.Window, req.ChiThreshold
		if window <= 0 {
			window = 50
		}
		if chi <= 0 {
			chi = 6.63
		}
		return AuditStatistical, append(opts, Window(window), ChiThreshold(chi)), nil
	default:
		return 0, nil, fmt.Errorf("unknown audit discipline %q", req.Audit)
	}
}

func schemeFromSpec(spec *PunishmentSpec, players int) (PunishmentScheme, error) {
	if spec == nil {
		return nil, nil
	}
	if players <= 0 {
		return nil, fmt.Errorf("punishment scheme needs a player count")
	}
	switch strings.ToLower(spec.Scheme) {
	case "disconnect":
		return NewDisconnectScheme(players, spec.Budget), nil
	case "reputation":
		return NewReputationScheme(players, spec.Decay, spec.Threshold, spec.Regen), nil
	case "deposit":
		return NewDepositScheme(players, spec.Escrow, spec.Fine), nil
	default:
		return nil, fmt.Errorf("unknown punishment scheme %q", spec.Scheme)
	}
}

func uniformStrategies(g Game) func(int, Profile) MixedProfile {
	mp := make(MixedProfile, g.NumPlayers())
	for i := range mp {
		mp[i] = Uniform(g.NumActions(i))
	}
	return func(int, Profile) MixedProfile { return mp }
}

func withSession(a *Authority, w http.ResponseWriter, r *http.Request,
	fn func(*HostedSession, http.ResponseWriter, *http.Request)) {
	// Restore-on-miss: an id the registry lost to a crash is revived from
	// the durable store before the request is answered.
	h, err := a.GetOrRecover(r.Context(), r.PathValue("id"))
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, ErrDurability) {
			// The store couldn't answer; the session may well exist.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	fn(h, w, r)
}

// snapshotResponse is the wire form of a SessionSnapshot.
type snapshotResponse struct {
	ID             string    `json:"id"`
	Kind           string    `json:"kind"`
	Players        int       `json:"players"`
	Rounds         int       `json:"rounds"`
	Fouls          int       `json:"fouls"`
	Convictions    int       `json:"convictions"`
	CumulativeCost []float64 `json:"cumulative_cost,omitempty"`
	Excluded       []bool    `json:"excluded,omitempty"`
	Closed         bool      `json:"closed"`
	Digest         string    `json:"digest"`
	// Persisted reports whether the snapshot was written to the durable
	// store (false on volatile sessions or store-less authorities).
	Persisted bool `json:"persisted"`
}

func snapshotFor(id string, snap SessionSnapshot, persisted bool) snapshotResponse {
	return snapshotResponse{
		ID:             id,
		Kind:           snap.Kind.String(),
		Players:        snap.Players,
		Rounds:         snap.Rounds,
		Fouls:          snap.Fouls,
		Convictions:    snap.Convictions,
		CumulativeCost: snap.CumulativeCost,
		Excluded:       snap.Excluded,
		Closed:         snap.Closed,
		Digest:         snap.Digest,
		Persisted:      persisted,
	}
}

func handleSnapshot(h *HostedSession, w http.ResponseWriter, _ *http.Request) {
	snap, persisted, err := h.a.snapshotHosted(h, h.Session.Snapshot())
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotFor(h.ID(), snap, persisted))
}

func handleSnapshotList(a *Authority, w http.ResponseWriter) {
	out := make([]snapshotResponse, 0)
	st := a.getStore()
	if st == nil {
		writeJSON(w, http.StatusOK, out)
		return
	}
	infos, err := st.Snapshots()
	if err != nil {
		// Same degraded-store condition every other route maps to 503.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: %v", ErrDurability, err))
		return
	}
	for _, info := range infos {
		var snap SessionSnapshot
		if err := json.Unmarshal(info.Payload, &snap); err != nil {
			continue // a torn snapshot never lists; recovery falls back to the WAL
		}
		out = append(out, snapshotFor(info.ID, snap, true))
	}
	writeJSON(w, http.StatusOK, out)
}

func handleList(a *Authority, w http.ResponseWriter) {
	sessions := a.Sessions()
	out := make([]sessionInfo, 0, len(sessions))
	for _, h := range sessions {
		out = append(out, infoFor(h))
	}
	writeJSON(w, http.StatusOK, out)
}

func handleStats(h *HostedSession, w http.ResponseWriter, _ *http.Request) {
	st := h.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		sessionInfo:    infoFor(h),
		CumulativeCost: st.CumulativeCost,
		Excluded:       st.Excluded,
		Fouls:          st.Fouls,
		Convictions:    st.Convictions,
		Commitments:    st.Protocol.Commitments,
		Reveals:        st.Protocol.Reveals,
		Agreements:     st.Protocol.Agreements,
		MaxLoad:        st.MaxLoad,
		Pulses:         st.Pulses,
		Messages:       st.Messages,
	})
}

func handlePlay(h *HostedSession, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Rounds int `json:"rounds"`
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
			return
		}
	}
	// ?n= selects the batched path: the N rounds execute under one session
	// lock and journal as a single batch WAL record instead of N play
	// records. It overrides any body "rounds" field.
	batched := false
	rounds := req.Rounds
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid batch size %q", raw))
			return
		}
		batched = true
		rounds = n
	}
	if rounds <= 0 {
		rounds = 1
	}
	if rounds > maxPlayRounds {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rounds %d exceeds the per-request cap %d", rounds, maxPlayRounds))
		return
	}
	results := make([]roundResponse, 0, rounds)
	fail := func(err error, partial *RoundResult) {
		if r.Context().Err() != nil {
			return // the client is gone; nothing to report to
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrBreakerOpen):
			// The breaker failed the play fast — no round executed, no
			// result to report. The client backs off and retries after
			// the cooldown.
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrPulseBudget):
			// Documented-recoverable: the session is healthy but still
			// re-converging; the client should simply retry.
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrDurability):
			// The play executed — the session advanced a round — but
			// its journal write failed. Report the result so the
			// client's view stays consistent, with 503 marking the
			// degraded store.
			status = http.StatusServiceUnavailable
			if partial != nil {
				results = append(results, roundFor(*partial))
			}
		}
		writeJSON(w, status, map[string]any{
			"error":   err.Error(),
			"results": results,
		})
	}
	if batched {
		_, err := h.PlayN(r.Context(), rounds, func(res RoundResult) error {
			results = append(results, roundFor(res))
			return nil
		})
		if err != nil {
			// The sink already collected every completed round, so a
			// durability failure needs no extra partial result here.
			fail(err, nil)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": results})
		return
	}
	for i := 0; i < rounds; i++ {
		res, err := h.Play(r.Context())
		if err != nil {
			fail(err, &res)
			return
		}
		results = append(results, roundFor(res))
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func handleEvents(h *HostedSession, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	// Like Events, but counts overflow instead of dropping silently: a
	// slow reader sees a "lag" event naming how many events it missed, so
	// its view of the session is never wrong without it knowing.
	var counters *metrics.Counters
	if h.a != nil {
		counters = &h.a.counters
	}
	events := make(chan Event, 256)
	var mu sync.Mutex
	var dropped int64
	closed := false
	unsubscribe := h.Subscribe(ObserverFunc(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		select {
		case events <- e:
		default:
			dropped++
			if counters != nil {
				counters.EventsDropped.Add(1)
			}
		}
	}))
	defer func() {
		unsubscribe()
		mu.Lock()
		closed = true
		mu.Unlock()
	}()
	// Announce the stream only once the observer is registered: a client
	// that plays as soon as it reads this line must see those plays.
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": subscribed %s\n\n", h.ID())
	flusher.Flush()

	// Bound every write: a subscriber only buffers 256 events of lag, and
	// one that cannot absorb a write within the deadline is truly dead —
	// close it instead of letting the handler goroutine linger forever.
	rc := http.NewResponseController(w)
	write := func(info eventInfo) bool {
		payload, err := json.Marshal(info)
		if err != nil {
			return true
		}
		rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		_, err = fmt.Fprintf(w, "data: %s\n\n", payload)
		if err == nil {
			err = rc.Flush()
		}
		if err == nil {
			return true
		}
		if counters != nil && r.Context().Err() == nil {
			// The reader did not go away cleanly; it stalled past the
			// write deadline.
			counters.StreamTimeouts.Add(1)
		}
		return false
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-events:
			mu.Lock()
			lag := dropped
			dropped = 0
			mu.Unlock()
			if lag > 0 && !write(eventInfo{Kind: "lag", Dropped: lag}) {
				return
			}
			if !write(eventFor(e)) {
				return
			}
		}
	}
}

func infoFor(h *HostedSession) sessionInfo {
	st := h.Stats()
	return sessionInfo{ID: h.ID(), Kind: st.Kind.String(), Players: st.Players, Rounds: st.Rounds}
}

func roundFor(res RoundResult) roundResponse {
	// Clone before accumulating: on a history-bounded session the result's
	// slices alias ring slots that later plays in the same batch reuse.
	res = res.Clone()
	return roundResponse{
		Round:     res.Round,
		Outcome:   res.Outcome,
		Fouls:     foulsFor(res.Verdict.Fouls),
		Convicted: res.Convicted,
		Excluded:  res.Excluded,
		Costs:     res.Costs,
		Pulse:     res.Pulse,
	}
}

func foulsFor(fouls []audit.Foul) []foulInfo {
	out := make([]foulInfo, 0, len(fouls))
	for _, f := range fouls {
		out = append(out, foulInfo{Agent: f.Agent, Reason: f.Reason.String(), Detail: f.Detail})
	}
	return out
}

func eventFor(e Event) eventInfo {
	info := eventInfo{
		Kind:    e.Kind.String(),
		Round:   e.Round,
		Outcome: e.Outcome,
		Costs:   e.Costs,
		Fouls:   foulsFor(e.Fouls),
		Pulse:   e.Pulse,
		Detail:  e.Detail,
	}
	switch e.Kind {
	case EventConviction:
		agent := e.Agent
		info.Agent = &agent
	case EventElection:
		winner := e.Winner
		info.Winner = &winner
	}
	return info
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
