// Command loadgen is the many-session load harness: it spins up thousands
// of concurrent authority sessions across a weighted mix of scenario-
// catalog families and all four drivers (pure, mixed, RRA, distributed),
// plays every session concurrently, and reports throughput (plays/s) and
// play-latency percentiles (p50/p99).
//
// Two transports exercise the same Authority host:
//
//   - in-process (default): sessions are created with Authority.Create and
//     played directly — this measures the sharded registry and the play
//     hot paths with no wire in between;
//   - HTTP: -http http://host:port drives a running `gameauthd -serve`
//     over the JSON API (-selfserve starts a loopback server in-process,
//     so the HTTP path is measurable hermetically).
//
// Output is go-bench formatted on stdout, one row per scenario plus a
// /total row, and a human summary on stderr. It is a correctness harness
// first (CI runs it in `make loadgen-smoke` and the other *-smoke
// targets); the repeated, layer-attributed measurements live in
// benchmark/ (`make bench`). See DESIGN.md §7 for how to read a row.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	ga "gameauthority"
	"gameauthority/internal/metrics"
)

func main() {
	cfg := defaultConfig()
	flag.IntVar(&cfg.sessions, "sessions", 1000, "number of concurrent sessions to host")
	flag.IntVar(&cfg.plays, "plays", 20, "plays per session (heavy drivers play a documented fraction)")
	flag.IntVar(&cfg.batch, "batch", 0,
		"plays per batched request: >1 drives PlayN batches (one session lock, one WAL batch record per batch) and, in durable runs, enables WAL group commit")
	flag.StringVar(&cfg.mix, "mix", "", "override scenario weights, e.g. congestion=4,rra=1 (default: built-in mix over every family)")
	flag.StringVar(&cfg.httpBase, "http", "", "drive a running gameauthd -serve at this base URL instead of in-process")
	flag.BoolVar(&cfg.selfserve, "selfserve", false, "start a loopback HTTP server in-process and drive it (hermetic wire mode)")
	flag.StringVar(&cfg.transport, "transport", "",
		"transport to drive: inproc, http, or ws (default: http when -http/-selfserve is set, else inproc)")
	flag.IntVar(&cfg.conns, "conns", 16, "ws transport: number of multiplexed WebSocket connections")
	flag.IntVar(&cfg.pulseWorkers, "pulse-workers", 0,
		"distributed pulse engine width: 0 driver default (lockstep below the n x EIG-nodes crossover, else a min(GOMAXPROCS, n) pool), 1 lockstep, >1 worker pool (needs GOMAXPROCS>1 to pay off)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "root seed; session i uses seed+i")
	flag.Float64Var(&cfg.deviants, "deviants", 0,
		"fraction of sessions carrying one selfish deviant player (0..1); strategies rotate through the deviation catalog")
	flag.BoolVar(&cfg.chaos, "chaos", false,
		"install network-level adversaries on distributed sessions (in-process only; composes with -deviants)")
	flag.IntVar(&cfg.crash, "crash", 0,
		"crash/recover cycles: SIGKILL-style drop the authority mid-run and recover it from the write-ahead log this many times (in-process only)")
	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"durable store directory for -crash (default: a throwaway temp dir)")
	flag.Float64Var(&cfg.chaosDisk, "chaos-disk", 0,
		"chaos acceptance mode: seeded disk-fault rate in [0,1] injected under the store (setting this flag, even to 0, switches to the chaos harness)")
	flag.Float64Var(&cfg.chaosNet, "chaos-net", 0,
		"chaos acceptance mode: seeded network-fault rate in [0,1] injected under every client connection (setting this flag, even to 0, switches to the chaos harness)")
	flag.Parse()
	// Setting either chaos rate — including explicitly to 0, for the
	// fault-free baseline row — selects the acceptance harness.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "chaos-disk" || f.Name == "chaos-net" {
			cfg.chaosMode = true
		}
	})
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	sessions  int
	plays     int
	batch     int // >1: play in PlayN batches of this size
	mix       string
	httpBase  string
	selfserve bool
	transport string
	conns     int
	seed      uint64
	deviants  float64
	chaos     bool
	chaosMode bool    // -chaos-disk/-chaos-net was set: run the chaos acceptance harness
	chaosDisk float64 // seeded disk-fault rate for chaos mode
	chaosNet  float64 // seeded network-fault rate for chaos mode
	crash     int
	dataDir   string
	// pulseWorkers overrides the distributed sessions' pulse engine width
	// (0 keeps the driver default).
	pulseWorkers int
	out          io.Writer // bench lines (stdout in main)
	info         io.Writer // human summary (stderr in main)
}

func defaultConfig() config {
	return config{out: os.Stdout, info: os.Stderr}
}

// scenario is one entry of the load mix: how to build the session both
// in-process and over the wire, its default weight, and how to scale the
// per-session play count for heavy drivers.
type scenario struct {
	name   string
	driver string // pure | mixed | rra | distributed
	weight int
	// players is the session's actual participant count (after catalog
	// canonicalization) — deviant sessions size their punishment scheme
	// from it.
	players int
	// punished reports whether build installs (or the driver defaults
	// to) an executive scheme; deviant sessions on unpunished scenarios
	// get the paper's disconnection scheme so convictions can happen.
	punished bool
	// playsDiv divides the -plays budget (the distributed driver costs
	// ~300× a pure play; equal budgets would make it the whole run).
	playsDiv int
	build    func(seed uint64) (ga.Game, []ga.Option, error)
	request  func(id string, seed uint64) ga.CreateSessionRequest
}

// loadMix returns the built-in weighted scenario mix: every catalog
// family on the pure driver plus one scenario per remaining driver, so a
// default run exercises the full driver matrix.
func loadMix() []scenario {
	mix := []scenario{
		catalogScenario("congestion", 4, 4),
		catalogScenario("braess", 4, 3),
		catalogScenario("coordination-n", 3, 3),
		catalogScenario("publicgoods-punish", 4, 3),
		catalogScenario("minority", 5, 3),
		catalogScenario("firstprice", 3, 2),
		catalogScenario("secondprice", 3, 2),
		catalogScenario("pd", 2, 3),
		{
			name:     "mixed-pennies",
			driver:   "mixed",
			weight:   4,
			players:  2,
			punished: true,
			build: func(seed uint64) (ga.Game, []ga.Option, error) {
				g := ga.MatchingPennies()
				return g, []ga.Option{
					ga.WithStrategies(uniformStrategies(g)),
					ga.WithAudit(ga.AuditPerRound),
					ga.WithPunishment(ga.NewDisconnectScheme(2, 0)),
				}, nil
			},
			request: func(id string, seed uint64) ga.CreateSessionRequest {
				return ga.CreateSessionRequest{ID: id, Seed: seed, Game: "matchingpennies",
					Kind: "mixed", Audit: "per-round"}
			},
		},
		{
			name:     "rra",
			driver:   "rra",
			weight:   3,
			players:  8,
			punished: true,
			build: func(seed uint64) (ga.Game, []ga.Option, error) {
				return nil, []ga.Option{
					ga.WithRRA(8, 4),
					ga.WithPunishment(ga.NewDisconnectScheme(8, 0)),
				}, nil
			},
			request: func(id string, seed uint64) ga.CreateSessionRequest {
				req := ga.CreateSessionRequest{ID: id, Seed: seed,
					Punishment: &ga.PunishmentSpec{Scheme: "disconnect"}}
				req.RRA = &struct {
					Agents    int `json:"agents"`
					Resources int `json:"resources"`
				}{Agents: 8, Resources: 4}
				return req
			},
		},
		{
			name:   "dist-publicgoods",
			driver: "distributed",
			weight: 1,
			// The distributed driver defaults its executive replicas to
			// one-strike disconnection when no scheme is configured.
			players:  4,
			punished: true,
			playsDiv: 4,
			build: func(seed uint64) (ga.Game, []ga.Option, error) {
				g, err := ga.PublicGoods(4, 2)
				if err != nil {
					return nil, nil, err
				}
				return g, []ga.Option{
					ga.WithDistributed(4, 1, nil),
					ga.WithPulseBudget(1000 * ga.PulsesPerPlay(1)),
				}, nil
			},
			request: func(id string, seed uint64) ga.CreateSessionRequest {
				req := ga.CreateSessionRequest{ID: id, Seed: seed, Game: "publicgoods",
					Players: 4, PulseBudget: 1000 * ga.PulsesPerPlay(1)}
				req.Distributed = &struct {
					N int `json:"n"`
					F int `json:"f"`
				}{N: 4, F: 1}
				return req
			},
		},
		// The Byzantine scenario families run on the driver they model:
		// fork-choice and committee attestation replicated over interactive
		// consistency with one tolerated fault.
		distScenario("dist-mining", "mining", 4, 1, 1),
		distScenario("dist-committee", "validator-committee", 4, 1, 1),
	}
	return mix
}

// distScenario lifts a scenario-catalog family onto the distributed
// driver: n replicated processors agree on every play via interactive
// consistency, tolerating f Byzantine faults.
func distScenario(label, game string, n, f, weight int) scenario {
	return scenario{
		name:     label,
		driver:   "distributed",
		weight:   weight,
		players:  n,
		punished: true, // the distributed driver defaults to one-strike disconnection
		playsDiv: 4,
		build: func(seed uint64) (ga.Game, []ga.Option, error) {
			e, ok := ga.ScenarioByName(game)
			if !ok {
				return nil, nil, fmt.Errorf("unknown catalog scenario %q", game)
			}
			g, err := e.Build(n)
			if err != nil {
				return nil, nil, err
			}
			return g, []ga.Option{
				ga.WithDistributed(n, f, nil),
				ga.WithPulseBudget(1000 * ga.PulsesPerPlay(f)),
			}, nil
		},
		request: func(id string, seed uint64) ga.CreateSessionRequest {
			req := ga.CreateSessionRequest{ID: id, Seed: seed, Game: game,
				Players: n, PulseBudget: 1000 * ga.PulsesPerPlay(f)}
			req.Distributed = &struct {
				N int `json:"n"`
				F int `json:"f"`
			}{N: n, F: f}
			return req
		},
	}
}

// applyPulseWorkers overrides the pulse engine width on every distributed
// scenario in the mix, both in-process (option) and over the wire
// (request field). workers ≤ 0 leaves the mix untouched.
func applyPulseWorkers(mix []scenario, workers int) []scenario {
	if workers <= 0 {
		return mix
	}
	for i := range mix {
		if mix[i].driver != "distributed" {
			continue
		}
		sc := mix[i]
		mix[i].build = func(seed uint64) (ga.Game, []ga.Option, error) {
			g, opts, err := sc.build(seed)
			if err != nil {
				return nil, nil, err
			}
			return g, append(opts, ga.WithPulseWorkers(workers)), nil
		}
		mix[i].request = func(id string, seed uint64) ga.CreateSessionRequest {
			req := sc.request(id, seed)
			req.PulseWorkers = workers
			return req
		}
	}
	return mix
}

// catalogScenario lifts a scenario-catalog family onto the pure driver.
func catalogScenario(name string, players, weight int) scenario {
	actual := players
	if e, ok := ga.ScenarioByName(name); ok {
		actual = e.Players(players)
	}
	return scenario{
		name:    name,
		driver:  "pure",
		weight:  weight,
		players: actual,
		build: func(seed uint64) (ga.Game, []ga.Option, error) {
			e, ok := ga.ScenarioByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown catalog scenario %q", name)
			}
			g, err := e.Build(e.Players(players))
			if err != nil {
				return nil, nil, err
			}
			return g, nil, nil
		},
		request: func(id string, seed uint64) ga.CreateSessionRequest {
			return ga.CreateSessionRequest{ID: id, Seed: seed, Game: name, Players: players}
		},
	}
}

// applyMix overrides scenario weights from a "name=weight,..." spec.
// Weight 0 drops a scenario from the mix.
func applyMix(mix []scenario, spec string) ([]scenario, error) {
	if spec == "" {
		return mix, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q must be a non-negative integer", val)
		}
		found := false
		for _, sc := range mix {
			if sc.name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("mix names unknown scenario %q", name)
		}
		weights[name] = w
	}
	out := mix[:0]
	for _, sc := range mix {
		if w, ok := weights[sc.name]; ok {
			sc.weight = w
		}
		if sc.weight > 0 {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mix %q leaves no scenarios", spec)
	}
	return out, nil
}

// sessionCounts apportions the session budget over the mix proportionally
// to weight; every scenario with positive weight gets at least one
// session, and rounding remainders go to the heaviest scenarios so the
// total is exact.
func sessionCounts(mix []scenario, sessions int) []int {
	total := 0
	for _, sc := range mix {
		total += sc.weight
	}
	counts := make([]int, len(mix))
	assigned := 0
	for i, sc := range mix {
		counts[i] = sessions * sc.weight / total
		if counts[i] == 0 {
			counts[i] = 1
		}
		assigned += counts[i]
	}
	// Distribute (or claw back) the rounding difference by weight order.
	order := make([]int, len(mix))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return mix[order[a]].weight > mix[order[b]].weight })
	for i := 0; assigned != sessions; i = (i + 1) % len(order) {
		j := order[i]
		if assigned < sessions {
			counts[j]++
			assigned++
		} else if counts[j] > 1 {
			counts[j]--
			assigned--
		}
	}
	return counts
}

// deviance configures one session's chaos ingredients: a deviation
// strategy (empty = honest) and whether to add a network adversary
// (distributed driver, in-process only).
type deviance struct {
	strategy string
	chaos    bool
}

// outcome is a deviant session's post-run audit summary.
type outcome struct {
	fouls       int
	convictions int
	excluded    bool // the deviant player (0) ended the run excluded
}

// player is one hosted session under load, on either transport.
type player interface {
	play(ctx context.Context) error
	// playN plays n rounds as one batched request: one session lock, one
	// WAL batch record, one wire round trip.
	playN(ctx context.Context, n int) error
	stats() (outcome, error)
	close() error
}

// transport creates players for scenarios.
type transport interface {
	create(id string, sc scenario, seed uint64, dev deviance) (player, error)
	shutdown() error
}

func run(cfg config) error {
	if cfg.chaosMode {
		return runChaos(cfg)
	}
	if cfg.sessions < 1 || cfg.plays < 1 {
		return fmt.Errorf("-sessions and -plays must be positive")
	}
	if cfg.httpBase != "" && cfg.selfserve {
		return fmt.Errorf("-http and -selfserve are mutually exclusive")
	}
	tmode := cfg.transport
	if tmode == "" {
		if cfg.httpBase != "" || cfg.selfserve {
			tmode = "http"
		} else {
			tmode = "inproc"
		}
	}
	switch tmode {
	case "inproc", "http", "ws":
	default:
		return fmt.Errorf("-transport %q must be inproc, http, or ws", cfg.transport)
	}
	if tmode == "inproc" && (cfg.httpBase != "" || cfg.selfserve) {
		return fmt.Errorf("-transport inproc cannot combine with -http/-selfserve")
	}
	if tmode != "inproc" && cfg.httpBase == "" && !cfg.selfserve {
		return fmt.Errorf("-transport %s needs a server: set -http or -selfserve", tmode)
	}
	if tmode == "ws" && cfg.conns < 1 {
		return fmt.Errorf("-conns %d must be positive", cfg.conns)
	}
	if cfg.deviants < 0 || cfg.deviants > 1 {
		return fmt.Errorf("-deviants %v must be in [0,1]", cfg.deviants)
	}
	if cfg.batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative", cfg.batch)
	}
	if cfg.chaos && (cfg.httpBase != "" || cfg.selfserve) {
		return fmt.Errorf("-chaos installs in-process network adversaries; it cannot ride the HTTP transport")
	}
	if cfg.crash < 0 {
		return fmt.Errorf("-crash %d must be non-negative", cfg.crash)
	}
	if (cfg.crash > 0 || cfg.dataDir != "") && (cfg.httpBase != "" || cfg.selfserve) {
		return fmt.Errorf("-crash/-data-dir drive the in-process authority; they cannot ride the HTTP transport")
	}
	if cfg.crash > 0 && cfg.chaos {
		return fmt.Errorf("-crash cannot compose with -chaos: network adversaries are in-process closures a recovered session cannot rebuild from its journaled spec")
	}
	if cfg.pulseWorkers < 0 {
		return fmt.Errorf("-pulse-workers %d must be non-negative", cfg.pulseWorkers)
	}
	mix, err := applyMix(loadMix(), cfg.mix)
	if err != nil {
		return err
	}
	if cfg.sessions < len(mix) {
		// Every scenario in the mix gets at least one session; fewer
		// sessions than scenarios cannot be apportioned.
		return fmt.Errorf("-sessions %d is below the mix's %d scenarios; raise -sessions or narrow -mix",
			cfg.sessions, len(mix))
	}
	mix = applyPulseWorkers(mix, cfg.pulseWorkers)

	durable := cfg.crash > 0 || cfg.dataDir != ""
	var tr transport
	mode := "in-process"
	base := cfg.httpBase
	var closeSrv func()
	if cfg.selfserve {
		// One loopback server backs both wire transports, so WS-vs-HTTP
		// comparisons hit identical server code.
		srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
		base, closeSrv = srv.URL, srv.Close
	}
	switch {
	case tmode == "ws":
		wt, err := newWSTransport(base, cfg.conns)
		if err != nil {
			if closeSrv != nil {
				closeSrv()
			}
			return err
		}
		wt.onShutdown = closeSrv
		tr = wt
		mode = fmt.Sprintf("ws %s (%d conns)", base, cfg.conns)
	case tmode == "http":
		ht := newHTTPTransport(base)
		ht.onShutdown = closeSrv
		tr = ht
		mode = "http " + base
	case durable:
		dir := cfg.dataDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "loadgen-wal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		st, err := ga.NewFileStore(dir)
		if err != nil {
			return err
		}
		// Batched durable runs amortize the fsync: appends from every
		// session coalesce into shared group-commit epochs. extraOpts is
		// carried so crash recovery rebuilds the same write path.
		it := &inprocTransport{durable: true}
		if cfg.batch > 1 {
			it.extraOpts = []ga.AuthorityOption{ga.WithGroupCommit(groupCommitWindow, groupCommitMaxBatch)}
		}
		it.authority = ga.NewAuthority(append([]ga.AuthorityOption{ga.WithStore(st)}, it.extraOpts...)...)
		tr = it
		mode = "in-process durable (" + dir + ")"
		if cfg.batch > 1 {
			mode = fmt.Sprintf("in-process durable group-commit (%s, batch=%d)", dir, cfg.batch)
		}
	default:
		tr = &inprocTransport{authority: ga.NewAuthority()}
	}
	defer tr.shutdown()

	// Row names carry the write-path shape so volatile, durable, and
	// durable-batched runs print distinct rows.
	label := "Loadgen/transport=" + tmode
	if durable {
		label += "/durable"
	}
	if cfg.batch > 1 {
		label += fmt.Sprintf("/batch=%d", cfg.batch)
	}
	if cfg.pulseWorkers > 0 {
		label += fmt.Sprintf("/pulse-workers=%d", cfg.pulseWorkers)
	}

	counts := sessionCounts(mix, cfg.sessions)

	// Phase 1 — create every session concurrently. All of them stay hosted
	// (and playable) together: this is the "N concurrent sessions" claim.
	// Deviant slots are spread evenly over the run (Bresenham on the slot
	// index) and rotate through the deviation catalog.
	type slot struct {
		scenario int
		player   player
		plays    int
		dev      deviance
		lat      []float64 // per-play latency, ns
	}
	strategies := deviantNames()
	isDeviant := func(k int) bool {
		if cfg.deviants <= 0 {
			return false
		}
		return int(float64(k+1)*cfg.deviants) > int(float64(k)*cfg.deviants)
	}
	slots := make([]*slot, 0, cfg.sessions)
	deviantOrdinal := 0
	for i, c := range counts {
		for j := 0; j < c; j++ {
			plays := cfg.plays
			if d := mix[i].playsDiv; d > 1 {
				if plays = cfg.plays / d; plays == 0 {
					plays = 1
				}
			}
			s := &slot{scenario: i, plays: plays}
			if isDeviant(len(slots)) {
				// Rotate by deviant ordinal, not slot index: a slot
				// stride that divides the catalog size would otherwise
				// pin every deviant to one strategy.
				s.dev.strategy = strategies[deviantOrdinal%len(strategies)]
				deviantOrdinal++
			}
			s.dev.chaos = cfg.chaos
			slots = append(slots, s)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(slots))
	createStart := time.Now()
	for k, s := range slots {
		wg.Add(1)
		go func(k int, s *slot) {
			defer wg.Done()
			sc := mix[s.scenario]
			id := fmt.Sprintf("lg-%s-%d", sc.name, k)
			p, err := tr.create(id, sc, cfg.seed+uint64(k), s.dev)
			if err != nil {
				errCh <- fmt.Errorf("create %s: %w", id, err)
				return
			}
			s.player = p
		}(k, s)
	}
	wg.Wait()
	createDur := time.Since(createStart)
	if err := firstError(errCh); err != nil {
		return err
	}

	// Phase 2 — play every session concurrently, one goroutine per
	// session, timing each play. With -crash N the play budget splits into
	// N+1 segments: after each non-final segment the authority is
	// SIGKILL-dropped and a fresh one recovers every session from the
	// write-ahead log before play resumes. playDur sums only the play
	// segments, so throughput stays comparable to non-crash runs; the
	// recovery cost is reported separately as replay lag.
	ctx := context.Background()
	segments := cfg.crash + 1
	var playDur time.Duration
	var recov struct {
		cycles   int
		sessions int
		rounds   int
		dur      time.Duration
		lat      []float64 // recovery wall time per cycle, ns
	}
	for _, s := range slots {
		s.lat = make([]float64, 0, s.plays)
	}
	for seg := 0; seg < segments; seg++ {
		segStart := time.Now()
		for _, s := range slots {
			wg.Add(1)
			go func(s *slot) {
				defer wg.Done()
				from, to := segmentBounds(s.plays, segments, seg)
				for r := from; r < to; {
					// Batched mode plays chunks of -batch rounds per call
					// (the segment tail takes what remains) and books the
					// amortized per-round latency for each round, so ns/op
					// stays comparable across batch sizes.
					n := 1
					if cfg.batch > 1 {
						if n = cfg.batch; r+n > to {
							n = to - r
						}
					}
					t0 := time.Now()
					var err error
					if n == 1 {
						err = s.player.play(ctx)
					} else {
						err = s.player.playN(ctx, n)
					}
					if err != nil {
						errCh <- fmt.Errorf("play %s: %w", mix[s.scenario].name, err)
						return
					}
					per := float64(time.Since(t0).Nanoseconds()) / float64(n)
					for i := 0; i < n; i++ {
						s.lat = append(s.lat, per)
					}
					r += n
				}
			}(s)
		}
		wg.Wait()
		playDur += time.Since(segStart)
		if err := firstError(errCh); err != nil {
			return err
		}
		if seg == segments-1 {
			break
		}
		it, ok := tr.(*inprocTransport)
		if !ok {
			return fmt.Errorf("crash mode supports only the in-process transport")
		}
		report, err := it.crashRecover(ctx)
		if err != nil {
			return fmt.Errorf("crash cycle %d: %w", seg+1, err)
		}
		if report.Sessions != len(slots) {
			return fmt.Errorf("crash cycle %d: recovered %d of %d sessions", seg+1, report.Sessions, len(slots))
		}
		for _, s := range slots {
			if err := it.rebind(s.player); err != nil {
				return fmt.Errorf("crash cycle %d: %w", seg+1, err)
			}
		}
		recov.cycles++
		recov.sessions += report.Sessions
		recov.rounds += report.Rounds
		recov.dur += report.Elapsed
		recov.lat = append(recov.lat, float64(report.Elapsed.Nanoseconds()))
	}

	// Phase 3 — audit the deviant sessions, then teardown and report.
	deviantSessions, detected, convicted := 0, 0, 0
	var deviantLat []float64
	for _, s := range slots {
		if s.dev.strategy != "" {
			out, err := s.player.stats()
			if err != nil {
				return fmt.Errorf("stats %s: %w", mix[s.scenario].name, err)
			}
			deviantSessions++
			if out.fouls > 0 {
				detected++
			}
			if out.convictions > 0 || out.excluded {
				convicted++
			}
			deviantLat = append(deviantLat, s.lat...)
		}
	}
	for _, s := range slots {
		if err := s.player.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}

	perScenario := make([][]float64, len(mix))
	sessionsPer := make([]int, len(mix))
	var all []float64
	for _, s := range slots {
		perScenario[s.scenario] = append(perScenario[s.scenario], s.lat...)
		sessionsPer[s.scenario]++
		all = append(all, s.lat...)
	}

	fmt.Fprintf(cfg.info, "loadgen: %s, %d concurrent sessions over %d scenarios, %d plays total\n",
		mode, len(slots), len(mix), len(all))
	fmt.Fprintf(cfg.info, "loadgen: created in %v, played in %v (%.0f plays/s)\n",
		createDur.Round(time.Millisecond), playDur.Round(time.Millisecond),
		float64(len(all))/playDur.Seconds())

	// Bench names carry the transport label so WS-vs-HTTP runs print
	// separate rows. A scenario's plays share one window with every other
	// scenario's, so only the /total row reports throughput.
	fmt.Fprintf(cfg.out, "goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
	for i, sc := range mix {
		writeBenchLine(cfg.out, label+"/scenario="+sc.name+"/driver="+sc.driver,
			perScenario[i], sessionsPer[i], 0)
	}
	writeBenchLine(cfg.out, label+"/total", all, len(slots), playDur)
	if deviantSessions > 0 {
		detectionRate := float64(detected) / float64(deviantSessions)
		convictionRate := float64(convicted) / float64(deviantSessions)
		fmt.Fprintf(cfg.info, "loadgen: %d deviant sessions (%.0f%% of run): detection %.1f%%, conviction %.1f%%\n",
			deviantSessions, 100*cfg.deviants, 100*detectionRate, 100*convictionRate)
		sort.Float64s(deviantLat)
		s := metrics.SummarizeSorted(deviantLat)
		fmt.Fprintf(cfg.out, "BenchmarkLoadgen/deviants-%d\t%d\t%.0f ns/op\t%.3f detection-rate\t%.3f conviction-rate\t%d deviant-sessions\n",
			runtime.GOMAXPROCS(0), s.N, s.Mean, detectionRate, convictionRate, deviantSessions)
	}
	if recov.cycles > 0 {
		perCycle := recov.dur / time.Duration(recov.cycles)
		fmt.Fprintf(cfg.info, "loadgen: %d crash/recover cycles: %d sessions recovered, %d rounds replayed, replay lag %v/cycle\n",
			recov.cycles, recov.sessions, recov.rounds, perCycle.Round(time.Millisecond))
		sort.Float64s(recov.lat)
		s := metrics.SummarizeSorted(recov.lat)
		replayRate := float64(recov.rounds) / recov.dur.Seconds()
		crashName := "BenchmarkLoadgen/crash"
		if cfg.batch > 1 {
			crashName += fmt.Sprintf("/batch=%d", cfg.batch)
		}
		fmt.Fprintf(cfg.out, "%s-%d\t%d\t%.0f ns/op\t%.1f recovered-sessions\t%.1f replayed-rounds\t%.1f replayed-rounds/s\n",
			crashName, runtime.GOMAXPROCS(0), recov.cycles, s.Mean,
			float64(recov.sessions)/float64(recov.cycles), float64(recov.rounds)/float64(recov.cycles), replayRate)
	}
	return nil
}

// segmentBounds splits a session's play budget over crash segments as
// evenly as possible (earlier segments take the remainder).
func segmentBounds(plays, segments, seg int) (from, to int) {
	base, rem := plays/segments, plays%segments
	from = seg * base
	if seg < rem {
		from += seg
	} else {
		from += rem
	}
	to = from + base
	if seg < rem {
		to++
	}
	return from, to
}

// deviantNames returns the deviation-catalog strategy names the chaos
// mix rotates through.
func deviantNames() []string {
	reg := ga.DeviantStrategies()
	out := make([]string, len(reg))
	for i, d := range reg {
		out[i] = d.Name()
	}
	return out
}

// writeBenchLine emits one go-bench formatted line: iterations = plays,
// ns/op = mean latency, then latency percentiles and the session count as
// custom metrics. A non-zero window adds plays/s over it; only a row that
// owns the whole play window (a /total row) passes one.
func writeBenchLine(w io.Writer, name string, lat []float64, sessions int, window time.Duration) {
	if len(lat) == 0 {
		return
	}
	// The latency slices are report-phase-owned by this point; sorting in
	// place spares one copy of the full sample per row.
	sort.Float64s(lat)
	s := metrics.SummarizeSorted(lat)
	fmt.Fprintf(w, "Benchmark%s-%d\t%d\t%.0f ns/op", name, runtime.GOMAXPROCS(0), s.N, s.Mean)
	if window > 0 {
		fmt.Fprintf(w, "\t%.1f plays/s", float64(s.N)/window.Seconds())
	}
	fmt.Fprintf(w, "\t%.0f p50-ns/op\t%.0f p99-ns/op\t%d sessions\n", s.P50, s.P99, sessions)
}

func firstError(errCh chan error) error {
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

func uniformStrategies(g ga.Game) func(int, ga.Profile) ga.MixedProfile {
	mp := make(ga.MixedProfile, g.NumPlayers())
	for i := range mp {
		mp[i] = ga.Uniform(g.NumActions(i))
	}
	return func(int, ga.Profile) ga.MixedProfile { return mp }
}
