package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	ga "gameauthority"
)

// byz-committee: in-process distributed sessions on the mining,
// validator-committee and public-goods games at the default pulse-worker
// width, 70% at n=4/f=1, 20% at n=7/f=2 and 10% at n=10/f=1. 20% carry a
// rotating deviant; another 20% have processor 1 drop 30% of its messages,
// which stays inside f. Agreement (clock sync, Dolev–Strong, EIG) takes
// nearly all the time: the median falls on n=4, the tail on n=7 and n=10.
const (
	byzSessions           = 200
	byzDropRate           = 0.3
	profileRing           = 1 << 18 // program trace ring for the per-committee profiles
	byzAdvShare           = 5       // one session in 5 is deviant, one in 5 drops
	byzPulseCap           = 1000    // pulse budget per play, in plays' worth of pulses
	byzPublicGoodsBenefit = 2
)

// byzShares are the committee shares of the session population, matching
// committees.
var byzShares = []int{70, 20, 10}

// profilePlays per committee size: enough plays for a stable mean while
// the program's trace ring holds every span of them.
var byzProfilePlays = []int{200, 60, 40}

var byzGames = []string{"mining", "validator-committee", "publicgoods"}

type byzSession struct {
	id      string
	size    int // index into committees
	game    string
	seed    uint64
	deviant string
	drop    bool
	h       *ga.HostedSession
	v       verdicts
}

// byzMix generates the session population from seed. The composition is
// the same for every seed: within each committee size, one session in 5
// is deviant and one in 5 drops, and the games take turns. The seed
// shuffles which session gets what and seeds every session.
func byzMix(seed uint64) []*byzSession {
	r := newRNG(seed, 3)
	rot := deviantRotation["distributed"]
	var pop []*byzSession
	deviants := 0
	for size, share := range byzShares {
		for k := 0; k < byzSessions*share/100; k++ {
			s := &byzSession{size: size, game: byzGames[k%len(byzGames)], v: newVerdicts()}
			switch k % byzAdvShare {
			case 0:
				s.deviant = rot[deviants%len(rot)]
				deviants++
			case 1:
				s.drop = true
			}
			pop = append(pop, s)
		}
	}
	order := make([]int, len(pop))
	for i := range order {
		order[i] = i
	}
	shuffle(r, order)
	out := make([]*byzSession, len(pop))
	for i, slot := range order {
		s := pop[i]
		s.id, s.seed = fmt.Sprintf("byz-%d", slot), r.next()
		out[slot] = s
	}
	return out
}

// faulty is the player whose processor drops messages, or -1.
func (s *byzSession) faulty() int {
	if s.drop {
		return 1
	}
	return -1
}

// create hosts the session on a.
func (s *byzSession) create(a *ga.Authority) error {
	c := committees[s.size]
	var g ga.Game
	var err error
	if s.game == "publicgoods" {
		g, err = ga.PublicGoods(c.n, byzPublicGoodsBenefit)
	} else {
		e, ok := ga.ScenarioByName(s.game)
		if !ok {
			return fmt.Errorf("unknown catalog game %q", s.game)
		}
		g, err = e.Build(c.n)
	}
	if err != nil {
		return err
	}
	opts := []ga.Option{ga.WithSeed(s.seed), ga.WithHistoryLimit(historyLimit),
		ga.WithDistributed(c.n, c.f, nil), ga.WithPulseBudget(byzPulseCap * ga.PulsesPerPlay(c.f))}
	if s.deviant != "" {
		strategy, ok := ga.DeviantByName(s.deviant)
		if !ok {
			return fmt.Errorf("unknown deviant strategy %q", s.deviant)
		}
		opts = append(opts, ga.WithDeviant(0, strategy)) // the driver defaults to one-strike disconnection
	}
	if s.drop {
		opts = append(opts, ga.WithNetworkAdversary(1, ga.DropAdversary(s.seed, byzDropRate)))
	}
	s.h, err = a.Create(s.id, g, opts...)
	return err
}

type byzWorld struct {
	a      *ga.Authority
	sess   [clients][]*byzSession
	next   [clients]int
	create opStat
	// lat holds the traced phase's request latencies by committee size.
	lat [clients][3][]int64
}

func (w *byzWorld) setup(all []*byzSession) error {
	w.a = ga.NewAuthority()
	for i, s := range all {
		w.sess[i%clients] = append(w.sess[i%clients], s)
	}
	return parallel(func(c int) error {
		for _, s := range w.sess[c] {
			s.v = newVerdicts()
			t0 := time.Now()
			err := s.create(w.a)
			w.create.add(time.Since(t0))
			if err != nil {
				return fmt.Errorf("create %s: %w", s.id, err)
			}
		}
		return nil
	})
}

func (w *byzWorld) teardown() {
	if w.a != nil {
		_ = w.a.Close() // volatile sessions: nothing to flush
	}
}

var byzPlaySpan = "play"

// play plays s once, books its verdict and returns the request latency.
func (w *byzWorld) play(ctx context.Context, s *byzSession) (time.Duration, error) {
	t0 := time.Now()
	res, err := s.h.Play(ctx)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("play %s: %w", s.id, err)
	}
	s.v.observe(res.Round, len(res.Verdict.Fouls) > 0, res.Convicted, s.deviant != "", s.faulty())
	return d, nil
}

func (w *byzWorld) step(b *bench, byLatency bool) func(c int, s *sampler) {
	ctx := context.Background()
	return func(c int, smp *sampler) {
		s := w.sess[c][w.next[c]]
		w.next[c] = (w.next[c] + 1) % len(w.sess[c])
		id := b.tr.begin(c, &byzPlaySpan)
		t0 := time.Now()
		d, err := w.play(ctx, s)
		b.tr.end(c, id, t0, t0.Add(d))
		if byLatency && err == nil {
			w.lat[c][s.size] = append(w.lat[c][s.size], d.Nanoseconds())
		}
		smp.record(d, 1, err)
	}
}

// netCounts sums messages and pulses per committee size.
func (w *byzWorld) netCounts() (msgs, pulses [3]int64) {
	for c := range w.sess {
		for _, s := range w.sess[c] {
			st := s.h.Stats()
			msgs[s.size] += st.Messages
			pulses[s.size] += st.Pulses
		}
	}
	return msgs, pulses
}

// check audits every session: replicas agree on every play, every play is
// counted, deviants are convicted and no honest player is.
func (w *byzWorld) check(r *report) (fouls int64, plays int64, err error) {
	var cs convictionStats
	for c := range w.sess {
		for _, s := range w.sess[c] {
			for s.deviant != "" && s.v.plays < convictionPlays {
				if _, err := w.play(context.Background(), s); err != nil {
					return 0, 0, fmt.Errorf("top-up %w", err)
				}
			}
			st := s.h.Stats()
			fouls += int64(st.Fouls)
			plays += int64(s.v.plays)
			r.check(st.Rounds == s.v.plays, "%s: session counts %d rounds, client acknowledged %d", s.id, st.Rounds, s.v.plays)
			if err := ga.AsDistributed(s.h.Session).ConsistentResults(s.v.plays); err != nil {
				r.fail("%s: replicas disagree: %v", s.id, err)
			}
			checkExcluded(r, s.id, excludedIndices(st.Excluded), s.deviant, s.faulty())
			cs.checkVerdicts(r, s.id, s.v, s.deviant)
		}
	}
	cs.report(r)
	return fouls, plays, nil
}

// profile plays the sessions of one committee size with one client and
// the program's tracer on, and breaks each play down by pulse kind.
func (w *byzWorld) profile(size, plays int) (playProfile, float64, float64, error) {
	var group []*byzSession
	for c := range w.sess {
		for _, s := range w.sess[c] {
			if s.size == size {
				group = append(group, s)
			}
		}
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ga.EnableTracing(profileRing, 1)
	var total time.Duration
	for i := 0; i < plays; i++ {
		d, err := w.play(ctx, group[i%len(group)])
		if err != nil {
			ga.DisableTracing()
			return playProfile{}, 0, 0, err
		}
		total += d
	}
	ga.DisableTracing()
	runtime.ReadMemStats(&after)
	if n := ga.TracedSpans(); n >= profileRing {
		return playProfile{}, 0, 0, fmt.Errorf("profile of %s overflowed the %d-span trace ring", committees[size].label, profileRing)
	}
	var buf bytes.Buffer
	if err := ga.WriteTrace(&buf); err != nil {
		return playProfile{}, 0, 0, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return playProfile{}, 0, 0, fmt.Errorf("program trace: %w", err)
	}
	p, err := profilePlays(doc.TraceEvents)
	if err != nil {
		return p, 0, 0, err
	}
	reqUS := float64(total.Microseconds()) / float64(plays)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(plays)
	return p, reqUS, allocs, nil
}

func runByzCommittee(b *bench) (attempted, failed int64, err error) {
	all := byzMix(b.opt.seed)
	var w *byzWorld
	setup, err := b.setups(setupReps, func() error {
		w = &byzWorld{}
		return w.setup(all)
	}, func() { w.teardown() })
	if err != nil {
		return 0, 0, err
	}
	defer w.teardown()
	heap := heapAfterGC()
	runPhase(w.step(b, false), forRequests(int64(len(w.sess[0])))) // warm-up: one play per session

	var measured totals
	if !b.opt.trace {
		measured = merge(runPhase(w.step(b, false), forDuration(b.seconds())))
		reportEndToEnd(b.rep, measured, setup, heap)
	} else {
		untraced := merge(runPhase(w.step(b, false), forDuration(b.seconds()/2)))
		msgs0, pulses0 := w.netCounts()
		var p phase
		ga.EnableTracing(0, 1)
		b.traced(func() { p = runPhase(w.step(b, true), forDuration(b.seconds()/2)) })
		ga.DisableTracing()
		traced := merge(p)
		msgs1, pulses1 := w.netCounts()
		if err := reportByzLayers(b.rep, w, traced, msgs1, pulses1, msgs0, pulses0); err != nil {
			return 0, 0, err
		}
		b.rep.set("trace.plays_per_s_ratio", ratio(traced.playsPerSecond(), untraced.playsPerSecond()), "ratio",
			fmt.Sprintf("(traced %.0f vs untraced %.0f plays/s)", traced.playsPerSecond(), untraced.playsPerSecond()))
		measured = untraced.add(traced)
	}
	fouls, plays, err := w.check(b.rep)
	if err != nil {
		return 0, 0, err
	}
	if b.opt.trace {
		b.rep.set("audit.fouls_per_1k_plays", perK(float64(fouls), plays), "count", "")
		zeroUnreached(b.rep)
	}
	return measured.attempted, measured.failed, nil
}

// reportByzLayers records byz-committee's per-layer metrics: per-size
// client latency and network counts from the traced mix phase, and the
// per-size pulse-kind profiles with their layer shares.
func reportByzLayers(r *report, w *byzWorld, t totals, msgs1, pulses1, msgs0, pulses0 [3]int64) error {
	for i, c := range committees {
		var lat []int64
		for cl := range w.lat {
			lat = append(lat, w.lat[cl][i]...)
		}
		sum := summarize(lat)
		plays := float64(sum.n)
		r.set("core.dist_play_us."+c.label, sum.mean, "us", fmt.Sprintf("(mean of %d plays, p99 %.0f us)", sum.n, sum.p99))
		r.set("core.messages_per_play."+c.label, ratio(float64(msgs1[i]-msgs0[i]), plays), "count", "")
		r.set("core.pulses_per_play."+c.label, ratio(float64(pulses1[i]-pulses0[i]), plays), "count", "")
	}
	r.set("authority.create_us", w.create.snap().meanUS(), "us", "(Authority.Create)")
	reportRuntime(r, t)

	// Per-size profiles, then the mix's shares: each size weighted by its
	// share of the requests (the clients play sessions round-robin).
	lt := layerTimes{segments: map[string]float64{}}
	for i, c := range committees {
		p, reqUS, allocs, err := w.profile(i, byzProfilePlays[i])
		if err != nil {
			return err
		}
		r.set("bap.eig_resolve_us_per_play."+c.label, p.cpuUS["bap.eig_resolve"], "us", fmt.Sprintf("(%d traced plays)", p.plays))
		r.set("bap.dolev_strong_us_per_play."+c.label, p.cpuUS["bap.dolev_strong"], "us", "")
		r.set("clocksync.us_per_play."+c.label, p.cpuUS["clocksync"], "us", "")
		r.set("core.phase_self_us_per_play."+c.label, p.selfUS, "us", fmt.Sprintf("(of a %.0f us play span)", p.rootUS))
		r.set("core.allocs_per_play."+c.label, allocs, "count", "(whole process, tracer on)")
		weight := float64(byzShares[i]) / 100
		lt.requests += p.plays
		lt.meanUS += weight * reqUS
		for k, v := range p.wallUS {
			lt.segments[k] += weight * v
		}
		lt.segments["core.phase_self"] += weight * p.selfUS
	}
	reportShares(r, lt)
	return nil
}
