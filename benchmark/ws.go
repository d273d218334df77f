package main

import (
	"context"
	"fmt"
	"net"
	"time"

	ga "gameauthority"
	"gameauthority/internal/hub"
)

// ws-steady: about 2,000 long-lived volatile sessions on the cheap
// drivers, 10% with a rotating deviant, each request one hub.Client.Play
// over /ws on one of 2 connections. The driver step is a small part of a
// request, so the hub, the wire codec and the shard loops do most of the
// work; the store and the agreement engine do none.
const (
	wsSessions    = 2000
	wsDigestEvery = 100 // every 100th session's digest is checked in-process
)

var playSpan = "play"

type wsSession struct {
	spec sessionSpec
	ref  uint64
	v    verdicts
}

// wsWorld is one set-up of ws-steady: authority, loopback server, two
// hub clients and the sessions each drives.
type wsWorld struct {
	a      *ga.Authority
	lb     *loopback
	cl     [clients]*hub.Client
	sess   [clients][]*wsSession
	next   [clients]int
	cstats connStats
	sstats connStats
	owners connOwners
	create opStat
}

func (w *wsWorld) setup(b *bench, specs []sessionSpec) error {
	w.a = ga.NewAuthority()
	lb, err := startLoopback(ga.NewServer(w.a), &w.sstats, b.tr, &w.owners)
	if err != nil {
		return err
	}
	w.lb = lb
	for c := 0; c < clients; c++ {
		c := c
		cl, err := hub.DialWith(lb.url+"/ws", hub.DialOptions{WrapConn: func(nc net.Conn) net.Conn {
			return newClientConn(nc, c, &w.cstats, b.tr, &w.owners)
		}})
		if err != nil {
			return fmt.Errorf("dial /ws: %w", err)
		}
		w.cl[c] = cl
	}
	return parallel(func(c int) error {
		for i := c; i < len(specs); i += clients {
			body := specs[i].json()
			t0 := time.Now()
			ref, _, err := w.cl[c].Create(body)
			w.create.add(time.Since(t0))
			if err != nil {
				return fmt.Errorf("create %s: %w", specs[i].req.ID, err)
			}
			w.sess[c] = append(w.sess[c], &wsSession{spec: specs[i], ref: ref, v: newVerdicts()})
		}
		return nil
	})
}

func (w *wsWorld) teardown() {
	for _, cl := range w.cl {
		if cl != nil {
			cl.Close()
		}
	}
	if w.lb != nil {
		w.lb.close()
	}
	if w.a != nil {
		_ = w.a.Close() // volatile sessions: nothing to flush
	}
}

// step plays the client's next session once (round-robin).
func (w *wsWorld) step(b *bench) func(c int, s *sampler) {
	return func(c int, s *sampler) {
		ss := w.sess[c][w.next[c]]
		w.next[c] = (w.next[c] + 1) % len(w.sess[c])
		id := b.tr.begin(c, &playSpan)
		t0 := time.Now()
		out, err := w.cl[c].Play(ss.ref, 1)
		t1 := time.Now()
		b.tr.end(c, id, t0, t1)
		if err == nil && out.Completed != 1 {
			err = fmt.Errorf("play %s: %d rounds completed, want 1", ss.spec.req.ID, out.Completed)
		}
		if err == nil {
			ss.v.observe(out.Last.Round, len(out.Last.Fouls) > 0, out.Last.Convicted, ss.spec.deviant != "", -1)
		}
		s.record(t1.Sub(t0), out.Completed, err)
	}
}

// check audits every session over the wire and, for every 100th, replays
// its spec in-process and compares state digests. It returns the fouls
// the judicial service reported across all sessions.
func (w *wsWorld) check(r *report) (fouls int64, err error) {
	var cs convictionStats
	for c := range w.sess {
		for k, ss := range w.sess[c] {
			id := ss.spec.req.ID
			for ss.spec.deviant != "" && ss.v.plays < convictionPlays {
				out, err := w.cl[c].Play(ss.ref, 1)
				if err != nil {
					return 0, fmt.Errorf("top-up play %s: %w", id, err)
				}
				ss.v.observe(out.Last.Round, len(out.Last.Fouls) > 0, out.Last.Convicted, true, -1)
			}
			st, err := w.cl[c].Stats(ss.ref)
			if err != nil {
				return 0, fmt.Errorf("stats %s: %w", id, err)
			}
			fouls += int64(st.Fouls)
			r.check(st.Rounds == ss.v.plays, "%s: server counts %d rounds, client acknowledged %d", id, st.Rounds, ss.v.plays)
			checkExcluded(r, id, st.Excluded, ss.spec.deviant, -1)
			cs.checkVerdicts(r, id, ss.v, ss.spec.deviant)
			if (k*clients+c)%wsDigestEvery != 0 {
				continue
			}
			snap, err := w.cl[c].Snapshot(ss.ref)
			if err != nil {
				return 0, fmt.Errorf("snapshot %s: %w", id, err)
			}
			want, err := replayDigest(ss.spec, int(snap.Rounds))
			if err != nil {
				return 0, err
			}
			r.check(snap.Digest == want, "%s: /ws digest %s != in-process digest %s after %d rounds", id, snap.Digest, want, snap.Rounds)
		}
	}
	cs.report(r)
	return fouls, nil
}

// replayDigest creates spec on a fresh in-process authority, plays it
// rounds times and returns its state digest.
func replayDigest(spec sessionSpec, rounds int) (string, error) {
	a := ga.NewAuthority()
	defer a.Close()
	h, err := a.CreateFromSpec(spec.req)
	if err != nil {
		return "", fmt.Errorf("replay %s: %w", spec.req.ID, err)
	}
	ctx := context.Background()
	for i := 0; i < rounds; i++ {
		if _, err := h.Play(ctx); err != nil {
			return "", fmt.Errorf("replay %s: %w", spec.req.ID, err)
		}
	}
	return h.Snapshot().Digest, nil
}

func runWSSteady(b *bench) (attempted, failed int64, err error) {
	specs := cheapMix("ws", b.opt.seed, wsSessions, 10)
	var w *wsWorld
	setup, err := b.setups(setupReps, func() error {
		w = &wsWorld{}
		return w.setup(b, specs)
	}, func() { w.teardown() })
	if err != nil {
		return 0, 0, err
	}
	defer w.teardown()
	heap := heapAfterGC()
	step := w.step(b)
	perClient := int64(len(w.sess[0]))
	warm := merge(runPhase(step, forRequests(perClient))) // one pass: every session's lazy state built

	var measured totals
	if !b.opt.trace {
		measured = merge(runPhase(step, forDuration(b.seconds())))
		reportEndToEnd(b.rep, measured, setup, heap)
	} else {
		untraced := merge(runPhase(step, forDuration(b.seconds()/2)))
		obs0, err := readObs()
		if err != nil {
			return 0, 0, err
		}
		c0 := w.cstats.snap()
		var p phase
		spans := b.traced(func() { p = runPhase(step, forDuration(b.seconds()/2)) })
		obs1, err := readObs()
		if err != nil {
			return 0, 0, err
		}
		measured = merge(p)
		cd := w.cstats.snap().sub(c0)
		d := obs1.sub(obs0)
		reportWSLayers(b.rep, w, measured, d, cd, spans)
		b.rep.set("trace.plays_per_s_ratio", ratio(measured.playsPerSecond(), untraced.playsPerSecond()), "ratio",
			fmt.Sprintf("(traced %.0f vs untraced %.0f plays/s)", measured.playsPerSecond(), untraced.playsPerSecond()))
		measured = untraced.add(measured)
	}
	fouls, err := w.check(b.rep)
	if err != nil {
		return 0, 0, err
	}
	all := warm.add(measured)
	if b.opt.trace {
		b.rep.set("audit.fouls_per_1k_plays", perK(float64(fouls), all.plays), "count", "")
		zeroUnreached(b.rep)
	}
	return measured.attempted, measured.failed, nil
}

// reportWSLayers records ws-steady's per-layer metrics from the traced
// phase: client spans, the program's hub and driver histograms, and the
// connection decorators' byte counts.
func reportWSLayers(r *report, w *wsWorld, t totals, d scrape, cd connSnap, spans []span) {
	sum := summarize(append([]int64(nil), t.lat...))
	r.set("hub.client_play_us", sum.mean, "us", fmt.Sprintf("(mean of %d plays)", sum.n))
	rt := d.histMeanUS(histWSRoundTrip, "")
	r.set("hub.server_roundtrip_us", rt, "us", "(server: command decoded to reply queued)")
	var coreSum, coreN float64
	for _, drv := range []string{"pure", "mixed", "rra"} {
		s, n := d.hist(histPlay, driverLabel(drv))
		coreSum, coreN = coreSum+s, coreN+n
		r.set("core.play_us."+drv, ratio(s*1e6, n), "us", fmt.Sprintf("(%.0f plays)", n))
	}
	coreUS := ratio(coreSum*1e6, coreN)
	r.set("hub.wait_us", rt-coreUS, "us", "(server round trip minus driver play)")
	r.set("wire.bytes_per_play", ratio(float64(cd.bytesRead+cd.bytesWritten), float64(t.plays)), "B",
		fmt.Sprintf("(client sent %d, received %d bytes)", cd.bytesWritten, cd.bytesRead))
	r.set("authority.create_us", w.create.snap().meanUS(), "us", "(client-side hub.Client.Create)")
	reportRuntime(r, t)
	reportShares(r, transportTimes(spans, playSpan, rt, coreUS))
}
