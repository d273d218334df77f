package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	ga "gameauthority"
)

// durable-batch: sessions on a file store with periodic snapshots, each
// request one 8-play HostedSession.PlayN journaled as one WAL batch
// record. After a fixed count of acknowledged plays the authority is
// dropped without Close (DetachStore, the crash model) and Recover
// rebuilds it from the same store; play then resumes. The durable write
// path dominates — batch encoding, WAL writes, snapshots and compaction —
// and transport and agreement do no work.
//
// The shape keeps fsync off the steady request path, because on a disk
// shared with other tenants an fsync waits out the filesystem's periodic
// journal commit, which stalled every batch for seconds at a time: with
// WithGroupCommit (a syncfs per epoch) the median batch latency moved
// between 1.9 and 3.7 ms across five runs, and with 1,000 sessions the
// store's 128-handle WAL cache fsyncs the handle each append evicts. So
// group commit is off and the session count fits the handle cache: spec
// creation (once per run, before set-up) and snapshots (one batch in 16)
// still fsync.
const (
	durSessions  = 120
	durBatch     = 8
	durQuota     = 2000 // batches per client before the crash: 33 per session
	durMinResume = 2 * time.Second
	// durSnapshotEvery puts two compactions per session before the crash,
	// one in each half of the traced run's pre-crash phase.
	durSnapshotEvery = 128
)

var playnSpan = "playn"

type durSession struct {
	spec  sessionSpec
	h     *ga.HostedSession
	plays int // acknowledged plays
}

type durWorld struct {
	dir  string
	st   *timedStore
	a    *ga.Authority
	sess [clients][]*durSession
	next [clients]int
}

func durableOptions(st ga.Store) []ga.AuthorityOption {
	return []ga.AuthorityOption{ga.WithStore(st), ga.WithSnapshotEvery(durSnapshotEvery)}
}

// createStore journals every session's spec into a fresh file store under
// dir, once per run, client c creating the sessions it will drive. Each
// creation fsyncs three times, so on a shared disk its time is the disk's:
// it is reported per layer (store.create_session_us) but kept out of
// setup_s.
func createStore(dir string, specs []sessionSpec) (create, createSession opSnap, err error) {
	fs, err := ga.NewFileStore(dir)
	if err != nil {
		return create, createSession, err
	}
	var creates opStat
	st := newTimedStore(fs)
	a := ga.NewAuthority(durableOptions(st)...)
	err = parallel(func(c int) error {
		for i := c; i < len(specs); i += clients {
			t0 := time.Now()
			_, err := a.CreateFromSpec(specs[i].req)
			creates.add(time.Since(t0))
			if err != nil {
				return fmt.Errorf("create %s: %w", specs[i].req.ID, err)
			}
		}
		return nil
	})
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	return creates.snap(), st.ops[opCreateSession].snap(), err
}

// setup is durable-batch's set-up: it opens the file store under dir and
// recovers every journaled session onto a fresh authority, the start-up
// of a durable host. owner maps session ids to clients for span
// attribution.
func (w *durWorld) setup(b *bench, dir string, specs []sessionSpec, owner map[string]int) error {
	fs, err := ga.NewFileStore(dir)
	if err != nil {
		return err
	}
	w.st = newTimedStore(fs)
	w.st.observe = func(op int, id string, start, end time.Time) {
		c := owner[id]
		name := "store.append"
		if op == opPutSnapshot {
			name = "store.snapshot"
		}
		b.tr.child(b.tr.inflight(c), c, name, start, end)
	}
	w.a = ga.NewAuthority(durableOptions(w.st)...)
	rep, err := w.a.Recover(context.Background())
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	if len(rep.Failed) > 0 || rep.Sessions != len(specs) {
		return fmt.Errorf("open store: recovered %d of %d sessions (failed: %v)", rep.Sessions, len(specs), rep.Failed)
	}
	for i, spec := range specs {
		h, err := w.a.Get(spec.req.ID)
		if err != nil {
			return err
		}
		c := i % clients
		w.sess[c] = append(w.sess[c], &durSession{spec: spec, h: h})
	}
	return nil
}

func (w *durWorld) teardown() {
	if w.a != nil {
		_ = w.a.Close() // a set-up that is not measured reopens the store; the last one's is discarded
	}
}

func (w *durWorld) step(b *bench) func(c int, s *sampler) {
	ctx := context.Background()
	return func(c int, s *sampler) {
		ss := w.sess[c][w.next[c]]
		w.next[c] = (w.next[c] + 1) % len(w.sess[c])
		id := b.tr.begin(c, &playnSpan)
		t0 := time.Now()
		_, err := ss.h.PlayN(ctx, durBatch, nil)
		t1 := time.Now()
		b.tr.end(c, id, t0, t1)
		if err == nil {
			ss.plays += durBatch
		}
		s.record(t1.Sub(t0), durBatch, err)
	}
}

func (w *durWorld) acked() int {
	n := 0
	for c := range w.sess {
		for _, ss := range w.sess[c] {
			n += ss.plays
		}
	}
	return n
}

// recovery is what one crash-and-recover cycle measured.
type recovery struct {
	report    ga.RecoveryReport
	elapsed   time.Duration // drop to first play acknowledged by the recovered authority
	store     storeSnap     // store calls recovery made
	walBytes  int64         // WAL bytes on disk at the crash
	tailPlays int           // plays in those WALs (past each snapshot)
	restoreUS float64       // mean per-session restore, from the program's histogram
}

// crash drops the authority without closing it, recovers a new one from
// the detached store, checks the recovery and plays one batch on it.
func (w *durWorld) crash(r *report) (recovery, error) {
	ctx := context.Background()
	var rec recovery
	acked := w.acked()
	walBytes, err := walSize(w.dir)
	if err != nil {
		return rec, err
	}
	snaps, err := w.st.Snapshots()
	if err != nil {
		return rec, err
	}
	snapRounds := 0
	for _, s := range snaps {
		snapRounds += s.Rounds
	}
	obs0, err := readObs()
	if err != nil {
		return rec, err
	}
	st0 := w.st.snap()

	t0 := time.Now()
	old := w.a
	st := old.DetachStore()
	next := ga.NewAuthority(durableOptions(st)...)
	report, err := next.Recover(ctx)
	if err != nil {
		_ = next.Close()
		return rec, fmt.Errorf("recover: %w", err)
	}
	w.a = next
	for c := range w.sess {
		for _, ss := range w.sess[c] {
			h, err := next.Get(ss.spec.req.ID)
			if err != nil {
				return rec, fmt.Errorf("session %s lost across the crash: %w", ss.spec.req.ID, err)
			}
			ss.h = h
		}
	}
	first := w.sess[0][w.next[0]]
	w.next[0] = (w.next[0] + 1) % len(w.sess[0])
	if _, err := first.h.PlayN(ctx, durBatch, nil); err != nil {
		return rec, fmt.Errorf("first play after recovery: %w", err)
	}
	first.plays += durBatch
	rec.elapsed = time.Since(t0)
	_ = old.Close() // frees the dropped host's sessions; its store is detached, so it journals nothing

	obs1, err := readObs()
	if err != nil {
		return rec, err
	}
	rec.report = report
	rec.store = w.st.snap().sub(st0)
	rec.walBytes = walBytes
	rec.tailPlays = acked - snapRounds
	rec.restoreUS = obs1.sub(obs0).histMeanUS(histRestore, "")
	r.check(len(report.Failed) == 0, "recovery failed for %d sessions: %v", len(report.Failed), report.Failed)
	r.check(report.Sessions == durSessions, "recovered %d sessions, want %d", report.Sessions, durSessions)
	r.check(report.Rounds == acked, "recovery replayed %d rounds, the clients acknowledged %d plays", report.Rounds, acked)
	return rec, nil
}

// walSize sums the session WAL files under a file store's directory.
func walSize(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "sessions", "*.wal"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// check audits every session's final stats: every acknowledged play is
// counted, deviants are convicted and excluded, nobody else is. It
// returns the fouls reported across all sessions.
func (w *durWorld) check(r *report) int64 {
	var fouls int64
	for c := range w.sess {
		for _, ss := range w.sess[c] {
			id := ss.spec.req.ID
			st := ss.h.Stats()
			fouls += int64(st.Fouls)
			r.check(st.Rounds == ss.plays, "%s: session counts %d rounds, client acknowledged %d", id, st.Rounds, ss.plays)
			excluded := excludedIndices(st.Excluded)
			checkExcluded(r, id, excluded, ss.spec.deviant, -1)
			if ss.spec.deviant != "" {
				r.check(st.Convictions > 0 && len(excluded) == 1,
					"%s: deviant %s not convicted (%d convictions, excluded %v)", id, ss.spec.deviant, st.Convictions, excluded)
			} else {
				r.check(st.Convictions == 0, "%s: %d convictions in an honest session", id, st.Convictions)
			}
		}
	}
	return fouls
}

func runDurableBatch(b *bench) (attempted, failed int64, err error) {
	specs := cheapMix("dur", b.opt.seed, durSessions, 10)
	owner := make(map[string]int, len(specs))
	for i, s := range specs {
		owner[s.req.ID] = i % clients
	}
	dir := filepath.Join(b.opt.data, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	create, createSession, err := createStore(dir, specs)
	if err != nil {
		return 0, 0, err
	}
	var w *durWorld
	setup, err := b.setups(setupReps, func() error {
		w = &durWorld{dir: dir}
		return w.setup(b, dir, specs, owner)
	}, func() { w.teardown() })
	if err != nil {
		return 0, 0, err
	}
	defer w.teardown()
	heap := heapAfterGC()
	step := w.step(b)
	runPhase(step, forRequests(int64(len(w.sess[0])))) // warm-up: one batch per session

	// The crash comes after the same count of acknowledged plays in both
	// modes, so recovery always replays the same volume. The traced run
	// splits the pre-crash phase in two equal halves, untraced then
	// traced, to measure the tracing overhead on the same steady state.
	var measured totals
	if !b.opt.trace {
		a := runPhase(step, forRequests(durQuota))
		rec, err := w.crash(b.rep)
		if err != nil {
			return 0, 0, err
		}
		measured = merge(a, runPhase(step, forDuration(max(b.seconds()-a.wall, durMinResume))))
		reportEndToEnd(b.rep, measured, setup, heap)
		b.rep.set("recovery_s", rec.elapsed.Seconds(), "s", "(drop to first play acknowledged after Recover)")
	} else {
		untraced := merge(runPhase(step, forRequests(durQuota/2)))
		obs0, err := readObs()
		if err != nil {
			return 0, 0, err
		}
		st0 := w.st.snap()
		var p phase
		ga.EnableTracing(0, 1)
		spans := b.traced(func() { p = runPhase(step, forRequests(durQuota-durQuota/2)) })
		ga.DisableTracing()
		obs1, err := readObs()
		if err != nil {
			return 0, 0, err
		}
		traced := merge(p)
		sd := w.st.snap().sub(st0)
		rec, err := w.crash(b.rep)
		if err != nil {
			return 0, 0, err
		}
		resumed := merge(runPhase(step, forDuration(durMinResume)))
		reportDurableLayers(b.rep, traced, obs1.sub(obs0), sd, create, createSession, rec, spans)
		b.rep.set("trace.plays_per_s_ratio", ratio(traced.playsPerSecond(), untraced.playsPerSecond()), "ratio",
			fmt.Sprintf("(traced %.0f vs untraced %.0f plays/s)", traced.playsPerSecond(), untraced.playsPerSecond()))
		measured = untraced.add(traced).add(resumed)
	}
	fouls := w.check(b.rep)
	if b.opt.trace {
		b.rep.set("audit.fouls_per_1k_plays", perK(float64(fouls), int64(w.acked())), "count", "")
		zeroUnreached(b.rep)
	}
	return measured.attempted, measured.failed, nil
}

// reportDurableLayers records durable-batch's per-layer metrics: the
// store decorator's calls and the program's store histograms over the
// traced phase, the recovery cycle, and the blocking-path shares.
func reportDurableLayers(r *report, t totals, d scrape, sd storeSnap, create, createSession opSnap, rec recovery, spans []span) {
	batches := float64(t.attempted)
	app := sd.ops[opAppend]
	snap := sd.ops[opPutSnapshot]
	r.set("store.append_us", app.meanUS(), "us", fmt.Sprintf("(%d appends)", app.calls))
	r.set("store.fsyncs_per_play", ratio(float64(sd.fsyncs), float64(t.plays)), "count",
		fmt.Sprintf("(%d WAL fsyncs)", sd.fsyncs))
	r.set("store.snapshot_us", snap.meanUS(), "us", fmt.Sprintf("(%d snapshots)", snap.calls))
	r.set("store.snapshots_per_1k_plays", perK(float64(snap.calls), t.plays), "count", "")
	r.set("store.create_session_us", createSession.meanUS(), "us", fmt.Sprintf("(%d creates, before set-up)", createSession.calls))
	r.set("authority.create_us", create.meanUS(), "us", "(Authority.CreateFromSpec, before set-up)")
	sum := summarize(append([]int64(nil), t.lat...))
	r.set("durability.playn_us", sum.mean, "us", fmt.Sprintf("(mean of %d PlayN(%d) calls)", sum.n, durBatch))
	r.set("durability.journal_us", sum.mean-ratio(float64(app.ns+snap.ns)/1e3, batches), "us",
		"(PlayN minus the store calls it blocked on, per batch)")

	load := rec.store.ops[opLoadSession]
	r.set("store.load_us", load.meanUS(), "us", fmt.Sprintf("(%d sessions loaded)", load.calls))
	r.set("store.wal_bytes_per_play", ratio(float64(rec.walBytes), float64(rec.tailPlays)), "B",
		fmt.Sprintf("(%d WAL bytes holding %d plays past the snapshots)", rec.walBytes, rec.tailPlays))
	r.set("durability.replayed_rounds", float64(rec.report.Rounds), "count", fmt.Sprintf("(%d sessions)", rec.report.Sessions))
	r.set("durability.restore_us_per_session", rec.restoreUS, "us", "")
	r.set("durability.recovery_s", rec.elapsed.Seconds(), "s", "(drop to first play acknowledged after Recover)")

	var coreSum float64
	for _, drv := range []string{"pure", "mixed", "rra"} {
		s, n := d.hist(histPlay, driverLabel(drv))
		coreSum += s
		r.set("core.play_us."+drv, ratio(s*1e6, n), "us", fmt.Sprintf("(%.0f plays)", n))
	}
	reportRuntime(r, t)
	reportShares(r, durableTimes(spans, ratio(coreSum*1e6, batches)))
}

// durableTimes splits PlayN requests into the store calls they blocked on
// (the decorator's spans) and the driver plays (the program's histogram,
// per batch); the rest — journaling inside the authority — stays
// unattributed because nothing measures it separately.
func durableTimes(spans []span, coreUSPerBatch float64) layerTimes {
	lt := layerTimes{segments: map[string]float64{}}
	var total float64
	for _, s := range spans {
		switch {
		case s.Parent == "" && s.Name == playnSpan:
			lt.requests++
			total += float64(s.End - s.Start)
		case s.Name == "store.append":
			lt.segments["store.append"] += float64(s.End - s.Start)
		case s.Name == "store.snapshot":
			lt.segments["store.snapshot"] += float64(s.End - s.Start)
		}
	}
	if lt.requests == 0 {
		return lt
	}
	n := float64(lt.requests)
	for k, v := range lt.segments {
		lt.segments[k] = v / n / 1e3
	}
	lt.meanUS = total / n / 1e3
	lt.segments["core.play"] = coreUSPerBatch
	return lt
}
