package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	ga "gameauthority"
)

// http-churn: each client cycles through create, 6 plays, stats and
// delete on the JSON HTTP API, next to a resident population created in
// set-up. It is the one workload whose timed phase runs the JSON handlers
// and the registry's create and remove (writes); ws-steady's long-lived
// sessions only look sessions up (reads).
const (
	churnResident = 1000 // sessions hosted through the whole run
	churnPlays    = 6    // plays per churned session
)

// httpRoutes are the server's route patterns for httpOps, in order.
var httpRoutes = []string{"POST /sessions", "POST /sessions/{id}/play", "GET /sessions/{id}", "DELETE /sessions/{id}"}

var opSpans = func() []*string {
	out := make([]*string, len(httpOps))
	for i := range httpOps {
		out[i] = &httpOps[i]
	}
	return out
}()

type httpWorld struct {
	a      *ga.Authority
	lb     *loopback
	hc     [clients]*http.Client
	cycle  [clients]int
	rng    [clients]*rng
	kinds  []string
	cstats connStats
	sstats connStats
	owners connOwners
	ops    [4]opStat // client-side time per httpOps entry
	create opStat    // resident creates in set-up
}

func (w *httpWorld) setup(b *bench, resident []sessionSpec) error {
	w.a = ga.NewAuthority()
	lb, err := startLoopback(ga.NewServer(w.a), &w.sstats, b.tr, &w.owners)
	if err != nil {
		return err
	}
	w.lb = lb
	w.kinds = cheapKinds()[:len(ga.Catalog())] // the pure catalog families
	for c := 0; c < clients; c++ {
		c := c
		dialer := &net.Dialer{}
		w.hc[c] = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				nc, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return newClientConn(nc, c, &w.cstats, b.tr, &w.owners), nil
			},
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
		w.rng[c] = newRNG(b.opt.seed, uint64(100+c))
	}
	return parallel(func(c int) error {
		for i := c; i < len(resident); i += clients {
			body := resident[i].json()
			t0 := time.Now()
			_, err := w.do(c, http.MethodPost, "/sessions", body, http.StatusCreated)
			w.create.add(time.Since(t0))
			if err != nil {
				return fmt.Errorf("create %s: %w", resident[i].req.ID, err)
			}
		}
		return nil
	})
}

func (w *httpWorld) teardown() {
	for _, hc := range w.hc {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
	if w.lb != nil {
		w.lb.close()
	}
	if w.a != nil {
		_ = w.a.Close() // volatile sessions: nothing to flush
	}
}

// do issues one request on client c and returns the response body,
// failing on any status but want.
func (w *httpWorld) do(c int, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.lb.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, bytes.TrimSpace(payload))
	}
	return payload, nil
}

// timed runs one API call as a traced request of kind op (an httpOps
// index), booking its client-side time.
func (w *httpWorld) timed(b *bench, c, op int, method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	id := b.tr.begin(c, opSpans[op])
	t0 := time.Now()
	payload, err := w.do(c, method, path, body, want)
	t1 := time.Now()
	b.tr.end(c, id, t0, t1)
	w.ops[op].add(t1.Sub(t0))
	return payload, t1.Sub(t0), err
}

var playBody = []byte(`{"rounds":1}`)

// step runs one churn cycle: create, 6 plays, stats, delete. Each play is
// one request of the measurement; the other calls are checked and timed
// per operation.
func (w *httpWorld) step(b *bench, r *report) func(c int, s *sampler) {
	return func(c int, s *sampler) {
		rg := w.rng[c]
		spec := cheapSpec(fmt.Sprintf("churn-%d-%d", c, w.cycle[c]), w.kinds[rg.intn(len(w.kinds))], rg.next())
		w.cycle[c]++
		id := spec.req.ID
		if _, _, err := w.timed(b, c, 0, http.MethodPost, "/sessions", spec.json(), http.StatusCreated); err != nil {
			s.record(0, 0, fmt.Errorf("create %s: %w", id, err))
			return
		}
		for i := 0; i < churnPlays; i++ {
			payload, d, err := w.timed(b, c, 1, http.MethodPost, "/sessions/"+id+"/play", playBody, http.StatusOK)
			if err == nil {
				err = checkPlayReply(payload, i)
			}
			s.record(d, 1, err)
		}
		payload, _, err := w.timed(b, c, 2, http.MethodGet, "/sessions/"+id, nil, http.StatusOK)
		if err == nil {
			err = checkStatsReply(payload, churnPlays)
		}
		if err != nil {
			r.fail("stats %s: %v", id, err)
		}
		if _, _, err := w.timed(b, c, 3, http.MethodDelete, "/sessions/"+id, nil, http.StatusNoContent); err != nil {
			r.fail("delete %s: %v", id, err)
		}
	}
}

// checkPlayReply checks one play's JSON reply: exactly the expected round,
// and no conviction (churned sessions are all honest).
func checkPlayReply(payload []byte, round int) error {
	var reply struct {
		Results []struct {
			Round     int   `json:"round"`
			Convicted []int `json:"convicted"`
		} `json:"results"`
	}
	if err := json.Unmarshal(payload, &reply); err != nil {
		return fmt.Errorf("play reply: %w", err)
	}
	if len(reply.Results) != 1 || reply.Results[0].Round != round {
		return fmt.Errorf("play reply %s: want exactly round %d", payload, round)
	}
	if len(reply.Results[0].Convicted) > 0 {
		return fmt.Errorf("honest players %v convicted in round %d", reply.Results[0].Convicted, round)
	}
	return nil
}

// checkStatsReply checks a churned session's stats: every play counted,
// nobody convicted or excluded.
func checkStatsReply(payload []byte, rounds int) error {
	var st struct {
		Rounds      int    `json:"rounds"`
		Convictions int    `json:"convictions"`
		Excluded    []bool `json:"excluded"`
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("stats reply: %w", err)
	}
	if st.Rounds != rounds || st.Convictions != 0 || len(excludedIndices(st.Excluded)) > 0 {
		return fmt.Errorf("stats %s: want %d rounds and no conviction", payload, rounds)
	}
	return nil
}

func runHTTPChurn(b *bench) (attempted, failed int64, err error) {
	resident := cheapMix("resident", b.opt.seed, churnResident, 10)
	var w *httpWorld
	setup, err := b.setups(setupReps, func() error {
		w = &httpWorld{}
		return w.setup(b, resident)
	}, func() { w.teardown() })
	if err != nil {
		return 0, 0, err
	}
	defer w.teardown()
	heap := heapAfterGC()
	step := w.step(b, b.rep)
	runPhase(step, forRequests(20*churnPlays)) // warm-up: 20 cycles per client

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
		var ops0 [4]opSnap
		for i := range ops0 {
			ops0[i] = w.ops[i].snap()
		}
		var p phase
		spans := b.traced(func() { p = runPhase(step, forDuration(b.seconds()/2)) })
		obs1, err := readObs()
		if err != nil {
			return 0, 0, err
		}
		measured = merge(p)
		d := obs1.sub(obs0)
		cd := w.cstats.snap().sub(c0)
		for i, op := range httpOps {
			o := w.ops[i].snap().sub(ops0[i])
			b.rep.set("server.client_us."+op, o.meanUS(), "us", fmt.Sprintf("(%d calls)", o.calls))
		}
		for i, op := range httpOps {
			s, n := d.hist(histHTTP, routeLabel(httpRoutes[i]))
			b.rep.set("server.handler_us."+op, ratio(s*1e6, n), "us", fmt.Sprintf("(%.0f requests)", n))
		}
		requests := cd.writes.calls
		b.rep.set("server.bytes_per_request", ratio(float64(cd.bytesRead+cd.bytesWritten), float64(requests)), "B",
			fmt.Sprintf("(client sent %d, received %d bytes in %d writes)", cd.bytesWritten, cd.bytesRead, cd.writes.calls))
		b.rep.set("authority.create_us", w.create.snap().meanUS(), "us", "(client-side POST /sessions in set-up)")
		var coreSum, coreN float64
		for _, drv := range []string{"pure", "mixed", "rra"} {
			s, n := d.hist(histPlay, driverLabel(drv))
			coreSum, coreN = coreSum+s, coreN+n
			if n > 0 {
				b.rep.set("core.play_us."+drv, ratio(s*1e6, n), "us", fmt.Sprintf("(%.0f plays)", n))
			}
		}
		reportRuntime(b.rep, measured)
		handlerUS := d.histMeanUS(histHTTP, routeLabel(httpRoutes[1]))
		reportShares(b.rep, transportTimes(spans, "play", handlerUS, ratio(coreSum*1e6, coreN)))
		b.rep.set("trace.plays_per_s_ratio", ratio(measured.playsPerSecond(), untraced.playsPerSecond()), "ratio",
			fmt.Sprintf("(traced %.0f vs untraced %.0f plays/s)", measured.playsPerSecond(), untraced.playsPerSecond()))
		measured = untraced.add(measured)
		zeroUnreached(b.rep)
	}
	// The resident population must have survived the churn untouched.
	b.rep.check(w.a.Len() == churnResident, "registry holds %d sessions after churn, want the %d residents", w.a.Len(), churnResident)
	return measured.attempted, measured.failed, nil
}
