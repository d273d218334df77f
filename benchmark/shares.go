package main

import (
	"fmt"
	"sort"
)

// layerTimes is a request's mean latency split over blocking-path
// segments (shareLayers names), in microseconds per request.
type layerTimes struct {
	requests   int     // requests the split covers
	meanUS     float64 // mean request latency
	segments   map[string]float64
	incomplete int // requests whose span chain was incomplete (all unattributed)
}

// reportShares prints each segment's share of the mean request latency,
// plus the unattributed remainder, and records them as share.* metrics.
// A segment a workload does not reach reads 0.
func reportShares(r *report, lt layerTimes) {
	fmt.Fprintf(r.w, "layer shares of the mean request latency (%.2f us over %d traced requests):\n",
		lt.meanUS, lt.requests)
	attributed := 0.0
	for _, l := range shareLayers {
		if l == "unattributed" {
			continue
		}
		us := lt.segments[l]
		attributed += us
		r.set("share."+l, 100*ratio(us, lt.meanUS), "%", fmt.Sprintf("(%.2f us)", us))
	}
	gap := lt.meanUS - attributed
	note := fmt.Sprintf("(%.2f us; %d requests with an incomplete span chain)", gap, lt.incomplete)
	share := 100 * ratio(gap, lt.meanUS)
	if share > 10 || share < -10 {
		note += " — measured layers miss the request latency by more than 10%"
	}
	r.set("share.unattributed", share, "%", note)
}

// transportTimes splits wire requests (root spans named root) over the
// client → connection → server → connection → client path, using the
// benchmark's own spans: the request span (t0..t7), the client's write
// (t1..t2), the server's read returning the request (t3), the server's
// write of the reply (t4..t5) and the client's read returning it (t6).
// The server interval t3..t4 is split with the program's histograms:
// handlerUS is the server-side handler time (the hub round trip or the
// HTTP route handler) and coreUS the driver's play time inside it.
func transportTimes(spans []span, root string, handlerUS, coreUS float64) layerTimes {
	lt := layerTimes{segments: map[string]float64{}}
	var total, server float64
	complete := 0
	for _, group := range byRequest(spans) {
		var req *span
		for i := range group {
			if group[i].Parent == "" && group[i].Name == root {
				req = &group[i]
			}
		}
		if req == nil {
			continue
		}
		lt.requests++
		total += float64(req.End - req.Start)
		t, ok := wireTimeline(group, req)
		if !ok {
			lt.incomplete++
			continue
		}
		complete++
		lt.segments["client.send"] += float64(t[1] - t[0])
		lt.segments["conn.client_write"] += float64(t[2] - t[1])
		lt.segments["net.to_server"] += float64(t[3] - t[2])
		server += float64(t[4] - t[3])
		lt.segments["conn.server_write"] += float64(t[5] - t[4])
		lt.segments["net.to_client"] += float64(t[6] - t[5])
		lt.segments["client.recv"] += float64(t[7] - t[6])
	}
	if lt.requests == 0 {
		return lt
	}
	n := float64(lt.requests)
	for k, v := range lt.segments {
		lt.segments[k] = v / n / 1e3
	}
	lt.meanUS = total / n / 1e3
	// The server interval of the complete requests, split by the
	// histograms' per-request means (scaled to the complete share).
	c := float64(complete) / n
	serverUS := server / n / 1e3
	lt.segments["core.play"] = c * coreUS
	lt.segments["server.handler"] = c * (handlerUS - coreUS)
	lt.segments["server.frame"] = serverUS - c*handlerUS
	return lt
}

// wireTimeline extracts t0..t7 from one request's spans; ok is false when
// a boundary is missing or out of order.
func wireTimeline(group []span, req *span) (t [8]int64, ok bool) {
	t[0], t[7] = req.Start, req.End
	found := [8]bool{0: true, 7: true}
	for _, s := range group {
		switch s.Name {
		case "conn.client_write":
			if !found[1] && s.Start >= t[0] {
				t[1], t[2], found[1], found[2] = s.Start, s.End, true, true
			}
		case "conn.server_write":
			// The last write carries the end of the reply.
			t[4], t[5], found[4], found[5] = s.Start, s.End, true, true
		case "conn.client_read":
			// The last read returns the end of the reply.
			if s.End <= t[7] {
				t[6], found[6] = s.End, true
			}
		}
	}
	if !found[2] {
		return t, false
	}
	for _, s := range group {
		// The first read after the request left the client delivers it.
		if s.Name == "conn.server_read" && s.End >= t[2] && (!found[3] || s.End < t[3]) {
			t[3], found[3] = s.End, true
		}
	}
	for i := range found {
		if !found[i] || (i > 0 && t[i] < t[i-1]) {
			return t, false
		}
	}
	return t, true
}

// --- Program trace (distributed plays) -----------------------------------------

// traceEvent is one span of the program's own tracer, as ga.WriteTrace
// renders it (Chrome trace_event, microseconds).
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// pulseKinds maps the pulse spans to the share segments they measure.
var pulseKinds = map[string]string{
	"pulse.clock-sync":   "clocksync",
	"pulse.dolev-strong": "bap.dolev_strong",
	"pulse.eig-resolve":  "bap.eig_resolve",
}

// playProfile is the per-play breakdown of traced distributed plays.
type playProfile struct {
	plays int
	// cpuUS is each pulse kind's summed span time per play (processors
	// step in parallel, so this can exceed the play's wall time).
	cpuUS map[string]float64
	// wallUS is each pulse kind's share of the play's wall time per play:
	// where spans overlap, the overlap is split evenly between them.
	wallUS map[string]float64
	// rootUS is the mean root play span; selfUS the part of it no pulse
	// span covers (phase bookkeeping, routing, the driver's own work).
	rootUS, selfUS float64
}

// profilePlays attributes pulse spans to the root "play" spans that
// contain them. Plays must not overlap in time (one client drives them).
func profilePlays(events []traceEvent) (playProfile, error) {
	p := playProfile{cpuUS: map[string]float64{}, wallUS: map[string]float64{}}
	var roots []traceEvent
	for _, e := range events {
		if e.Name == "play" {
			roots = append(roots, e)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].TS < roots[j].TS })
	for i := 1; i < len(roots); i++ {
		if roots[i].TS < roots[i-1].TS+roots[i-1].Dur {
			return p, fmt.Errorf("traced plays overlap; the profile needs one client")
		}
	}
	inside := make([][]traceEvent, len(roots))
	for _, e := range events {
		if _, ok := pulseKinds[e.Name]; !ok {
			continue
		}
		i := sort.Search(len(roots), func(i int) bool { return roots[i].TS > e.TS }) - 1
		if i < 0 || e.TS+e.Dur > roots[i].TS+roots[i].Dur+1e-3 {
			continue // outside every play (a pulse of an untraced play)
		}
		inside[i] = append(inside[i], e)
	}
	p.plays = len(roots)
	if p.plays == 0 {
		return p, fmt.Errorf("no traced plays")
	}
	for i, root := range roots {
		wall := sweep(inside[i])
		covered := 0.0
		for k, v := range wall {
			p.wallUS[k] += v
			covered += v
		}
		for _, e := range inside[i] {
			p.cpuUS[pulseKinds[e.Name]] += e.Dur
		}
		p.rootUS += root.Dur
		p.selfUS += root.Dur - covered
	}
	n := float64(p.plays)
	for k := range p.cpuUS {
		p.cpuUS[k] /= n
	}
	for k := range p.wallUS {
		p.wallUS[k] /= n
	}
	p.rootUS /= n
	p.selfUS /= n
	return p, nil
}

// sweep splits the wall time the spans cover between their kinds: each
// stretch of time goes to the spans active in it, in equal parts.
func sweep(spans []traceEvent) map[string]float64 {
	type edge struct {
		at   float64
		kind string
		open bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		k := pulseKinds[s.Name]
		edges = append(edges, edge{s.TS, k, true}, edge{s.TS + s.Dur, k, false})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open // close before open at a tie
	})
	out := map[string]float64{}
	active := map[string]int{}
	total := 0
	for i, e := range edges {
		if i > 0 && total > 0 {
			d := e.at - edges[i-1].at
			for k, c := range active {
				out[k] += d * float64(c) / float64(total)
			}
		}
		if e.open {
			active[e.kind]++
			total++
		} else {
			active[e.kind]--
			total--
		}
	}
	return out
}
