package main

import (
	"fmt"
	"strings"
)

// decl declares one metric the command reports, with the unit it carries.
type decl struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run (-trace 0) reports, in
// BENCHMARK.json's order. Every workload reports all of them.
var endToEnd = []decl{
	{"play_p50_us", "us"},
	{"setup_s", "s"},
	{"allocs_per_play", "count"},
	{"heap_mb", "MB"},
}

// committees are the byz-committee committee sizes, as metric suffixes.
var committees = []struct {
	label string
	n, f  int
}{{"n4", 4, 1}, {"n7", 7, 2}, {"n10", 10, 1}}

// shareLayers are the blocking-path segments the traced run attributes a
// request's latency to, in path order. A workload reports the segments on
// its path and 0 for the rest; WORKLOADS.md says which span or histogram
// measures each.
var shareLayers = []string{
	"client.send",
	"conn.client_write",
	"net.to_server",
	"server.frame",
	"server.handler",
	"core.play",
	"store.append",
	"store.snapshot",
	"clocksync",
	"bap.dolev_strong",
	"bap.eig_resolve",
	"core.phase_self",
	"conn.server_write",
	"net.to_client",
	"client.recv",
	"unattributed",
}

// perLayer are the metrics a traced run (-trace 1) reports. Every
// workload reports every one; a layer the workload does not reach reads
// 0, which is itself the prediction that a change to that layer leaves the
// workload flat. WORKLOADS.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	d := []decl{
		{"hub.client_play_us", "us"},
		{"hub.server_roundtrip_us", "us"},
		{"hub.wait_us", "us"},
		{"core.play_us.pure", "us"},
		{"core.play_us.mixed", "us"},
		{"core.play_us.rra", "us"},
		{"wire.bytes_per_play", "B"},
	}
	for _, op := range httpOps {
		d = append(d, decl{"server.client_us." + op, "us"})
	}
	for _, op := range httpOps {
		d = append(d, decl{"server.handler_us." + op, "us"})
	}
	d = append(d,
		decl{"server.bytes_per_request", "B"},
		decl{"authority.create_us", "us"},
		decl{"store.append_us", "us"},
		decl{"store.fsyncs_per_play", "count"},
		decl{"store.snapshot_us", "us"},
		decl{"store.snapshots_per_1k_plays", "count"},
		decl{"store.create_session_us", "us"},
		decl{"store.load_us", "us"},
		decl{"store.wal_bytes_per_play", "B"},
		decl{"durability.playn_us", "us"},
		decl{"durability.journal_us", "us"},
		decl{"durability.replayed_rounds", "count"},
		decl{"durability.restore_us_per_session", "us"},
		decl{"durability.recovery_s", "s"},
	)
	for _, group := range []struct{ prefix, unit string }{
		{"core.dist_play_us.", "us"},
		{"core.messages_per_play.", "count"},
		{"core.pulses_per_play.", "count"},
		{"bap.eig_resolve_us_per_play.", "us"},
		{"bap.dolev_strong_us_per_play.", "us"},
		{"clocksync.us_per_play.", "us"},
		{"core.phase_self_us_per_play.", "us"},
		{"core.allocs_per_play.", "count"},
	} {
		for _, c := range committees {
			d = append(d, decl{group.prefix + c.label, group.unit})
		}
	}
	d = append(d,
		decl{"punish.rounds_to_conviction_mean", "rounds"},
		decl{"audit.fouls_per_1k_plays", "count"},
		decl{"runtime.gc_cycles_per_1k_plays", "count"},
		decl{"runtime.gc_pause_us_per_1k_plays", "us"},
	)
	for _, l := range shareLayers {
		d = append(d, decl{"share." + l, "%"})
	}
	return append(d, decl{"trace.plays_per_s_ratio", "ratio"})
}

// httpOps are the JSON API calls of one http-churn cycle.
var httpOps = []string{"create", "play", "stats", "delete"}

// zeroUnreached records 0 for every per-layer metric the workload did not
// measure: those layers do no work on its path.
func zeroUnreached(r *report) {
	var names []string
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
			names = append(names, d.name)
		}
	}
	fmt.Fprintf(r.w, "not on this workload's path, reported as 0: %s\n", strings.Join(names, " "))
}
