package gameauthority_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ga "gameauthority"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, decoded
}

// TestServerHostsConcurrentSessions drives the HTTP/JSON API end to end:
// two independent sessions created over HTTP, played concurrently, with a
// live event stream on one of them.
func TestServerHostsConcurrentSessions(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "alpha", Game: "prisonersdilemma", Seed: 1,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create alpha: %d %v", resp.StatusCode, body)
	}
	if body["kind"] != "pure" {
		t.Fatalf("alpha kind = %v", body["kind"])
	}
	resp, body = postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "beta", Game: "matchingpennies", Audit: "per-round", Seed: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create beta: %d %v", resp.StatusCode, body)
	}
	if body["kind"] != "mixed" {
		t.Fatalf("beta kind = %v", body["kind"])
	}

	// Subscribe to beta's event stream before playing.
	events, err := http.Get(srv.URL + "/sessions/beta/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	lines := make(chan string, 64)
	go func() {
		scanner := bufio.NewScanner(events.Body)
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()
	// The handler announces the subscription before any event flows.
	select {
	case line := <-lines:
		if !strings.HasPrefix(line, ": subscribed") {
			t.Fatalf("first stream line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event stream never opened")
	}

	// Play both sessions concurrently.
	const rounds = 10
	var wg sync.WaitGroup
	for _, id := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, body := postJSON(t, fmt.Sprintf("%s/sessions/%s/play", srv.URL, id),
				map[string]int{"rounds": rounds})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("play %s: %d %v", id, resp.StatusCode, body)
				return
			}
			results, ok := body["results"].([]any)
			if !ok || len(results) != rounds {
				t.Errorf("play %s returned %d results", id, len(results))
			}
		}(id)
	}
	wg.Wait()

	// The stream must deliver beta's play events.
	deadline := time.After(5 * time.Second)
	got := 0
	for got < rounds {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatalf("stream closed after %d events", got)
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e struct {
				Kind  string `json:"kind"`
				Round int    `json:"round"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			if e.Kind == "play" {
				got++
			}
		case <-deadline:
			t.Fatalf("only %d play events arrived", got)
		}
	}

	// Stats and listing reflect both sessions.
	statsResp, err := http.Get(srv.URL + "/sessions/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Rounds  int `json:"rounds"`
		Players int `json:"players"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Rounds != rounds || stats.Players != 2 {
		t.Fatalf("alpha stats = %+v", stats)
	}

	listResp, err := http.Get(srv.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("session list = %v", list)
	}

	// Delete alpha; it disappears from the registry.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete alpha: %d", delResp.StatusCode)
	}
	gone, err := http.Get(srv.URL + "/sessions/alpha")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still served: %d", gone.StatusCode)
	}
}

// TestOversizedDistributedShapeRejected pins the agreement-state budget:
// n=16/f=5 passes the request caps (n ≤ 64, n > 3f), but its EIG state
// would take tens of gigabytes, so both entry points must refuse it with
// ErrConfig before building anything, and quickly.
func TestOversizedDistributedShapeRejected(t *testing.T) {
	g, err := ga.PublicGoods(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ga.New(g, ga.WithDistributed(16, 5, nil)); !errors.Is(err, ga.ErrConfig) {
		t.Fatalf("New(n=16, f=5) = %v, want ErrConfig", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("New took %v to reject the shape", d)
	}

	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()
	start = time.Now()
	resp, err := http.Post(srv.URL+"/sessions", "application/json", strings.NewReader(
		`{"kind":"distributed","game":"publicgoods","players":16,"distributed":{"n":16,"f":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "agreement-state budget") {
		t.Fatalf("POST /sessions n=16 f=5: %d %s, want 400 naming the budget", resp.StatusCode, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("POST /sessions took %v to reject the shape", d)
	}
}

// TestServerCreateValidation exercises the HTTP error paths.
func TestServerCreateValidation(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()

	cases := []struct {
		name   string
		req    ga.CreateSessionRequest
		status int
	}{
		{"unknown game", ga.CreateSessionRequest{Game: "chess"}, http.StatusBadRequest},
		{"unknown kind", ga.CreateSessionRequest{Game: "coordination", Kind: "quantum"}, http.StatusBadRequest},
		{"unknown audit", ga.CreateSessionRequest{Game: "matchingpennies", Audit: "psychic"}, http.StatusBadRequest},
		{"rra without spec", ga.CreateSessionRequest{Kind: "rra"}, http.StatusBadRequest},
		{"distributed without spec", ga.CreateSessionRequest{Kind: "distributed"}, http.StatusBadRequest},
		{"distributed n<=3f", ga.CreateSessionRequest{
			Game: "publicgoods", Players: 4,
			Distributed: &struct {
				N int `json:"n"`
				F int `json:"f"`
			}{N: 4, F: 2},
		}, http.StatusBadRequest},
		{"unknown punishment", ga.CreateSessionRequest{
			Game: "coordination", Punishment: &ga.PunishmentSpec{Scheme: "exile"},
		}, http.StatusBadRequest},
		{"unroutable id", ga.CreateSessionRequest{
			ID: "a/b", Game: "coordination",
		}, http.StatusBadRequest},
		{"dot-dot id", ga.CreateSessionRequest{
			ID: "..", Game: "coordination",
		}, http.StatusBadRequest},
		{"audit on an explicitly pure session", ga.CreateSessionRequest{
			Kind: "pure", Game: "prisonersdilemma", Audit: "per-round",
		}, http.StatusBadRequest},
		{"rra object on a distributed session", ga.CreateSessionRequest{
			Game: "publicgoods", Players: 4,
			Distributed: &struct {
				N int `json:"n"`
				F int `json:"f"`
			}{N: 4, F: 1},
			RRA: &struct {
				Agents    int `json:"agents"`
				Resources int `json:"resources"`
			}{Agents: 4, Resources: 2},
		}, http.StatusBadRequest},
		{"pulse budget on a pure session", ga.CreateSessionRequest{
			Game: "coordination", PulseBudget: 50,
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+"/sessions", tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d (%v), want %d", resp.StatusCode, body, tc.status)
			}
		})
	}

	// Duplicate IDs conflict.
	if resp, _ := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "dup", Game: "coordination"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{ID: "dup", Game: "coordination"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d", resp.StatusCode)
	}

	// An RRA session created over HTTP plays rounds.
	resp, _ := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "rra", Kind: "rra", Seed: 5,
		Punishment: &ga.PunishmentSpec{Scheme: "disconnect"},
		RRA: &struct {
			Agents    int `json:"agents"`
			Resources int `json:"resources"`
		}{Agents: 6, Resources: 3},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create rra: %d", resp.StatusCode)
	}
	playResp, body := postJSON(t, srv.URL+"/sessions/rra/play", map[string]int{"rounds": 5})
	if playResp.StatusCode != http.StatusOK {
		t.Fatalf("play rra: %d %v", playResp.StatusCode, body)
	}

	// A still-converging distributed session reports 503 (retryable), not
	// a server error.
	resp, _ = postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "slow", Game: "publicgoods", Players: 4,
		Distributed: &struct {
			N int `json:"n"`
			F int `json:"f"`
		}{N: 4, F: 1},
		PulseBudget: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create slow: %d", resp.StatusCode)
	}
	budgetResp, body := postJSON(t, srv.URL+"/sessions/slow/play", map[string]int{"rounds": 1})
	if budgetResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pulse-budget play: %d %v, want 503", budgetResp.StatusCode, body)
	}
}

// TestServerSSEUnaffectedByHistoryEviction creates a history-bounded
// session over HTTP and verifies the SSE stream still delivers every
// play — including plays already evicted from the ring by the time the
// batch finishes — with intact payloads.
func TestServerSSEUnaffectedByHistoryEviction(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "ring", Game: "prisonersdilemma", Seed: 4, HistoryLimit: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}

	events, err := http.Get(srv.URL + "/sessions/ring/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	lines := make(chan string, 64)
	go func() {
		scanner := bufio.NewScanner(events.Body)
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()
	select {
	case line := <-lines:
		if !strings.HasPrefix(line, ": subscribed") {
			t.Fatalf("first stream line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event stream never opened")
	}

	const rounds = 9 // far past the 2-slot ring
	resp, body = postJSON(t, srv.URL+"/sessions/ring/play", map[string]int{"rounds": rounds})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("play: %d %v", resp.StatusCode, body)
	}

	seen := make(map[int]bool)
	deadline := time.After(5 * time.Second)
	for len(seen) < rounds {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatalf("stream closed after %d events", len(seen))
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e struct {
				Kind    string `json:"kind"`
				Round   int    `json:"round"`
				Outcome []int  `json:"outcome"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			if e.Kind != "play" {
				continue
			}
			if seen[e.Round] {
				t.Fatalf("round %d delivered twice", e.Round)
			}
			if len(e.Outcome) != 2 {
				t.Fatalf("round %d event lost its outcome: %+v", e.Round, e)
			}
			seen[e.Round] = true
		case <-deadline:
			t.Fatalf("only %d/%d play events arrived (eviction must not drop SSE deliveries)", len(seen), rounds)
		}
	}
	for r := 0; r < rounds; r++ {
		if !seen[r] {
			t.Fatalf("round %d never delivered", r)
		}
	}
}

// TestServerPlayResultsSurviveEvictionInBatch pins the fix for batched
// /play responses on history-bounded sessions: every round in the
// response must carry its own play's data even after its ring slot was
// reused by a later round in the same request.
func TestServerPlayResultsSurviveEvictionInBatch(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()

	mk := func(id string, historyLimit int) []any {
		req := ga.CreateSessionRequest{ID: id, Game: "prisonersdilemma", Seed: 6, HistoryLimit: historyLimit}
		resp, body := postJSON(t, srv.URL+"/sessions", req)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %v", id, resp.StatusCode, body)
		}
		resp, body = postJSON(t, srv.URL+"/sessions/"+id+"/play", map[string]int{"rounds": 6})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("play %s: %d %v", id, resp.StatusCode, body)
		}
		results, ok := body["results"].([]any)
		if !ok || len(results) != 6 {
			t.Fatalf("play %s returned %d results", id, len(results))
		}
		return results
	}
	bounded := mk("bounded", 2)
	unbounded := mk("unbounded", 0)
	for i := range bounded {
		b, u := bounded[i].(map[string]any), unbounded[i].(map[string]any)
		if fmt.Sprint(b["outcome"]) != fmt.Sprint(u["outcome"]) || fmt.Sprint(b["costs"]) != fmt.Sprint(u["costs"]) {
			t.Fatalf("round %d diverges under eviction: bounded %v/%v, unbounded %v/%v",
				i, b["outcome"], b["costs"], u["outcome"], u["costs"])
		}
	}
}

// TestServerRejectsNegativePulseWorkers pins the 400 on malformed
// pulse_workers instead of a silent coercion to the auto engine.
func TestServerRejectsNegativePulseWorkers(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/sessions", ga.CreateSessionRequest{
		ID: "neg", Game: "publicgoods", Players: 4,
		Distributed: &struct {
			N int `json:"n"`
			F int `json:"f"`
		}{N: 4, F: 1},
		PulseWorkers: -4,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative pulse_workers: %d %v, want 400", resp.StatusCode, body)
	}
}

// TestServerResolvesCatalogGames pins the POST /sessions fallback onto
// the scenario catalog: every registry name creates a playable session at
// the requested (canonicalized) size, and unknown names still 400.
func TestServerResolvesCatalogGames(t *testing.T) {
	srv := httptest.NewServer(ga.NewServer(ga.NewAuthority()))
	defer srv.Close()

	for _, e := range ga.Catalog() {
		resp, created := postJSON(t, srv.URL+"/sessions", map[string]any{
			"id": "cat-" + e.Name, "game": e.Name, "players": 5, "seed": 3,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: create status %d (%v)", e.Name, resp.StatusCode, created)
		}
		if got, want := created["players"].(float64), float64(e.Players(5)); got != want {
			t.Fatalf("%s: players = %v, want canonicalized %v", e.Name, got, want)
		}
		resp, played := postJSON(t, srv.URL+"/sessions/cat-"+e.Name+"/play", map[string]any{"rounds": 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: play status %d (%v)", e.Name, resp.StatusCode, played)
		}
		if results := played["results"].([]any); len(results) != 2 {
			t.Fatalf("%s: played %d rounds, want 2", e.Name, len(results))
		}
	}

	// The canonicalizer, not an error, handles sizes a family cannot play
	// at: an even minority request rounds up exactly as in-process.
	resp, created := postJSON(t, srv.URL+"/sessions", map[string]any{
		"id": "odd", "game": "minority", "players": 4,
	})
	if resp.StatusCode != http.StatusCreated || created["players"].(float64) != 5 {
		t.Fatalf("minority players=4: status %d players %v, want 201 with 5", resp.StatusCode, created["players"])
	}

	resp, _ = postJSON(t, srv.URL+"/sessions", map[string]any{"game": "not-a-game"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown game: status %d, want 400", resp.StatusCode)
	}
}
