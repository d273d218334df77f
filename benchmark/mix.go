package main

import (
	"encoding/json"
	"fmt"

	ga "gameauthority"
)

// rng is SplitMix64: every input the benchmark generates derives from the
// -seed argument through it, so one seed always yields one input set.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0x9e3779b97f4a7c15)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// historyLimit bounds every session's retained history, so thousands of
// long-lived sessions hold a flat footprint (the digests cover the
// retained window, on every transport alike).
const historyLimit = 8

// Deviant rotations, by driver: the deviation strategies that are fouls
// on every game the driver hosts here, so the judicial service must catch
// and convict each one. (Playing a best response is not a foul, so e.g.
// always-defect is legitimate play in the prisoner's dilemma; the
// deviation matrix test covers those cells.)
var deviantRotation = map[string][]string{
	"pure":        {"commitment-cheat", "freerider"},
	"mixed":       {"always-defect", "best-response-liar", "commitment-cheat", "distribution-skewer", "freerider"},
	"rra":         {"always-defect", "best-response-liar", "commitment-cheat", "distribution-skewer", "freerider"},
	"distributed": {"always-defect", "commitment-cheat", "freerider"},
}

// sessionSpec is one generated session: its wire spec and what the
// correctness checks need to know about it.
type sessionSpec struct {
	req     ga.CreateSessionRequest
	driver  string // pure | mixed | rra | distributed
	deviant string // deviation strategy of player 0, "" when honest
}

func (s sessionSpec) json() []byte {
	b, err := json.Marshal(s.req)
	if err != nil {
		panic(err) // a CreateSessionRequest always marshals
	}
	return b
}

// cheapKinds are the session kinds on the cheap drivers: every pure
// catalog family, mixed matching pennies and the §6 resource allocation
// game.
func cheapKinds() []string {
	var kinds []string
	for _, e := range ga.Catalog() {
		kinds = append(kinds, e.Name)
	}
	return append(kinds, "mixed-pennies", "rra")
}

// cheapSpec builds the wire spec of one cheap-driver session.
func cheapSpec(id, kind string, seed uint64) sessionSpec {
	req := ga.CreateSessionRequest{ID: id, Seed: seed, HistoryLimit: historyLimit}
	switch kind {
	case "mixed-pennies":
		req.Game, req.Kind, req.Audit = "matchingpennies", "mixed", "per-round"
		return sessionSpec{req: req, driver: "mixed"}
	case "rra":
		req.RRA = &struct {
			Agents    int `json:"agents"`
			Resources int `json:"resources"`
		}{Agents: 8, Resources: 4}
		req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
		return sessionSpec{req: req, driver: "rra"}
	default:
		req.Game, req.Players = kind, 4
		return sessionSpec{req: req, driver: "pure"}
	}
}

// withDeviant makes player 0 of s run strategy, under the paper's
// one-strike disconnection scheme when the spec names no scheme.
func withDeviant(s sessionSpec, strategy string) sessionSpec {
	s.deviant = strategy
	s.req.Deviant = &ga.DeviantSpec{Player: 0, Strategy: strategy}
	if s.req.Punishment == nil {
		s.req.Punishment = &ga.PunishmentSpec{Scheme: "disconnect"}
	}
	return s
}

// cheapMix generates count cheap-driver sessions from seed. The
// composition is the same for every seed — each kind an equal share, one
// session of each kind in deviantEvery carrying a deviant whose strategy
// rotates through its driver's rotation — and the seed shuffles which
// session gets what and seeds every session's own randomness. (Drawing
// kinds at random would make the mix, and with it throughput and heap,
// depend on the seed.)
func cheapMix(prefix string, seed uint64, count, deviantEvery int) []sessionSpec {
	r := newRNG(seed, 1)
	kinds := cheapKinds()
	order := make([]int, count)
	for i := range order {
		order[i] = i
	}
	shuffle(r, order)
	ordinal := map[string]int{}
	out := make([]sessionSpec, count)
	for i, slot := range order {
		s := cheapSpec(fmt.Sprintf("%s-%d", prefix, slot), kinds[i%len(kinds)], r.next())
		if (i/len(kinds))%deviantEvery == 0 {
			rot := deviantRotation[s.driver]
			s = withDeviant(s, rot[ordinal[s.driver]%len(rot)])
			ordinal[s.driver]++
		}
		out[slot] = s
	}
	return out
}

// shuffle permutes xs with the Fisher–Yates shuffle driven by r.
func shuffle(r *rng, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
