package main

import "fmt"

// verdicts follows one session's per-play verdicts for the correctness
// checks: the deviant (always player 0) must be convicted; no honest
// player ever may be. A player whose processor is Byzantine (the network
// adversary of byz-committee's drop sessions) is faulty, not honest: the
// authority may convict it.
type verdicts struct {
	plays       int
	firstFoul   int // round of the first reported foul, -1 before
	convictedAt int // round the deviant was first convicted, -1 before
	wrongful    []int
}

func newVerdicts() verdicts { return verdicts{firstFoul: -1, convictedAt: -1} }

// observe books one play's verdict: its round, whether the verdict
// reported any foul, and the players it convicted. faulty is the player
// on a Byzantine processor, or -1.
func (v *verdicts) observe(round int, fouled bool, convicted []int, deviant bool, faulty int) {
	v.plays++
	if fouled && v.firstFoul < 0 {
		v.firstFoul = round
	}
	for _, p := range convicted {
		if deviant && p == 0 {
			if v.convictedAt < 0 {
				v.convictedAt = round
			}
			continue
		}
		if p != faulty {
			v.wrongful = append(v.wrongful, p)
		}
	}
}

// convictionPlays is how many plays a deviant gets before the check that
// it was convicted: every strategy in the rotations is convicted within
// its first few plays. A run too short to reach it (the smoke test, a
// loaded host) tops deviant sessions up after the timed phases.
const convictionPlays = 16

// convictionStats aggregates verdict tracks across sessions.
type convictionStats struct {
	deviants, convicted int
	roundsToConviction  int
}

// checkVerdicts fails the run for a wrongful conviction or an unconvicted
// deviant, and books the deviant's foul-to-conviction distance. Drivers
// that do not report per-play fouls (the distributed driver publishes
// only the convictions) count from the session's first play.
func (cs *convictionStats) checkVerdicts(r *report, id string, v verdicts, deviant string) {
	r.check(len(v.wrongful) == 0, "%s: honest players %v convicted", id, v.wrongful)
	if deviant == "" {
		return
	}
	cs.deviants++
	if v.convictedAt < 0 {
		r.fail("%s: deviant %s was never convicted in %d plays", id, deviant, v.plays)
		return
	}
	cs.convicted++
	from := v.firstFoul
	if from < 0 || from > v.convictedAt {
		from = 0
	}
	cs.roundsToConviction += v.convictedAt - from
}

// checkExcluded fails the run when any player but a convicted deviant or
// a faulty player (-1 for none) is excluded in the session's final stats.
func checkExcluded(r *report, id string, excluded []int, deviant string, faulty int) {
	for _, p := range excluded {
		r.check((deviant != "" && p == 0) || p == faulty, "%s: honest player %d excluded", id, p)
	}
}

// excludedIndices converts a per-player exclusion mask to indices.
func excludedIndices(mask []bool) []int {
	var out []int
	for i, x := range mask {
		if x {
			out = append(out, i)
		}
	}
	return out
}

func (cs *convictionStats) report(r *report) {
	mean := ratio(float64(cs.roundsToConviction), float64(cs.convicted))
	r.set("punish.rounds_to_conviction_mean", mean, "rounds",
		fmt.Sprintf("(%d of %d deviant sessions convicted)", cs.convicted, cs.deviants))
}
