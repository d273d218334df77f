package ssba

import (
	"errors"
	"fmt"
	"testing"

	"gameauthority/internal/bap"
	"gameauthority/internal/prng"
	"gameauthority/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 1, 8, 1, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil propose: err = %v", err)
	}
	if _, err := New(0, 4, 1, 2, 1, func(int) bap.Value { return "v" }); !errors.Is(err, ErrConfig) {
		t.Fatalf("tiny modulus: err = %v", err)
	}
	if _, err := New(0, 3, 1, 0, 1, func(int) bap.Value { return "v" }); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=3f: err = %v", err)
	}
	p, err := New(0, 4, 1, 0, 1, func(int) bap.Value { return "v" })
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != MinModulus(1) {
		t.Fatalf("default modulus = %d, want %d", p.M(), MinModulus(1))
	}
}

func constPropose(v string) func(id, pulse int) bap.Value {
	return func(id, pulse int) bap.Value { return bap.Value(v) }
}

func TestTheorem1CleanStartProducesAlignedAgreements(t *testing.T) {
	h, err := NewHarness(4, 1, 0, 11, constPropose("motion"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Clean start: clocks are synchronized at 0, so periods come every M
	// pulses. Run long enough for several agreements.
	h.Net.Run(10 * h.Procs[0].M())
	if len(h.Procs[0].Decisions()) < 5 {
		t.Fatalf("only %d agreements over 10 periods", len(h.Procs[0].Decisions()))
	}
	if v := h.CheckDecisions(5); len(v) != 0 {
		t.Fatalf("violations on clean start: %+v", v)
	}
	// Validity: all honest proposed "motion", so decisions must be it.
	for _, d := range h.Procs[0].Decisions() {
		if d.Value != "motion" {
			t.Fatalf("validity violated: decided %q", d.Value)
		}
	}
}

func TestTheorem1ExactlyOneAgreementPerPeriod(t *testing.T) {
	// Lemma 3: during M pulses there is exactly one agreement.
	h, err := NewHarness(4, 1, 0, 12, constPropose("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := h.Procs[0].M()
	h.Net.Run(3 * m) // warm up
	before := len(h.Procs[0].Decisions())
	h.Net.Run(5 * m)
	after := len(h.Procs[0].Decisions())
	if got := after - before; got != 5 {
		t.Fatalf("agreements in 5 periods = %d, want exactly 5", got)
	}
}

func TestLemma2ConvergenceFromArbitraryConfigurations(t *testing.T) {
	for trial := uint64(0); trial < 6; trial++ {
		h, err := NewHarness(4, 1, 0, 100+trial, constPropose("v"), nil)
		if err != nil {
			t.Fatal(err)
		}
		ent := prng.New(3000 + trial)
		pulses := h.ConvergencePulses(ent.Uint64, 2, 20000)
		if pulses > 20000 {
			t.Fatalf("trial %d: no convergence", trial)
		}
	}
}

func TestLemma3ClosureLongRun(t *testing.T) {
	// After convergence, a long execution must show zero violations and
	// exactly one agreement per period.
	h, err := NewHarness(4, 1, 0, 55, constPropose("steady"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ent := prng.New(77)
	if p := h.ConvergencePulses(ent.Uint64, 2, 20000); p > 20000 {
		t.Fatal("no convergence")
	}
	m := h.Procs[0].M()
	before := len(h.Procs[0].Decisions())
	h.Net.Run(50 * m)
	if v := h.CheckDecisions(40); len(v) != 0 {
		t.Fatalf("closure violations: %+v", v)
	}
	got := len(h.Procs[0].Decisions()) - before
	if got != 50 {
		t.Fatalf("agreements over 50 periods = %d, want 50", got)
	}
}

func TestSSBAWithByzantineEquivocator(t *testing.T) {
	// A Byzantine processor equivocates on both clock votes and BA pairs.
	evil := prng.New(5)
	byz := map[int]sim.Adversary{3: sim.EquivocateAdversary(func(to int, payload any) any {
		msg, ok := payload.(Msg)
		if !ok {
			return payload
		}
		msg.Tick = int(evil.Uint64() % 8)
		forged := make([]bap.Pair, len(msg.Pairs))
		for i, pr := range msg.Pairs {
			forged[i] = bap.Pair{Node: pr.Node, Val: bap.Value(fmt.Sprintf("evil%d", to))}
		}
		msg.Pairs = forged
		return msg
	})}
	h, err := NewHarness(4, 1, 0, 66, constPropose("good"), byz)
	if err != nil {
		t.Fatal(err)
	}
	ent := prng.New(99)
	if p := h.ConvergencePulses(ent.Uint64, 2, 100000); p > 100000 {
		t.Fatal("no convergence under equivocation")
	}
	h.Net.Run(20 * h.Procs[0].M())
	if v := h.CheckDecisions(15); len(v) != 0 {
		t.Fatalf("violations with equivocator: %+v", v)
	}
	// Validity among honest: all proposed "good".
	dec := h.Procs[0].Decisions()
	for _, d := range dec[len(dec)-10:] {
		if d.Value != "good" {
			t.Fatalf("validity violated under equivocation: %q", d.Value)
		}
	}
}

func TestSSBASevenProcsTwoByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence; skipped in -short")
	}
	evil := prng.New(8)
	byz := map[int]sim.Adversary{
		5: sim.SilentAdversary(),
		6: sim.EquivocateAdversary(func(to int, payload any) any {
			msg, ok := payload.(Msg)
			if !ok {
				return payload
			}
			msg.Tick = int(evil.Uint64() % 16)
			return msg
		}),
	}
	h, err := NewHarness(7, 2, 0, 13, constPropose("seven"), byz)
	if err != nil {
		t.Fatal(err)
	}
	ent := prng.New(21)
	if p := h.ConvergencePulses(ent.Uint64, 2, 300000); p > 300000 {
		t.Fatal("n=7 f=2: no convergence")
	}
	h.Net.Run(10 * h.Procs[0].M())
	if v := h.CheckDecisions(8); len(v) != 0 {
		t.Fatalf("violations: %+v", v)
	}
}

func TestDecisionLogIsolation(t *testing.T) {
	p, err := New(0, 4, 1, 0, 9, func(int) bap.Value { return "v" })
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decisions()
	d = append(d, Decision{Pulse: 1, Value: "x"})
	if len(p.Decisions()) != 0 {
		t.Fatal("Decisions() exposes internal slice")
	}
}

func TestCorruptDoesNotPanicAndRecovers(t *testing.T) {
	h, err := NewHarness(4, 1, 0, 14, constPropose("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ent := prng.New(123)
	// Corrupt repeatedly mid-run; system must keep recovering.
	for burst := 0; burst < 3; burst++ {
		h.Net.Corrupt(ent.Uint64)
		h.Net.Run(500)
	}
	if p := h.ConvergencePulses(ent.Uint64, 2, 50000); p > 50000 {
		t.Fatal("failed to recover after repeated corruption")
	}
}
