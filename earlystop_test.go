package repro_test

// Black-box tests of the early-stopping gossip family: the exact-equivalence
// contract (gossip-earlystop's bill through the cover round is bit-identical
// to plain gossip's), the strictly-fewer-executed-rounds guarantee CI
// asserts on the smoke graph, and gossip-converge's honestly billed
// termination-detection phase.

import (
	"context"
	"reflect"
	"testing"

	"repro"
)

// countingObserver tallies executed rounds per phase — the probe for "how
// many rounds did the simulator actually run", as opposed to the billed
// rounds a result reports.
type countingObserver struct {
	rounds map[string]int
	phases []repro.PhaseCost
}

func (o *countingObserver) RoundCompleted(phase string, round int, messages int64) {
	o.rounds[phase]++
}

func (o *countingObserver) PhaseCompleted(c repro.PhaseCost) {
	o.phases = append(o.phases, c)
}

func runWithCounter(t *testing.T, scheme string) (*repro.SimulationResult, *countingObserver) {
	t.Helper()
	obs := &countingObserver{rounds: map[string]int{}}
	eng := repro.NewEngine(repro.WithSeed(7), repro.WithObserver(obs))
	res, err := eng.Run(context.Background(), scheme, testGraph(), repro.MaxID(3))
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	return res, obs
}

// TestGossipEarlyStopBillEquivalence is the acceptance-criterion pin: the
// early-stop variant's bill through the cover round — rounds, messages, and
// the per-phase breakdown — matches plain gossip's exactly, and so do the
// outputs.
func TestGossipEarlyStopBillEquivalence(t *testing.T) {
	full, _ := runWithCounter(t, "gossip")
	early, _ := runWithCounter(t, "gossip-earlystop")

	if early.Rounds != full.Rounds {
		t.Fatalf("gossip-earlystop billed %d rounds, gossip %d", early.Rounds, full.Rounds)
	}
	if early.Messages != full.Messages {
		t.Fatalf("gossip-earlystop billed %d messages, gossip %d", early.Messages, full.Messages)
	}
	if len(early.Phases) != 1 || len(full.Phases) != 1 {
		t.Fatalf("phase counts: earlystop %d, gossip %d, want 1 each", len(early.Phases), len(full.Phases))
	}
	if early.Phases[0].Rounds != full.Phases[0].Rounds || early.Phases[0].Messages != full.Phases[0].Messages {
		t.Fatalf("phase bills differ: %+v vs %+v", early.Phases[0], full.Phases[0])
	}
	if !reflect.DeepEqual(early.Outputs, full.Outputs) {
		t.Fatal("gossip-earlystop outputs differ from gossip's")
	}
}

// TestEarlyStopExecutesFewerRounds is the CI assertion: on the smoke graph,
// the early-stop variant executes strictly fewer simulator rounds than the
// fixed schedule (it stops at cover+1; the fixed schedule runs 100·n+1
// rounds). CI runs this by name next to the bench gates.
func TestEarlyStopExecutesFewerRounds(t *testing.T) {
	_, fullObs := runWithCounter(t, "gossip")
	res, earlyObs := runWithCounter(t, "gossip-earlystop")

	fullRounds := fullObs.rounds["gossip"]
	earlyRounds := earlyObs.rounds["gossip(earlystop)"]
	if fullRounds == 0 || earlyRounds == 0 {
		t.Fatalf("observer saw %d full and %d early rounds; expected both nonzero", fullRounds, earlyRounds)
	}
	if earlyRounds >= fullRounds {
		t.Fatalf("early stop executed %d rounds, fixed schedule %d — want strictly fewer", earlyRounds, fullRounds)
	}
	if earlyRounds != res.Rounds+1 {
		t.Fatalf("early stop executed %d rounds for a bill of %d; want exactly cover+1", earlyRounds, res.Rounds)
	}
}

// TestGossipConvergeBillsDetectionSeparately: the distributed-termination
// variant reports the convergecast pass as its own nonzero phase, sums it
// into the totals, and still reproduces direct execution's outputs.
func TestGossipConvergeBillsDetectionSeparately(t *testing.T) {
	res, obs := runWithCounter(t, "gossip-converge")
	gossip, _ := runWithCounter(t, "gossip")

	if len(res.Phases) != 2 {
		t.Fatalf("gossip-converge reported %d phases, want 2: %+v", len(res.Phases), res.Phases)
	}
	gs, detect := res.Phases[0], res.Phases[1]
	if gs.Name != "gossip(earlystop)" || detect.Name != "converge(halt)" {
		t.Fatalf("phase names %q, %q", gs.Name, detect.Name)
	}
	if detect.Rounds <= 0 || detect.Messages <= 0 {
		t.Fatalf("termination detection billed (%d rounds, %d messages); knowing you're done is not free", detect.Rounds, detect.Messages)
	}
	if res.Rounds != gs.Rounds+detect.Rounds || res.Messages != gs.Messages+detect.Messages {
		t.Fatalf("totals (%d, %d) are not the sum of phases %+v", res.Rounds, res.Messages, res.Phases)
	}
	// The gossip stage's bill matches the plain baseline's exactly; the
	// detection phase is the honestly billed premium on top.
	if gs.Rounds != gossip.Rounds || gs.Messages != gossip.Messages {
		t.Fatalf("gossip stage billed (%d, %d), plain gossip (%d, %d)", gs.Rounds, gs.Messages, gossip.Rounds, gossip.Messages)
	}
	if !reflect.DeepEqual(res.Outputs, gossip.Outputs) {
		t.Fatal("gossip-converge outputs differ from gossip's")
	}
	if obs.rounds["converge(halt)"] == 0 {
		t.Fatal("observer saw no detection rounds")
	}
}
