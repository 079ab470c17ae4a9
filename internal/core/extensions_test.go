package core

import (
	"testing"

	"harmony/internal/objective"
)

func TestSetObjectiveRuntime(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	if err := ctrl.SetObjective(nil); err == nil {
		t.Fatal("nil objective accepted")
	}
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	before := ctrl.Objective() // mean = 70
	if err := ctrl.SetObjective(objective.TotalResponseTime); err != nil {
		t.Fatal(err)
	}
	after := ctrl.Objective()
	if before != 70 || after != 70 { // one job: total == mean
		t.Fatalf("objectives = %g, %g", before, after)
	}
	// With two jobs the values diverge: total = 2 * mean.
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	total := ctrl.Objective()
	if err := ctrl.SetObjective(objective.MeanResponseTime); err != nil {
		t.Fatal(err)
	}
	mean := ctrl.Objective()
	if total != 2*mean {
		t.Fatalf("total %g != 2*mean %g", total, mean)
	}
}

func TestPredictOptionPrefersExplicitModel(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	inst, _, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	apps := ctrl.Apps()
	if len(apps) != 1 || apps[0].Instance != inst {
		t.Fatalf("apps = %+v", apps)
	}
	if apps[0].PredictedSeconds != 70 {
		t.Fatalf("prediction = %g, want the explicit model's 70", apps[0].PredictedSeconds)
	}
}
