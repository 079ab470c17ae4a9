package core

import "testing"

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
