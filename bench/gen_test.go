package main

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// texts flattens everything of the inputs that reaches harmonyd.
func texts(in *Inputs) []string {
	out := []string{in.Workload.Resources}
	for _, a := range append(append([]App(nil), in.Residents...), in.Arrivals...) {
		out = append(out, a.Name, a.RSL)
	}
	return out
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := Generate(w, 7), Generate(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		c := Generate(w, 8)
		if reflect.DeepEqual(texts(a), texts(c)) && a.ReaderPhase == c.ReaderPhase {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
		if len(a.Arrivals) != arrivalPool || len(a.Residents) == 0 {
			t.Errorf("%s: %d arrivals, %d residents", w.Name, len(a.Arrivals), len(a.Residents))
		}
	}
}

func TestReplicaSqueezeSharesSqueezeSmallInputs(t *testing.T) {
	small, _ := workloadByName("squeeze-small")
	replica, _ := workloadByName("replica-squeeze")
	a, b := Generate(small, 3), Generate(replica, 3)
	if !reflect.DeepEqual(texts(a), texts(b)) || a.ReaderPhase != b.ReaderPhase {
		t.Error("replica-squeeze inputs differ from squeeze-small's")
	}
}

// harmonyd must see only generated RSL: neither the workload's name nor the
// seed may appear in anything sent to it.
func TestNoWorkloadNameOrSeedReachesHarmonyd(t *testing.T) {
	const seed = 987654321
	for _, w := range workloads {
		for _, text := range texts(Generate(w, seed)) {
			if strings.Contains(text, w.Name) || strings.Contains(text, strconv.Itoa(seed)) {
				t.Fatalf("%s: input leaks the workload name or seed: %.80q", w.Name, text)
			}
		}
	}
}

func TestWorkloadRationalesFitTheContract(t *testing.T) {
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}
