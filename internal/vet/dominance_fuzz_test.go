package vet_test

import (
	"testing"

	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// pickFromBytes maps raw fuzz bytes onto the generator pools, so the
// fuzzer explores the same option space as TestDominanceSoundness but
// steers the coordinates itself.
func pickFromBytes(mem, rep, sec, fric, model, alts, flags uint8) optPick {
	return optPick{
		mem:    int(mem) % len(genMemory),
		rep:    int(rep) % len(genReplicate),
		sec:    int(sec) % len(genSeconds),
		fric:   int(fric) % len(genFriction),
		model:  int(model) % len(genModels),
		memAlt: int(alts) & 3, repAlt: int(alts>>2) & 3,
		secAlt: int(alts>>4) & 3, fricAlt: int(alts>>6) & 3,
		exclusive: flags&1 != 0,
		opMin:     flags&2 != 0,
	}
}

// FuzzDominance fuzzes the relational dominance prover against the
// concrete refuter: for any two generated options, every claimed
// domination must survive enumeration of the full variable domain.
func FuzzDominance(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0),
		uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint8(4), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(1), uint8(3), uint8(1), uint8(0), uint8(3),
		uint8(1), uint8(3), uint8(1), uint8(3), uint8(2), uint8(9), uint8(1))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(2), uint8(0), uint8(5), uint8(255), uint8(2),
		uint8(3), uint8(4), uint8(2), uint8(0), uint8(5), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, dom,
		m1, r1, s1, f1, p1, a1, g1,
		m2, r2, s2, f2, p2, a2, g2 uint8) {
		domain := genDomains[int(dom)%len(genDomains)]
		pi := pickFromBytes(m1, r1, s1, f1, p1, a1, g1)
		pj := pickFromBytes(m2, r2, s2, f2, p2, a2, g2)
		b := &rsl.BundleSpec{
			App: "fuzz", Name: "b",
			Options: []rsl.OptionSpec{
				buildOption("first", domain, pi),
				buildOption("second", domain, pj),
			},
		}
		for _, d := range vet.NewBundle(b).Dominance() {
			oi, oj := &b.Options[d.By], &b.Options[d.Dominated]
			for _, n := range domain {
				if err := refute(oi, oj, n); err != nil {
					t.Fatalf("unsound %s claim (%s dominates %s): %v", d.Rule, oi.Name, oj.Name, err)
				}
			}
		}
	})
}
