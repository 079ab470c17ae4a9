package rsl

import (
	"fmt"
	"math"
	"testing"
)

// choiceBundle builds a bundle from a compact description: for each option,
// the sizes of its variables' domains and whether its one node spec's memory
// tag is a minimum. A minimum reads the option's first variable, and fails
// to evaluate where that variable is 2.
func choiceBundle(opts [][]int, ladder []bool) *BundleSpec {
	b := &BundleSpec{App: "T", Name: "b"}
	for i, sizes := range opts {
		opt := OptionSpec{Name: fmt.Sprintf("o%d", i)}
		for k, n := range sizes {
			vs := VariableSpec{Name: fmt.Sprintf("v%d", k)}
			for x := 1; x <= n; x++ {
				vs.Values = append(vs.Values, float64(x))
			}
			opt.Variables = append(opt.Variables, vs)
		}
		mem := TagValue{Op: OpExact, Expr: MustParseExpr("8")}
		if ladder[i] {
			mem = TagValue{Op: OpMin, Expr: MustParseExpr("16")}
			if len(sizes) > 0 {
				mem.Expr = MustParseExpr("16 / (v0 - 2)")
			}
		}
		opt.Nodes = []NodeSpec{{LocalName: "n", HostPattern: "*", Tags: map[string]TagValue{"memory": mem}}}
		b.Options = append(b.Options, opt)
	}
	return b
}

// checkChoiceCount holds ChoiceCount to Choices: under the cap the count is
// the enumeration's length, option by option and for the bundle; above it
// nothing is enumerated, and nothing is allocated trying.
func checkChoiceCount(t *testing.T, b *BundleSpec) {
	t.Helper()
	count := b.ChoiceCount()
	sum := 0
	for i := range b.Options {
		opt := &b.Options[i]
		n := opt.ChoiceCount()
		sum = satAdd(sum, n)
		if n <= MaxChoices && len(opt.Choices()) != n {
			t.Fatalf("option %s counts %d choices and enumerates %d", opt.Name, n, len(opt.Choices()))
		}
	}
	if sum != count {
		t.Fatalf("bundle counts %d, its options %d", count, sum)
	}
	if count <= MaxChoices {
		if got := len(b.Choices()); got != count || b.CheckChoices() != nil {
			t.Fatalf("bundle counts %d choices and enumerates %d (check: %v)", count, got, b.CheckChoices())
		}
		return
	}
	if b.Choices() != nil || b.CheckChoices() == nil {
		t.Fatalf("bundle over the cap (%d) enumerated or passed the check", count)
	}
	if allocs := testing.AllocsPerRun(1, func() { _ = b.Choices() }); allocs != 0 {
		t.Fatalf("refusing %d choices allocated %v times", count, allocs)
	}
}

func TestChoiceCount(t *testing.T) {
	cases := []struct {
		opts   [][]int
		ladder []bool
		want   int
	}{
		{[][]int{{}}, []bool{false}, 1},
		{[][]int{{}}, []bool{true}, len(GrantSteps)},
		{[][]int{{3, 4}, {2}}, []bool{false, true}, 12 + 2*len(GrantSteps)},
		{[][]int{{0, 5}}, []bool{true}, 0},
		{[][]int{{4096}}, []bool{false}, MaxChoices},
		{[][]int{{1024}}, []bool{true}, MaxChoices},
		{[][]int{{4097}}, []bool{false}, MaxChoices + 1},
		{[][]int{{100, 100, 100, 100}}, []bool{false}, 100_000_000},
	}
	for _, tc := range cases {
		b := choiceBundle(tc.opts, tc.ladder)
		if got := b.ChoiceCount(); got != tc.want {
			t.Errorf("%v ladder %v: %d choices, want %d", tc.opts, tc.ladder, got, tc.want)
		}
		checkChoiceCount(t, b)
	}
	// A product that outgrows an int saturates.
	huge := choiceBundle([][]int{{1}}, []bool{false})
	huge.Options[0].Variables = nil
	for k := 0; k < 64; k++ {
		huge.Options[0].Variables = append(huge.Options[0].Variables, VariableSpec{Name: fmt.Sprintf("v%d", k), Values: make([]float64, 4)})
	}
	huge.Options = append(huge.Options, huge.Options[0])
	if got := huge.ChoiceCount(); got != math.MaxInt {
		t.Errorf("4^64 choices twice count as %d, want math.MaxInt", got)
	}
}

// TestChoicesLadder: each binding climbs the grant ladder from its own
// minimum, and a binding whose minimum does not evaluate keeps its places
// without grants.
func TestChoicesLadder(t *testing.T) {
	b := choiceBundle([][]int{{3}}, []bool{true})
	var got []string
	for _, ch := range b.Choices() {
		got = append(got, ch.String())
	}
	want := []string{
		"o0 v0=1 n.memory=-16", "o0 v0=1 n.memory=-8", "o0 v0=1 n.memory=0", "o0 v0=1 n.memory=16",
		"o0 v0=2", "o0 v0=2", "o0 v0=2", "o0 v0=2",
		"o0 v0=3 n.memory=16", "o0 v0=3 n.memory=24", "o0 v0=3 n.memory=32", "o0 v0=3 n.memory=48",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("choices\n%v\nwant\n%v", got, want)
	}
}

// FuzzChoiceCount: the count the cap reads is the enumeration's length
// under the cap, and nothing is enumerated above it.
func FuzzChoiceCount(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0})
	f.Add([]byte{2, 64, 65, 1, 9, 9, 9})
	f.Add([]byte{3, 200, 200, 1, 0, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		nopts := 1 + next()%3
		opts := make([][]int, nopts)
		ladder := make([]bool, nopts)
		for i := range opts {
			for k := next() % 4; k > 0; k-- {
				opts[i] = append(opts[i], next()%70)
			}
			ladder[i] = next()%2 == 1
		}
		checkChoiceCount(t, choiceBundle(opts, ladder))
	})
}
