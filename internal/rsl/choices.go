package rsl

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MaxChoices caps how many choices one bundle may expand to. The controller
// evaluates every choice of an application on each decision about it, and
// vet judges every choice at the door, so a bundle over the cap is refused
// before anything is enumerated. The largest bundle the repository ships,
// the Figure 4 sweep over 4096 nodes, has exactly this many.
const MaxChoices = 4096

// ErrTooManyChoices is wrapped by the error of a bundle whose choices
// exceed MaxChoices.
var ErrTooManyChoices = errors.New("too many choices")

// GrantSteps are the memory increments (MB) tried above a minimum memory
// tag (Section 3.5: ">= 32 tells Harmony that ... additional memory can be
// used profitably as well").
var GrantSteps = []float64{0, 8, 16, 32}

// Choice is one concrete configuration of a bundle: an option plus values
// for its variables and memory grants above declared minima.
type Choice struct {
	// Option is the chosen option name.
	Option string
	// Vars binds each option variable (e.g. workerNodes) to a value.
	Vars map[string]float64
	// Grants raises OpMin memory tags, keyed by option-local node name.
	Grants map[string]float64
}

// Equal reports whether two choices configure the application identically.
func (c Choice) Equal(o Choice) bool {
	if c.Option != o.Option || len(c.Vars) != len(o.Vars) || len(c.Grants) != len(o.Grants) {
		return false
	}
	for k, v := range c.Vars {
		if o.Vars[k] != v {
			return false
		}
	}
	for k, v := range c.Grants {
		if o.Grants[k] != v {
			return false
		}
	}
	return true
}

// String renders the choice compactly.
func (c Choice) String() string {
	s := c.Option
	keys := make([]string, 0, len(c.Vars))
	for k := range c.Vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%g", k, c.Vars[k])
	}
	keys = keys[:0]
	for k := range c.Grants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" %s.memory=%g", k, c.Grants[k])
	}
	return s
}

// ChoiceCount is how many choices Choices expands the bundle to, computed
// from the sizes of its variable domains alone, without enumerating
// anything. It saturates at math.MaxInt.
func (b *BundleSpec) ChoiceCount() int {
	n := 0
	for i := range b.Options {
		n = satAdd(n, b.Options[i].ChoiceCount())
	}
	return n
}

// CheckChoices returns nil when the bundle has at most MaxChoices choices,
// and otherwise an error wrapping ErrTooManyChoices that says how many.
func (b *BundleSpec) CheckChoices() error {
	if n := b.ChoiceCount(); n > MaxChoices {
		return fmt.Errorf("bundle %s:%s: %w: its options expand to %d, over the cap of %d",
			b.App, b.Name, ErrTooManyChoices, n, MaxChoices)
	}
	return nil
}

// Choices expands the bundle into the concrete choices the controller
// decides among, option by option in the bundle's order (see
// OptionSpec.Choices). A bundle over MaxChoices yields nil: nothing is
// enumerated above the cap.
func (b *BundleSpec) Choices() []Choice {
	n := b.ChoiceCount()
	if n > MaxChoices {
		return nil
	}
	out := make([]Choice, 0, n)
	for i := range b.Options {
		out = b.Options[i].appendChoices(out)
	}
	return out
}

// ChoiceCount is how many choices Choices expands the option to: the
// product of its variable domains' sizes, times the grant ladder's length
// when a node spec has a minimum memory tag. It saturates at math.MaxInt.
func (o *OptionSpec) ChoiceCount() int {
	n := 1
	for _, v := range o.Variables {
		n = satMul(n, len(v.Values))
	}
	if o.grantsMemory() {
		n = satMul(n, len(GrantSteps))
	}
	return n
}

// Choices expands the option into concrete choices: the cross product of
// its variable values, the first declared variable varying slowest, and for
// each binding, when a node spec's memory tag is a minimum, one choice per
// step of the grant ladder (each such spec granted its minimum under the
// binding plus the step). A binding under which no minimum evaluates still
// takes its ladder's places, without grants: matching fails on the tag for
// each of them alike, and the count stays a product of domain sizes. An
// option over MaxChoices yields nil.
func (o *OptionSpec) Choices() []Choice {
	n := o.ChoiceCount()
	if n > MaxChoices {
		return nil
	}
	return o.appendChoices(make([]Choice, 0, n))
}

func (o *OptionSpec) appendChoices(out []Choice) []Choice {
	for _, vars := range o.Bindings() {
		out = o.appendBinding(out, vars)
	}
	return out
}

// Bindings is the cross product of the option's variable value sets, the
// first declared variable varying slowest: one map per binding, and the
// single empty binding for an option with no variables. It enumerates
// whatever the domains' sizes; check ChoiceCount first.
func (o *OptionSpec) Bindings() []map[string]float64 {
	sets := []map[string]float64{nil}
	for _, vs := range o.Variables {
		next := make([]map[string]float64, 0, len(sets)*len(vs.Values))
		for _, base := range sets {
			for _, v := range vs.Values {
				m := make(map[string]float64, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[vs.Name] = v
				next = append(next, m)
			}
		}
		sets = next
	}
	return sets
}

func (o *OptionSpec) appendBinding(out []Choice, vars map[string]float64) []Choice {
	if !o.grantsMemory() {
		return append(out, Choice{Option: o.Name, Vars: vars})
	}
	for _, grants := range o.grantLadder(vars) {
		out = append(out, Choice{Option: o.Name, Vars: vars, Grants: grants})
	}
	return out
}

// grantsMemory reports whether a node spec's memory tag is a numeric
// minimum, so that the option's choices climb the grant ladder.
func (o *OptionSpec) grantsMemory() bool {
	for i := range o.Nodes {
		if tag, ok := o.Nodes[i].Tags["memory"]; ok && !tag.IsString && tag.Op == OpMin {
			return true
		}
	}
	return false
}

// grantLadder builds one grant map per step of GrantSteps: every node spec
// whose memory tag is a minimum that evaluates under vars is granted that
// minimum plus the step. One combined map per step keeps the search linear.
// The maps are nil when no minimum evaluates.
func (o *OptionSpec) grantLadder(vars map[string]float64) []map[string]float64 {
	var names []string
	var mins []float64
	for i := range o.Nodes {
		spec := &o.Nodes[i]
		tag, ok := spec.Tags["memory"]
		if !ok || tag.IsString || tag.Op != OpMin {
			continue
		}
		v, err := tag.EvalNum(MapEnv(vars))
		if err != nil {
			continue
		}
		names = append(names, spec.LocalName)
		mins = append(mins, v)
	}
	out := make([]map[string]float64, len(GrantSteps))
	if names == nil {
		return out
	}
	for s, step := range GrantSteps {
		g := make(map[string]float64, len(names))
		for k, name := range names {
			g[name] = mins[k] + step
		}
		out[s] = g
	}
	return out
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}
