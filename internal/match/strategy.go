package match

import (
	"errors"
	"fmt"
	"slices"
)

// Strategy orders candidate nodes during matching. The paper's prototype
// uses simple first-fit (Section 4.1) and names fragmentation-avoiding
// policies as future work; BestFit and WorstFit implement the classic
// alternatives so they can be compared.
type Strategy int

const (
	// FirstFit takes nodes least-loaded-first, then by hostname: the
	// paper's policy with a deterministic tiebreak that spreads
	// concurrent applications onto idle machines.
	FirstFit Strategy = iota + 1
	// BestFit prefers the feasible node with the least free memory,
	// packing tightly to leave large holes for future big requests.
	BestFit
	// WorstFit prefers the feasible node with the most free memory,
	// balancing residual capacity.
	WorstFit
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyByName resolves a strategy for configuration files and CLIs.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "", "first-fit", "firstfit":
		return FirstFit, nil
	case "best-fit", "bestfit":
		return BestFit, nil
	case "worst-fit", "worstfit":
		return WorstFit, nil
	}
	return 0, errors.New("match: unknown strategy " + name)
}

// SetStrategy selects the node-ordering policy for subsequent Match calls.
// The zero value (never set) behaves as FirstFit.
func (m *Matcher) SetStrategy(s Strategy) error {
	switch s {
	case FirstFit, BestFit, WorstFit:
		m.strategy = s
		return nil
	}
	return fmt.Errorf("match: bad strategy %v", s)
}

// Strategy reports the active policy.
func (m *Matcher) Strategy() Strategy {
	if m.strategy == 0 {
		return FirstFit
	}
	return m.strategy
}

// compareKey orders the nodes at indices a and b of the load and free-memory
// columns by the strategy's key: load first for every strategy — placing work
// on busy machines is never preferable under the contention model — then the
// memory criterion.
func compareKey(strategy Strategy, load, free []float64, a, b int32) int {
	switch {
	case load[a] < load[b]:
		return -1
	case load[a] > load[b]:
		return 1
	case strategy == FirstFit || free[a] == free[b]:
		return 0
	case (free[a] < free[b]) == (strategy == BestFit):
		return -1
	}
	return 1
}

// scanOrder appends to order, which must be empty, the indices of a node
// table, whose load and free memory the two columns hold, in the order the
// strategy scans them: by key,
// and within a key by index, which is the hostname order of the table.
//
// Most of a cluster usually shares the smallest key (idle, memory
// untouched), and hostname order already sorts nodes of one key. So those
// are emitted in one pass and only the rest is sorted.
func scanOrder(strategy Strategy, load, free []float64, order []int32) []int32 {
	if len(load) == 0 {
		return order
	}
	first := int32(0)
	for i := range load {
		if compareKey(strategy, load, free, int32(i), first) < 0 {
			first = int32(i)
		}
	}
	smallest := 0
	for i := range load {
		if compareKey(strategy, load, free, int32(i), first) == 0 {
			smallest++
		}
	}
	// Both parts are filled in index order, so when the rest share one key too
	// (a machine of idle and of equally busy nodes) the sort finds them sorted.
	order = append(order, make([]int32, len(load))...)
	lo, hi := 0, smallest
	for i := range load {
		if compareKey(strategy, load, free, int32(i), first) == 0 {
			order[lo] = int32(i)
			lo++
		} else {
			order[hi] = int32(i)
			hi++
		}
	}
	slices.SortFunc(order[smallest:], func(i, j int32) int {
		if c := compareKey(strategy, load, free, i, j); c != 0 {
			return c
		}
		return int(i - j)
	})
	return order
}
