package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"harmony/internal/match"
	"harmony/internal/namespace"
	"harmony/internal/protocol"
)

// Namespace is the controller's namespace (Section 3.2) read from its
// published view. Nothing stores it: a walk computes the leaves of every
// placed application it reaches from the application's choice, its
// assignment and the prediction made when the assignment was adopted. It
// may be used from any goroutine.
type Namespace struct{ c *Controller }

// Namespace returns the controller's namespace.
func (c *Controller) Namespace() Namespace { return Namespace{c} }

// Walk visits every leaf under prefix (all of them when prefix is empty) in
// lexicographic path order, all of one published state. An instance path
// such as DBclient.66 reaches that instance's leaves alone, without computing
// any other's. Walk returns namespace.ErrNotFound when no leaf lies under
// prefix.
func (n Namespace) Walk(prefix string, visit func(path string, v namespace.Value)) error {
	v := n.c.view.Load()
	var leaves []leaf
	for i, a := range v.names {
		if a.assignment != nil && (under(a.owner, prefix) || under(prefix, a.owner)) {
			s := &v.apps[i]
			leaves = appendLeaves(leaves, a.owner, s.Bundle, s.Choice, a.assignment, a.predicted)
		}
	}
	leaves = slices.DeleteFunc(leaves, func(l leaf) bool { return !under(l.path, prefix) })
	if len(leaves) == 0 {
		return fmt.Errorf("%w: %q", namespace.ErrNotFound, prefix)
	}
	slices.SortStableFunc(leaves, func(a, b leaf) int { return strings.Compare(a.path, b.path) })
	for _, l := range leaves {
		visit(l.path, l.value)
	}
	return nil
}

// under reports whether path is prefix or lies below it.
func under(path, prefix string) bool {
	return prefix == "" || strings.HasPrefix(path, prefix) && (len(path) == len(prefix) || path[len(prefix)] == '.')
}

type leaf struct {
	path  string
	value namespace.Value
}

// appendLeaves appends the leaves of one placed application, whose names
// start with owner (its instance path), in the paper's layout:
//
//	owner.bundle.option                       the chosen option's name
//	owner.bundle.O.var                        each variable of option O
//	owner.bundle.O.local[.k].node|memory|seconds
//	                                          each placed node; k numbers the
//	                                          nodes a local name places twice
//	owner.predicted                           the prediction made at adoption
//
// Every leaf is appended, even where one name lies below another.
func appendLeaves(out []leaf, owner, bundle string, ch Choice, asg *match.Assignment, predicted float64) []leaf {
	base := owner + "." + bundle
	out = append(out, leaf{base + ".option", protocol.StrVar(ch.Option)})
	optBase := base + "." + ch.Option
	for k, v := range ch.Vars {
		out = append(out, leaf{optBase + "." + k, protocol.NumVar(v)})
	}
	counts := make(map[string]int)
	for _, n := range asg.Nodes {
		counts[n.LocalName]++
	}
	seen := make(map[string]int)
	for _, n := range asg.Nodes {
		local := n.LocalName
		if counts[local] > 1 {
			seen[local]++
			local = local + "." + strconv.Itoa(seen[local])
		}
		p := optBase + "." + local
		out = append(out,
			leaf{p + ".node", protocol.StrVar(n.Hostname)},
			leaf{p + ".memory", protocol.NumVar(n.MemoryMB)},
			leaf{p + ".seconds", protocol.NumVar(n.Seconds)})
	}
	return append(out, leaf{owner + ".predicted", protocol.NumVar(predicted)})
}
