// Package namespace implements Harmony's hierarchical namespace
// (Section 3.2 of "Exposing Application Alternatives").
//
// The namespace is shared between the adaptation controller and
// applications. Fully qualified names are dotted paths of the form
//
//	application.instance.bundle.option.resource.tag
//
// e.g. DBclient.66.where.DS.client.memory holds the memory allocated to the
// client node of the data-shipping option of instance 66 of DBclient. The
// controller writes each instance's subtree; the server walks it to build
// the variable updates it pushes to the application. Leaves hold either
// numeric or string values; interior nodes are pure directories. The tree is
// safe for concurrent use: the controller writes it while connection
// goroutines walk it.
package namespace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors reported by namespace operations.
var (
	// ErrNotFound is returned when a path does not exist.
	ErrNotFound = errors.New("namespace: path not found")
	// ErrNotLeaf is returned when a value operation targets a directory.
	ErrNotLeaf = errors.New("namespace: path is a directory")
	// ErrBadPath is returned for malformed paths.
	ErrBadPath = errors.New("namespace: malformed path")
)

// Value is a leaf value: a number or a string.
type Value struct {
	// Num holds the numeric value when IsString is false.
	Num float64
	// Str holds the string value when IsString is true.
	Str string
	// IsString distinguishes the two arms.
	IsString bool
}

// NumValue builds a numeric Value.
func NumValue(v float64) Value { return Value{Num: v} }

// StrValue builds a string Value.
func StrValue(s string) Value { return Value{Str: s, IsString: true} }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.IsString {
		return v.Str
	}
	return fmt.Sprintf("%g", v.Num)
}

// SplitPath validates and splits a dotted path. Empty components are
// rejected; an empty path denotes the root and yields nil.
func SplitPath(path string) ([]string, error) {
	if path == "" {
		return nil, nil
	}
	if err := checkPath(path); err != nil {
		return nil, err
	}
	return strings.Split(path, "."), nil
}

// checkPath rejects a path that is not the root and has an empty component.
func checkPath(path string) error {
	if path[0] == '.' || path[len(path)-1] == '.' || strings.Contains(path, "..") {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return nil
}

type node struct {
	children map[string]*node // nil for a node made as a leaf
	value    Value
	isLeaf   bool
}

func newNode() *node {
	return &node{children: make(map[string]*node)}
}

// splitLast validates a path that is not the root as SplitPath does and
// splits off its last component, without allocating: writes walk the
// directory part with strings.Cut.
func splitLast(path string) (dir, last string, err error) {
	if err := checkPath(path); err != nil {
		return "", "", err
	}
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[:i], path[i+1:], nil
	}
	return "", path, nil
}

// Tree is a concurrent hierarchical namespace.
type Tree struct {
	mu   sync.RWMutex
	root *node
}

// New returns an empty namespace tree.
func New() *Tree {
	return &Tree{root: newNode()}
}

// Set stores a leaf value at path, creating intermediate directories as
// needed. Setting a value on an existing directory fails with ErrNotLeaf.
func (t *Tree) Set(path string, v Value) error {
	if path == "" {
		return fmt.Errorf("%w: cannot set root", ErrBadPath)
	}
	dir, last, err := splitLast(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.root
	for dir != "" {
		var p string
		p, dir, _ = strings.Cut(dir, ".")
		child, ok := cur.children[p]
		if !ok {
			child = newNode()
			cur.children[p] = child
		}
		if child.isLeaf {
			return fmt.Errorf("namespace: %q crosses leaf %q", path, p)
		}
		cur = child
	}
	leaf, ok := cur.children[last]
	if ok && !leaf.isLeaf && len(leaf.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotLeaf, path)
	}
	if !ok {
		// A leaf never gets children: Set refuses to cross it.
		leaf = new(node)
		cur.children[last] = leaf
	}
	leaf.isLeaf = true
	leaf.value = v
	return nil
}

// SetNum is Set with a numeric value.
func (t *Tree) SetNum(path string, v float64) error { return t.Set(path, NumValue(v)) }

// SetStr is Set with a string value.
func (t *Tree) SetStr(path, s string) error { return t.Set(path, StrValue(s)) }

// Get retrieves the leaf value at path.
func (t *Tree) Get(path string) (Value, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return Value{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.lookup(parts)
	if n == nil {
		return Value{}, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if !n.isLeaf {
		return Value{}, fmt.Errorf("%w: %q", ErrNotLeaf, path)
	}
	return n.value, nil
}

// GetNum retrieves a numeric leaf; string leaves fail.
func (t *Tree) GetNum(path string) (float64, error) {
	v, err := t.Get(path)
	if err != nil {
		return 0, err
	}
	if v.IsString {
		return 0, fmt.Errorf("namespace: %q holds a string", path)
	}
	return v.Num, nil
}

// Delete removes the subtree at path. Deleting a missing path returns
// ErrNotFound.
func (t *Tree) Delete(path string) error {
	if path == "" {
		return fmt.Errorf("%w: cannot delete root", ErrBadPath)
	}
	dir, last, err := splitLast(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.root
	for dir != "" {
		var p string
		p, dir, _ = strings.Cut(dir, ".")
		child, ok := cur.children[p]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		cur = child
	}
	if _, ok := cur.children[last]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	delete(cur.children, last)
	return nil
}

// Walk visits every leaf under prefix (the whole tree when empty) in
// lexicographic path order.
func (t *Tree) Walk(prefix string, visit func(path string, v Value)) error {
	parts, err := SplitPath(prefix)
	if err != nil {
		return err
	}
	type entry struct {
		path string
		v    Value
	}
	var leaves []entry
	t.mu.RLock()
	start := t.lookup(parts)
	if start == nil {
		t.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrNotFound, prefix)
	}
	var rec func(n *node, path string)
	rec = func(n *node, path string) {
		if n.isLeaf {
			leaves = append(leaves, entry{path: path, v: n.value})
			return
		}
		for name, child := range n.children {
			p := name
			if path != "" {
				p = path + "." + name
			}
			rec(child, p)
		}
	}
	rec(start, prefix)
	t.mu.RUnlock()
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].path < leaves[j].path })
	for _, e := range leaves {
		visit(e.path, e.v)
	}
	return nil
}

// lookup walks parts from the root; caller holds at least a read lock.
func (t *Tree) lookup(parts []string) *node {
	cur := t.root
	for _, p := range parts {
		child, ok := cur.children[p]
		if !ok {
			return nil
		}
		cur = child
	}
	return cur
}

// InstancePath builds the conventional application-instance prefix, e.g.
// InstancePath("DBclient", 66) == "DBclient.66".
func InstancePath(app string, instance int) string {
	return fmt.Sprintf("%s.%d", app, instance)
}
