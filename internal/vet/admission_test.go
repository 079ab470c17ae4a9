package vet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"harmony/internal/rsl"
)

// fakeController is the part of a running controller Admission reads: the
// admitted bundles' analyses in registration order and the cluster's
// declarations. It keeps the bundles too, for the fresh reference analyses.
type fakeController struct {
	bundles  []*rsl.BundleSpec
	analyses []*Bundle
	sources  []string // RSL of each admitted bundle, for restore
	nodes    []rsl.NodeDecl
	gen      uint64
	reads    int // ClusterNodes calls
}

func (f *fakeController) Bundles() []*rsl.BundleSpec { return slices.Clone(f.bundles) }

func (f *fakeController) Analyses() []*Bundle { return slices.Clone(f.analyses) }

// ClusterNodes builds fresh declarations on every call, as the controller
// does.
func (f *fakeController) ClusterNodes() []*rsl.NodeDecl {
	f.reads++
	out := make([]*rsl.NodeDecl, len(f.nodes))
	for i := range f.nodes {
		d := f.nodes[i]
		out[i] = &d
	}
	return out
}

func (f *fakeController) NodeGeneration() uint64 { return f.gen }

// declare registers a node, or replaces the one of that hostname, keeping
// the table in hostname order as the ledger does.
func (f *fakeController) declare(d rsl.NodeDecl) {
	f.gen++
	i, found := slices.BinarySearchFunc(f.nodes, d.Hostname, func(n rsl.NodeDecl, h string) int {
		return strings.Compare(n.Hostname, h)
	})
	if found {
		f.nodes[i] = d
		return
	}
	f.nodes = slices.Insert(f.nodes, i, d)
}

// admit registers src as the controller's apply does: from its own decode,
// so the admitted bundle is not the pointer the door decoded.
func (f *fakeController) admit(t *testing.T, src string) {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("admit: %v (%d bundles)", err, len(bundles))
	}
	f.bundles = append(f.bundles, bundles[0])
	f.analyses = append(f.analyses, NewBundle(bundles[0]))
	f.sources = append(f.sources, src)
}

func (f *fakeController) end(i int) {
	f.bundles = slices.Delete(f.bundles, i, i+1)
	f.analyses = slices.Delete(f.analyses, i, i+1)
	f.sources = slices.Delete(f.sources, i, i+1)
}

// restore re-decodes every admitted bundle, as Controller.Restore does: the
// same bundles in the same order, none of them the pointers admission saw.
func (f *fakeController) restore(t *testing.T) {
	t.Helper()
	for i, src := range f.sources {
		bundles, _, err := rsl.DecodeScript(src)
		if err != nil {
			t.Fatal(err)
		}
		f.bundles[i] = bundles[0]
		f.analyses[i] = NewBundle(bundles[0])
	}
}

// opStream reads choices from fuzz input; past its end every choice is 0.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) done() bool { return s.i >= len(s.b) }

func (s *opStream) next(n int) int {
	if s.done() {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % n
}

// megabytes draws a memory size with a fractional part, so that sums of a
// few of them depend on the order they are added in.
func (s *opStream) megabytes(max int) float64 {
	return float64(1+s.next(max)) + float64(1+s.next(9))/10
}

// arrivalScript draws one bundle_setup script: a db-crowd client pinned to
// the database server and a client host, a bundle pinning memory on one
// host (which may not be declared), or a wildcard bag of exclusive
// replicas with communication. Some carry harmonyNode lines of their own,
// and a few are broken, so the strict decode's verdict is exercised.
func arrivalScript(s *opStream, instance int) string {
	var sb strings.Builder
	for n := s.next(4); n == 3; n = s.next(4) {
		fmt.Fprintf(&sb, "harmonyNode h%d {speed 1} {memory %g} {os linux} {cpus 1}\n", s.next(12), s.megabytes(48))
	}
	switch s.next(3) {
	case 0:
		client := s.next(10)
		fmt.Fprintf(&sb, `harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory %g}}
		{node client h%d {os linux} {seconds 1} {memory %g}}
		{link client server %g}
	}
	{DS
		{node server dbserver {seconds 1} {memory %g}}
		{node client h%d {os linux} {memory >=%g} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}
`, instance, s.megabytes(24), client, s.megabytes(8), s.megabytes(40), s.megabytes(24), client, s.megabytes(24))
	case 1:
		fmt.Fprintf(&sb, "harmonyBundle Pinned:%d at {{only {node n h%d {memory %g}}}}\n", instance, s.next(12), s.megabytes(40))
	default:
		fmt.Fprintf(&sb, `harmonyBundle Bag:%d jobs {
	{run {node worker * {memory %g} {replicate %d} {exclusive 1}} {communication %g}}
	{small {node worker * {memory %g} {exclusive 1}} {communication %g}}
}
`, instance, s.megabytes(32), 1+s.next(3), s.megabytes(80), s.megabytes(16), s.megabytes(60))
	}
	switch s.next(16) {
	case 0:
		sb.WriteString("harmonyFoo bar\n")
	case 1:
		sb.WriteString("{\n")
	case 2:
		sb.WriteString(sb.String()) // two bundles
	case 3:
		return fmt.Sprintf("harmonyBundle Bad:%d w {{o {node n *}} {o {node n *}}}\n", instance)
	}
	return sb.String()
}

// render is a report as the server logs it and as JSON, so two reports
// compare byte for byte, messages and positions included.
func render(t *testing.T, rep *Report) string {
	t.Helper()
	var sb strings.Builder
	for _, d := range rep.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(js)
	return sb.String()
}

// rejection is the reply a rejecting server sends for a report, or "".
func rejection(rep *Report) string {
	if d, bad := rep.FirstError(); bad {
		return "bundle_setup: vet: " + d.String()
	}
	return ""
}

// checkAdmission drives admissions, departures, restores and node
// declarations drawn from ops, holding every arrival's cached admission to
// what the server computed before it kept anything: vet.Script against a
// fresh copy of the cluster, rsl.DecodeScript, and vet.Workload over the
// admitted bundles and the incoming one. seen, when not nil, counts the
// checks that fired and the arrivals the strict decode refused.
func checkAdmission(t *testing.T, ops []byte, seen map[string]int) {
	s := &opStream{b: ops}
	ctrl := &fakeController{}
	ctrl.declare(rsl.NodeDecl{Hostname: "dbserver", Speed: 1, MemoryMB: s.megabytes(400), OS: "linux", CPUs: 1})
	for i, n := 0, 2+s.next(8); i < n; i++ {
		ctrl.declare(rsl.NodeDecl{Hostname: fmt.Sprintf("h%d", i), Speed: 1, MemoryMB: s.megabytes(64), OS: "linux", CPUs: 1})
	}
	adm := NewAdmission(ctrl)
	for step := 1; step <= 48 && !s.done(); step++ {
		switch op := s.next(10); {
		case op < 6:
			src := arrivalScript(s, step)
			nodes := ctrl.ClusterNodes()
			ref := Options{ExtraNodes: nodes}
			wantScript := Script(src, ref)
			reads := ctrl.reads
			gotScript, ar := adm.Script(src)
			if ctrl.reads > reads+1 {
				t.Fatalf("step %d: the cluster was read %d times for one arrival", step, ctrl.reads-reads)
			}
			if g, w := render(t, gotScript), render(t, wantScript); g != w {
				t.Fatalf("step %d: script report\n got %s\nwant %s\nscript:\n%s", step, g, w, src)
			}
			wantBundles, decls, wantErr := rsl.DecodeScript(src)
			gotBundles, gotErr := ar.Decode()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || len(gotBundles) != len(wantBundles) {
				t.Fatalf("step %d: decode got %d bundles, %v; want %d, %v", step, len(gotBundles), gotErr, len(wantBundles), wantErr)
			}
			if seen != nil && wantErr != nil {
				seen["refused by the strict decode"]++
			}
			if wantErr != nil || len(wantBundles) != 1 {
				continue
			}
			specs := make([]WorkloadSpec, 0, 2)
			if admitted := ctrl.Bundles(); len(admitted) > 0 {
				specs = append(specs, WorkloadSpec{File: "admitted", Bundles: admitted})
			}
			specs = append(specs, WorkloadSpec{File: "incoming", Bundles: wantBundles})
			ref.ExtraNodes = slices.Concat(nodes, decls)
			wantJoint := Workload(specs, ref)
			gotJoint := adm.Workload(ar)
			if g, w := render(t, gotJoint), render(t, wantJoint); g != w {
				t.Fatalf("step %d: workload report\n got %s\nwant %s\nscript:\n%s", step, g, w, src)
			}
			if g, w := rejection(gotJoint), rejection(wantJoint); g != w {
				t.Fatalf("step %d: rejection %q, want %q", step, g, w)
			}
			for _, d := range wantJoint.Diags {
				if seen != nil {
					seen[d.Check]++
				}
			}
			if len(ctrl.bundles) < 24 {
				ctrl.admit(t, src)
			}
		case op == 6 && len(ctrl.bundles) > 0:
			ctrl.end(s.next(len(ctrl.bundles)))
		case op == 7:
			ctrl.restore(t)
		case op == 8:
			ctrl.declare(rsl.NodeDecl{Hostname: fmt.Sprintf("h%d", s.next(12)), Speed: 1, MemoryMB: s.megabytes(64), OS: "linux", CPUs: 1})
		}
	}
}

// TestAdmissionMatchesWorkload holds the server's cached admission to the
// fresh Script and Workload analyses it replaced, byte for byte, over
// random sequences of arrivals, departures, restores and node declarations.
func TestAdmissionMatchesWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]int)
	for seed := 0; seed < 200; seed++ {
		ops := make([]byte, 400)
		rng.Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkAdmission(t, ops, seen) })
	}
	// Sums are compared through the messages that print them: the
	// sequences must make every joint check fire, and reach the strict
	// decode's error path.
	for _, want := range []string{"workload-memory", "workload-nodes", "workload-host", "workload-bandwidth", "refused by the strict decode"} {
		if seen[want] == 0 {
			t.Errorf("no sequence reached %s: %v", want, seen)
		}
	}
	t.Logf("%v", seen)
}

// FuzzAdmissionMatchesWorkload is TestAdmissionMatchesWorkload with the
// choices drawn from fuzz input.
func FuzzAdmissionMatchesWorkload(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 50*(i+1))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkAdmission(t, ops, nil) })
}

// TestAdmissionReadsClusterOnce: the cluster is read at the first arrival
// and again only when a node is declared.
func TestAdmissionReadsClusterOnce(t *testing.T) {
	ctrl := &fakeController{}
	ctrl.declare(rsl.NodeDecl{Hostname: "a", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
	adm := NewAdmission(ctrl)
	src := "harmonyBundle A:1 w {{only {node n * {memory 100}}}}\n"
	for i := 0; i < 3; i++ {
		rep, _ := adm.Script(src)
		if _, bad := rep.FirstError(); !bad {
			t.Fatalf("100 MB on one 64 MB node vetted clean: %v", rep.Diags)
		}
	}
	if ctrl.reads != 1 {
		t.Fatalf("three arrivals read the cluster %d times, want 1", ctrl.reads)
	}
	ctrl.declare(rsl.NodeDecl{Hostname: "a", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1})
	if rep, _ := adm.Script(src); rep.HasErrors() {
		t.Fatalf("the re-declared node was not read: %v", rep.Diags)
	}
	if ctrl.reads != 2 {
		t.Fatalf("cluster read %d times after one declaration, want 2", ctrl.reads)
	}
}

// lockedController lets a test change the fake controller while arrivals
// read it from other goroutines.
type lockedController struct {
	mu sync.Mutex
	f  *fakeController
}

func (l *lockedController) Analyses() []*Bundle {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Analyses()
}

func (l *lockedController) ClusterNodes() []*rsl.NodeDecl {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.ClusterNodes()
}

func (l *lockedController) NodeGeneration() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.NodeGeneration()
}

// TestAdmissionConcurrentArrivals: a server vets arrivals on every
// connection's goroutine at once, while its controller restores and
// declares nodes. Run it under -race; once the controller is still, an
// arrival is judged as a fresh analysis judges it.
func TestAdmissionConcurrentArrivals(t *testing.T) {
	ctrl := &lockedController{f: &fakeController{}}
	for i := 0; i < 4; i++ {
		ctrl.f.declare(rsl.NodeDecl{Hostname: fmt.Sprintf("h%d", i), Speed: 1, MemoryMB: 64.3, OS: "linux", CPUs: 1})
	}
	script := func(instance int) string {
		return fmt.Sprintf("harmonyBundle Pinned:%d at {{only {node n h%d {memory 10.1}}}}\n", instance, instance%4)
	}
	for i := 0; i < 16; i++ {
		ctrl.f.admit(t, script(i))
	}
	adm := NewAdmission(ctrl)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep, ar := adm.Script(script(100 + g))
				if _, err := ar.Decode(); err != nil || rep.HasErrors() {
					t.Errorf("arrival: %v %v", err, rep.Diags)
					return
				}
				adm.Workload(ar)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ctrl.mu.Lock()
		ctrl.f.restore(t)
		if i%10 == 0 {
			ctrl.f.declare(rsl.NodeDecl{Hostname: "h0", Speed: 1, MemoryMB: 64.3 + float64(i), OS: "linux", CPUs: 1})
		}
		ctrl.mu.Unlock()
	}
	wg.Wait()

	src := script(200)
	rep, ar := adm.Script(src)
	if _, err := ar.Decode(); err != nil || rep.HasErrors() {
		t.Fatal(err, rep.Diags)
	}
	bundles, _, _ := rsl.DecodeScript(src)
	want := Workload([]WorkloadSpec{
		{File: "admitted", Bundles: ctrl.f.Bundles()},
		{File: "incoming", Bundles: bundles},
	}, Options{ExtraNodes: ctrl.f.ClusterNodes()})
	if g, w := render(t, adm.Workload(ar)), render(t, want); g != w {
		t.Fatalf("after the churn:\n got %s\nwant %s", g, w)
	}
}

// TestAdmissionReadsAdmittedAnalyses: the joint check reads an admitted
// bundle's demand from the analysis the controller keeps for it — for a
// bundle a server admitted, the one its door made — and computes none
// again. A bundle changed behind its analysis is judged as it was analysed.
func TestAdmissionReadsAdmittedAnalyses(t *testing.T) {
	ctrl := &fakeController{}
	ctrl.declare(rsl.NodeDecl{Hostname: "h0", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
	adm := NewAdmission(ctrl)
	arrive := func(src string) (*Arrival, *Report) {
		t.Helper()
		rep, ar := adm.Script(src)
		if _, err := ar.Decode(); err != nil || rep.HasErrors() {
			t.Fatal(err, rep.Diags)
		}
		return ar, adm.Workload(ar)
	}
	ar, rep := arrive("harmonyBundle Pinned:1 at {{only {node n h0 {memory 40}}}}\n")
	if rep.HasErrors() {
		t.Fatal(rep.Diags)
	}
	// Admitted as a leader applies its door's hand-off: with the door's
	// analysis, whose demand the joint check above computed.
	admitted := ar.Analyses()[0]
	ctrl.bundles = append(ctrl.bundles, admitted.Spec)
	ctrl.analyses = append(ctrl.analyses, admitted)
	admitted.Spec.Options[0].Nodes[0].Tags["memory"] = rsl.TagValue{Expr: &rsl.NumberExpr{Value: 1000}}

	next := "harmonyBundle Pinned:2 at {{only {node n h0 {memory 20}}}}\n"
	if _, rep := arrive(next); rep.HasErrors() {
		t.Fatalf("the admitted demand was computed again, from the changed bundle: %v", rep.Diags)
	}
	bundles, _, _ := rsl.DecodeScript(next)
	fresh := Workload([]WorkloadSpec{
		{File: "admitted", Bundles: ctrl.Bundles()},
		{File: "incoming", Bundles: bundles},
	}, Options{ExtraNodes: ctrl.ClusterNodes()})
	if !fresh.HasErrors() {
		t.Fatalf("a fresh analysis of the changed bundle raised nothing, so the test shows nothing: %v", fresh.Diags)
	}
}
