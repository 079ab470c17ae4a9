package vet

import (
	"fmt"
	"strings"
	"testing"

	"harmony/internal/bag"
	"harmony/internal/rsl"
)

// crowdShape builds the admission vetting of one db-crowd arrival: 64
// admitted Figure-3 clients, each pinned to its own client host, the
// incoming client's script, and the cluster the server vets against (one
// database server and 127 client hosts).
func crowdShape(b *testing.B) (admitted []*rsl.BundleSpec, incoming string, nodes []*rsl.NodeDecl) {
	b.Helper()
	const hosts, residents = 127, 64
	client := func(instance, host int) string {
		h := fmt.Sprintf("dbclient%03d", host)
		return fmt.Sprintf(`harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, instance, h, h)
	}
	var script strings.Builder
	fmt.Fprintf(&script, "harmonyNode dbserver {speed 1} {memory %d} {os linux} {cpus 1}\n", 64+24*(hosts+1))
	for i := 1; i <= hosts; i++ {
		fmt.Fprintf(&script, "harmonyNode dbclient%03d {speed 1} {memory 64} {os linux} {cpus 1}\n", i)
	}
	for i := 1; i <= residents; i++ {
		script.WriteString(client(i, i) + "\n")
	}
	admitted, nodes, err := rsl.DecodeScript(script.String())
	if err != nil {
		b.Fatal(err)
	}
	return admitted, client(residents+1, residents+1), nodes
}

// BenchmarkWorkloadCrowd is what a db-crowd bundle_setup spends in joint
// workload vetting: the server re-analyses every admitted bundle beside the
// incoming one.
func BenchmarkWorkloadCrowd(b *testing.B) {
	admitted, incoming, nodes := crowdShape(b)
	specs := []WorkloadSpec{{File: "admitted", Bundles: admitted}, {File: "incoming", Src: incoming}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Workload(specs, Options{ExtraNodes: nodes}); rep.HasErrors() {
			b.Fatal(rep.Diags)
		}
	}
}

// BenchmarkScriptCrowd is the per-script vetting of the same arrival.
func BenchmarkScriptCrowd(b *testing.B) {
	_, incoming, nodes := crowdShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Script(incoming, Options{ExtraNodes: nodes}); rep.HasErrors() {
			b.Fatal(rep.Diags)
		}
	}
}

// BenchmarkAdmissionCrowd is the joint check of BenchmarkWorkloadCrowd's
// arrival as a server makes it: the admitted bundles' analyses are the
// controller's, the cluster's capacity is kept from earlier arrivals, and
// the incoming script was decoded and analysed once, by its own vetting.
func BenchmarkAdmissionCrowd(b *testing.B) {
	admitted, incoming, nodes := crowdShape(b)
	ctrl := &fakeController{bundles: admitted}
	for _, b := range admitted {
		ctrl.analyses = append(ctrl.analyses, NewBundle(b))
	}
	for _, d := range nodes {
		ctrl.nodes = append(ctrl.nodes, *d)
	}
	adm := NewAdmission(ctrl)
	rep, ar := adm.Script(incoming)
	if _, err := ar.Decode(); err != nil || rep.HasErrors() {
		b.Fatal(err, rep.Diags)
	}
	adm.Workload(ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := adm.Workload(ar); rep.HasErrors() {
			b.Fatal(rep.Diags)
		}
	}
}

// capShape is one bundle at the cap the controller enumerates, shaped like
// Figure 4's at 4096 nodes: a worker count over 1..4096, each with its
// replicas, seconds and model point, and the 4096-node SP-2 it is vetted
// against.
func capShape(b *testing.B) (src string, nodes []*rsl.NodeDecl) {
	b.Helper()
	counts := make([]int, rsl.MaxChoices)
	values := make([]string, len(counts))
	for i := range counts {
		counts[i] = i + 1
		values[i] = fmt.Sprint(i + 1)
	}
	points, err := bag.PerfModel(300, 1, 1.2, counts)
	if err != nil {
		b.Fatal(err)
	}
	src = fmt.Sprintf(`harmonyBundle Bag1:1 parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, strings.Join(values, " "), bag.RSLPerformanceList(points))
	for i := 1; i <= len(counts); i++ {
		nodes = append(nodes, &rsl.NodeDecl{Hostname: fmt.Sprintf("sp2-%04d", i), Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1})
	}
	return src, nodes
}

// BenchmarkScriptAtCap vets one bundle of exactly rsl.MaxChoices choices,
// the most the door judges: every check evaluates each of them.
func BenchmarkScriptAtCap(b *testing.B) {
	src, nodes := capShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Script(src, Options{ExtraNodes: nodes}); len(rep.Diags) != 0 {
			b.Fatal(rep.Diags)
		}
	}
}
