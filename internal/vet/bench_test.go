package vet

import (
	"fmt"
	"strings"
	"testing"

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
