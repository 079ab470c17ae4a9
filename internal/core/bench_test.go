package core

import (
	"fmt"
	"strings"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

func benchController(b *testing.B, nodes int, cfg Config) *Controller {
	b.Helper()
	cl, err := cluster.NewSP2(nodes)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cluster = cl
	cfg.Clock = simclock.New()
	ctrl, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ctrl
}

func benchBundle(b *testing.B, src string) *rsl.BundleSpec {
	b.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		b.Fatal(err)
	}
	return bundles[0]
}

const benchDBBundle = `
harmonyBundle DBclient:1 where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`

const benchBagBundle = `
harmonyBundle Bag:1 parallelism {
	{workers
		{variable workerNodes {1 2 4 8}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {{1 300} {2 160} {4 90} {8 70}}}
	}
}`

func BenchmarkRegisterUnregisterDB(b *testing.B) {
	ctrl := benchController(b, 4, Config{})
	bundle := benchBundle(b, benchDBBundle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, _, err := ctrl.Register(bundle)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Unregister(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReevaluateGreedy(b *testing.B) {
	ctrl := benchController(b, 8, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := ctrl.Register(benchBundle(b, benchBagBundle)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Reevaluate()
	}
}

func BenchmarkReevaluateExhaustive(b *testing.B) {
	ctrl := benchController(b, 8, Config{Exhaustive: true})
	for i := 0; i < 2; i++ {
		if _, _, err := ctrl.Register(benchBundle(b, benchBagBundle)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Reevaluate()
	}
}

func BenchmarkForceChoice(b *testing.B) {
	ctrl := benchController(b, 4, Config{})
	inst, _, err := ctrl.Register(benchBundle(b, benchDBBundle))
	if err != nil {
		b.Fatal(err)
	}
	options := []string{"DS", "QS"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.ForceChoice(inst, Choice{Option: options[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// wideBagRSL is the bench harness's wide-greedy job: workerNodes 1..32 on
// exclusive nodes with an explicit work/n + 1.2 n^2 model.
func wideBagRSL(name string, job int, work float64) string {
	return bagRSL(name, job, 32, work)
}

// bagRSL is wideBagRSL with workerNodes 1..max.
func bagRSL(name string, job, max int, work float64) string {
	var values, perf strings.Builder
	for n := 1; n <= max; n++ {
		fmt.Fprintf(&values, " %d", n)
		fmt.Fprintf(&perf, " {%d %g}", n, work/float64(n)+1.2*float64(n*n))
	}
	return fmt.Sprintf(`harmonyBundle %s:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {%g / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, name, job, values.String(), work, perf.String())
}

// BenchmarkWideGreedyCycle is one arrival and departure beside 8 residents
// x 32 choices on 256 nodes: the repo benchmark's wide-greedy workload
// without the wire.
func BenchmarkWideGreedyCycle(b *testing.B) {
	ctrl := benchController(b, 256, Config{})
	for job := 1; job <= 8; job++ {
		if _, _, err := ctrl.Register(benchBundle(b, wideBagRSL(fmt.Sprintf("Bag%d", job), job, 300))); err != nil {
			b.Fatal(err)
		}
	}
	benchCycles(b, ctrl, benchBundle(b, wideBagRSL("Job", 9, 310)))
}

// benchCycles times b.N arrivals and departures of one bundle and reports
// the predictions each made, which repeat exactly.
func benchCycles(b *testing.B, ctrl *Controller, arrival *rsl.BundleSpec) {
	predictions := ctrl.Predictions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, _, err := ctrl.Register(arrival)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Unregister(inst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctrl.Predictions()-predictions)/float64(b.N), "predictions/op")
}

// crowdRSL is the bench harness's db-crowd client: the Figure 3 bundle
// pinned to one client host beside the shared dbserver.
func crowdRSL(instance, host int) string {
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

// crowdController builds the db-crowd cluster (one server whose memory
// scales with the population, 127 client hosts) with residents clients
// pinned to the first hosts.
func crowdController(tb testing.TB, residents int, cfg Config) *Controller {
	tb.Helper()
	const hosts = 127
	decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 64 + 24*(hosts+1), OS: "linux", CPUs: 1}}
	for i := 1; i <= hosts; i++ {
		decls = append(decls, &rsl.NodeDecl{Hostname: fmt.Sprintf("dbclient%03d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
	}
	cl, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Cluster = cl
	cfg.Clock = simclock.New()
	ctrl, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= residents; i++ {
		bundles, _, err := rsl.DecodeScript(crowdRSL(i, i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := ctrl.Register(bundles[0]); err != nil {
			tb.Fatal(err)
		}
	}
	return ctrl
}

// BenchmarkCrowdCycle is one arrival and departure beside 64 pinned
// Figure-3 residents sharing one server on 128 hosts: the repo benchmark's
// db-crowd workload without the wire. Every event changes dbserver's load,
// so every resident's five choices are re-evaluated against the other 63.
func BenchmarkCrowdCycle(b *testing.B) {
	ctrl := crowdController(b, 64, Config{})
	benchCycles(b, ctrl, benchBundle(b, crowdRSL(65, 65)))
}

// BenchmarkSqueezeCycle is one arrival and departure on a 10-node machine
// that Figure-4 bags of up to 8 exclusive workers already fill: the repo
// benchmark's squeeze-small workload without the wire (residents=2), and the
// same with twice the residents. The arrival fits nowhere, so Register's joint
// search shrinks every resident to make room, and the departure's greedy pass
// lets them grow back. trials/op is what the search costs in its own unit, and
// repeats exactly.
func BenchmarkSqueezeCycle(b *testing.B) {
	for _, residents := range []int{2, 4} {
		b.Run(fmt.Sprintf("residents=%d", residents), func(b *testing.B) {
			ctrl := benchController(b, 10, Config{})
			for job := 1; job <= residents; job++ {
				if _, _, err := ctrl.Register(benchBundle(b, bagRSL(fmt.Sprintf("Bag%d", job), job, 8, 300))); err != nil {
					b.Fatal(err)
				}
			}
			arrival := benchBundle(b, bagRSL("Job", residents+1, 8, 310))
			trials := ctrl.JointTrials()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, _, err := ctrl.Register(arrival)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ctrl.Unregister(inst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ctrl.JointTrials()-trials)/float64(b.N), "trials/op")
		})
	}
}
