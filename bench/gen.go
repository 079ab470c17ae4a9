package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Workload is one deployment plus the shape of its inputs. The names are
// fixed: BENCHMARK.json, README.md and every later issue refer to them.
type Workload struct {
	Name string
	// Why is the one-line rationale recorded in BENCHMARK.json.
	Why string
	// Members is the number of harmonyd processes (1 standalone, 3 replicated).
	Members int
	// SP2 > 0 starts harmonyd with -sp2 N; otherwise Resources is written to
	// a file and passed with -resources.
	SP2       int
	Resources string
	// Warmup is the number of writer cycles run before the measured window.
	Warmup int
	// ReaderPeriod is the open-loop Status period. It is longer than the
	// workload's slowest write holds the controller lock, so a Status is
	// answered before the next is due and the reader's queue cannot grow.
	ReaderPeriod time.Duration
}

// App is one application's input: the name it passes to Startup and the RSL
// text it passes to BundleSetup. These two are all harmonyd ever sees of a
// workload or a seed.
type App struct {
	Name string
	RSL  string
	// AckKeys are the variables the client reads back after admission, for
	// the oracle: the bundle variable (chosen option), the option variables,
	// the prediction and the placement, for every shape the choice may take.
	AckKeys []string
}

// Inputs is everything the generator derives from (workload, seed).
type Inputs struct {
	Workload  Workload
	Residents []App
	// Arrivals is the writer's pool; cycle i admits Arrivals[i%len].
	Arrivals []App
	// ReaderPhase offsets the reader's schedule inside one period.
	ReaderPhase time.Duration
}

// Arrival returns the application admitted by writer cycle i.
func (in *Inputs) Arrival(i int) App { return in.Arrivals[i%len(in.Arrivals)] }

// arrivalPool bounds the generated arrival list; the writer wraps around.
const arrivalPool = 4096

// db-crowd's client population: 127 client hosts, of which 64 hold a
// resident and the rest receive the arrivals. (The issue's prototype had 100
// residents; 64 keeps one run, three set-ups and the oracle's replay
// included, inside the benchmark's time budget, and doubles the cycles a
// window measures.)
const (
	dbHosts     = 127
	dbResidents = 64
)

var workloads = []Workload{
	{
		Name:    "squeeze-small",
		Why:     "Full 10-node machine: every arrival takes Register's joint accommodate search and both residents shrink and regrow, so wire, session and client cost are a visible share and updates are pushed.",
		Members: 1, SP2: 10, Warmup: 50, ReaderPeriod: 10 * time.Millisecond,
	},
	{
		Name:    "wide-greedy",
		Why:     "256 nodes, 8 residents x 32 choices, no contention: each arrival and departure is a pure greedy pass, so Snapshot.Nodes sorting, lookups, allocation and the EvalWorkers pool do nearly all the work.",
		Members: 1, SP2: 256, Warmup: 10, ReaderPeriod: 40 * time.Millisecond,
	},
	{
		Name:    "db-crowd",
		Why:     "64 Figure-3 clients sharing one server: every arrival and departure re-evaluates 64 apps x 5 choices, vet.Workload re-analyses 64 bundles, and Status reads contend with writes for the controller lock.",
		Members: 1, Resources: dbClusterRSL(), Warmup: 10, ReaderPeriod: 40 * time.Millisecond,
	},
	{
		Name:    "replica-squeeze",
		Why:     "Inputs byte-identical to squeeze-small on 3 durable replicas, so the difference is propose, fsync, quorum and apply; the traced run also kills the leader and times resume.",
		Members: 3, SP2: 10, Warmup: 50, ReaderPeriod: 10 * time.Millisecond,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Generate derives a workload's inputs from the seed. The same (name, seed)
// gives byte-identical inputs; replica-squeeze shares squeeze-small's.
func Generate(w Workload, seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Workload: w}
	in.ReaderPhase = time.Duration(rng.Int63n(int64(w.ReaderPeriod)))
	switch w.Name {
	case "squeeze-small", "replica-squeeze":
		for job := 1; job <= 2; job++ {
			in.Residents = append(in.Residents, bagApp(fmt.Sprintf("Bag%d", job), job, 8, 300))
		}
		for i := 0; i < arrivalPool; i++ {
			in.Arrivals = append(in.Arrivals, bagApp("Job", i+1, 8, arrivalWork(rng)))
		}
	case "wide-greedy":
		for job := 1; job <= 8; job++ {
			in.Residents = append(in.Residents, bagApp(fmt.Sprintf("Bag%d", job), job, 32, 300))
		}
		for i := 0; i < arrivalPool; i++ {
			in.Arrivals = append(in.Arrivals, bagApp("Job", i+1, 32, arrivalWork(rng)))
		}
	case "db-crowd":
		hosts := rng.Perm(dbHosts)
		for i, h := range hosts[:dbResidents] {
			in.Residents = append(in.Residents, dbApp(i+1, h+1))
		}
		free := hosts[dbResidents:]
		for i := 0; i < arrivalPool; i++ {
			in.Arrivals = append(in.Arrivals, dbApp(dbResidents+i+1, free[i%len(free)]+1))
		}
	default:
		panic("bench: unknown workload " + w.Name)
	}
	return in
}

// arrivalWork draws one arrival's total work within a tenth of the
// residents' 300 s, so the optimum stays near five workers.
func arrivalWork(rng *rand.Rand) float64 {
	return 270 + float64(rng.Intn(601))/10
}

// bagApp is the paper's Figure 4 job: workerNodes 1..maxWorkers on exclusive
// nodes, with an explicit performance model of work/n + 1.2 n^2 seconds
// whose optimum for 300 s of work is five workers.
func bagApp(name string, job, maxWorkers int, work float64) App {
	var values, perf strings.Builder
	for n := 1; n <= maxWorkers; n++ {
		if n > 1 {
			values.WriteByte(' ')
			perf.WriteByte(' ')
		}
		fmt.Fprintf(&values, "%d", n)
		fmt.Fprintf(&perf, "{%d %g}", n, work/float64(n)+1.2*float64(n*n))
	}
	keys := []string{"parallelism", "parallelism.option", "workerNodes", "predicted", "parallelism.workers.worker.node"}
	for n := 1; n <= maxWorkers; n++ {
		keys = append(keys, fmt.Sprintf("parallelism.workers.worker.%d.node", n))
	}
	return App{Name: name, AckKeys: keys, RSL: fmt.Sprintf(`harmonyBundle %s:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {%g / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, name, job, values.String(), work, perf.String())}
}

// dbApp is the paper's Figure 3 client pinned to one client host: query
// shipping or data shipping, the latter with a memory grant ladder.
func dbApp(instance, host int) App {
	h := fmt.Sprintf("dbclient%03d", host)
	keys := []string{"where", "where.option", "predicted"}
	for _, opt := range []string{"QS", "DS"} {
		for _, leaf := range []string{"client.node", "client.memory", "server.node", "server.memory"} {
			keys = append(keys, "where."+opt+"."+leaf)
		}
	}
	return App{Name: "DBclient", AckKeys: keys, RSL: fmt.Sprintf(`harmonyBundle DBclient:%d where {
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
}`, instance, h, h)}
}

// dbClusterRSL declares one database server whose buffer pool scales with
// the client population, and the client hosts.
func dbClusterRSL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harmonyNode dbserver {speed 1} {memory %d} {os linux} {cpus 1}\n", 64+24*(dbHosts+1))
	for i := 1; i <= dbHosts; i++ {
		fmt.Fprintf(&b, "harmonyNode dbclient%03d {speed 1} {memory 64} {os linux} {cpus 1}\n", i)
	}
	return b.String()
}
