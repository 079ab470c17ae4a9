package server

import (
	"testing"

	"harmony/internal/protocol"
)

// setupVars admits src over a client connection and returns the variables
// its registration ack carried.
func setupVars(t *testing.T, app, src string) func(name string) (protocol.VarValue, bool) {
	t.Helper()
	srv, _ := startTestServer(t, Config{})
	c := dialTest(t, srv)
	if err := c.Startup(app, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(src); err != nil {
		t.Fatalf("BundleSetup: %v", err)
	}
	return c.Value
}

// TestOptionVariableNamedPredicted: an option variable called predicted
// reaches the application with its own value, not the controller's
// prediction, which the instance's namespace also names predicted.
func TestOptionVariableNamedPredicted(t *testing.T) {
	value := setupVars(t, "Pred", `
harmonyBundle Pred:1 b {
	{O
		{variable predicted {7}}
		{node n * {seconds 3} {memory 4}}
	}
}`)
	if v, ok := value("predicted"); !ok || v.IsString || v.Num != 7 {
		t.Fatalf("predicted = %+v, %v; want the option variable's 7", v, ok)
	}
	if v, ok := value("b.O.predicted"); !ok || v.Num != 7 {
		t.Fatalf("b.O.predicted = %+v, %v; want 7", v, ok)
	}
}

// TestOptionVariableNamedLikeNode: a variable named like one of its
// option's nodes keeps both: the variable's value under its name, and the
// node's placement under the node's name.
func TestOptionVariableNamedLikeNode(t *testing.T) {
	value := setupVars(t, "Twin", `
harmonyBundle Twin:1 b {
	{O
		{variable n {2}}
		{node n * {seconds 3} {memory 4}}
	}
}`)
	for name, want := range map[string]float64{"n": 2, "b.O.n": 2, "b.O.n.memory": 4, "b.O.n.seconds": 3} {
		if v, ok := value(name); !ok || v.IsString || v.Num != want {
			t.Errorf("%s = %+v, %v; want %g", name, v, ok, want)
		}
	}
	if v, ok := value("b.O.n.node"); !ok || !v.IsString || v.Str == "" {
		t.Errorf("b.O.n.node = %+v, %v; want a hostname", v, ok)
	}
}

// TestOptionNamedOption: the nodes of an option called option are published
// beside the bundle's option leaf, which names the chosen option.
func TestOptionNamedOption(t *testing.T) {
	value := setupVars(t, "Opt", `
harmonyBundle Opt:1 b {
	{option
		{node n * {seconds 3} {memory 4}}
	}
}`)
	if v, ok := value("b.option"); !ok || v.Str != "option" {
		t.Fatalf("b.option = %+v, %v; want option", v, ok)
	}
	if v, ok := value("b.option.n.memory"); !ok || v.Num != 4 {
		t.Errorf("b.option.n.memory = %+v, %v; want 4", v, ok)
	}
	if v, ok := value("b.option.n.node"); !ok || v.Str == "" {
		t.Errorf("b.option.n.node = %+v, %v; want a hostname", v, ok)
	}
}
