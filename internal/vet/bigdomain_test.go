package vet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"harmony/internal/rsl"
)

// TestVetBigDomain: a spec whose two options each range workerNodes over
// 1..10000 expands to 20 000 choices, over the cap the controller
// enumerates. Vet refuses it with one too-many-choices error, quickly and
// without enumerating: the checks that need a binding stay silent, and those
// that need none still run.
func TestVetBigDomain(t *testing.T) {
	var vals strings.Builder
	for i := 1; i <= 10000; i++ {
		fmt.Fprintf(&vals, "%d ", i)
	}
	domain := strings.TrimSpace(vals.String())
	src := `harmonyBundle big:1 sweep {
	{a
		{node w * {memory 8} {seconds {300 / (workerNodes - 5000)}} {replicate workerNodes}}
		{friction {workerNodes - 20000}}
		{variable workerNodes {` + domain + `}}
	}
	{b
		{node w * {memory 8} {seconds {300 / (workerNodes - 5000)}} {replicate workerNodes}}
		{friction {workerNodes - 20000}}
		{granularity -1}
		{variable workerNodes {` + domain + `}}
	}
}
`
	start := time.Now()
	rep := Script(src, Options{ExtraNodes: []*rsl.NodeDecl{{Hostname: "h", MemoryMB: 64}}})
	if took := time.Since(start); took > time.Second {
		t.Errorf("vetting took %v", took)
	}
	var got []string
	for _, d := range rep.Diags {
		got = append(got, d.Check)
	}
	// The constant granularity needs no binding; every other finding would.
	if strings.Join(got, " ") != "too-many-choices negative-tag" {
		t.Fatalf("checks %v, want too-many-choices and the constant negative-tag: %v", got, rep.Diags)
	}
	d := rep.Diags[0]
	if d.Severity != SevError || d.Line != 1 || !strings.Contains(d.Message, "20000 choices, over the cap of 4096") {
		t.Errorf("refusal = %s", d)
	}
}
