package namespace

import (
	"fmt"
	"testing"
)

func BenchmarkSetNum(b *testing.B) {
	tr := New()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("DBclient.%d.where.DS.client.memory", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.SetNum(paths[i%len(paths)], float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetNum(b *testing.B) {
	tr := New()
	const path = "DBclient.66.where.DS.client.memory"
	if err := tr.SetNum(path, 24); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.GetNum(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalk(b *testing.B) {
	tr := New()
	for i := 0; i < 100; i++ {
		if err := tr.SetNum(fmt.Sprintf("app.%d.predicted", i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := tr.Walk("", func(string, Value) { count++ }); err != nil {
			b.Fatal(err)
		}
	}
}
