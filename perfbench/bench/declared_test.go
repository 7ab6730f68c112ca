package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestDeclaredMetrics keeps BENCHMARK.json and the benchmark's metric
// tables in step: same names, same units, same order. A
// trace_overhead.<m> row is traced minus untraced, so it improves in
// the direction <m> does.
func TestDeclaredMetrics(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer())
	better := map[string]string{"read_p99_ms": "lower"}
	for _, m := range decl.EndToEnd {
		better[m.Name] = m.Better
	}
	for _, m := range decl.PerLayer {
		if base, ok := strings.CutPrefix(m.Name, "trace_overhead."); ok && m.Better != better[base] {
			t.Errorf("%s: better %q, but %s is better %q", m.Name, m.Better, base, better[base])
		}
	}
}

type declared struct{ Name, Unit, Better string }
