package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		q       float64
		wantQ   float64
		wantVal float64
		ok      bool
	}{
		{n: 10, q: 0.5, ok: false},                                 // nothing has ten above it
		{n: 11, q: 0.99, wantQ: 1 - 10.0/11, wantVal: 1, ok: true}, // only the minimum does
		{n: 1000, q: 0.99, wantQ: 0.99, wantVal: 990, ok: true},    // exactly ten above p99
		{n: 500, q: 0.99, wantQ: 0.98, wantVal: 490, ok: true},     // lowered to p98
		{n: 200, q: 0.5, wantQ: 0.5, wantVal: 100, ok: true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Fatalf("n=%d q=%v: ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if !ok {
			continue
		}
		if got.Value != c.wantVal || got.N != c.n || abs(got.Q-c.wantQ) > 1e-12 {
			t.Fatalf("n=%d q=%v: got %+v, want value %v q %v", c.n, c.q, got, c.wantVal, c.wantQ)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d q=%v: only %d samples above the reported value", c.n, c.q, beyond)
		}
	}
}

func TestParseCPULine(t *testing.T) {
	a, err := parseCPULine("cpu  774725 11063 268551 1649501 18151 0 55733 112945 0 0")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 2890669 || a.steal != 112945 {
		t.Fatalf("got %+v", a)
	}
	b, _ := parseCPULine("cpu  774890 11063 268624 1649901 18151 0 55755 113045 0 0")
	if got := stolen(a, b); got != 100.0/760 {
		t.Fatalf("stolen %v, want %v", got, 100.0/760)
	}
	if _, err := parseCPULine("cpu0 1 2 3 4 5 6 7 8"); err == nil {
		t.Fatal("a per-CPU line must not parse as the machine's")
	}
	if _, err := parseCPULine("cpu 1 2 3 4"); err == nil {
		t.Fatal("a line without steal must not parse")
	}
}

// TestSlicedTail: a burst that fills one slice's tail moves the whole
// window's p99 but not the median of the slices' p99s, and a slice
// with too few samples fails the metric.
func TestSlicedTail(t *testing.T) {
	var xs []float64
	var at []time.Duration
	for i := 0; i < 5000; i++ {
		x := float64(i%1000 + 1) // 1..1000 in every slice
		if i >= 1000 && i < 1100 {
			x = 1e6 // a burst inside the second slice
		}
		xs = append(xs, x)
		at = append(at, time.Duration(i)*time.Millisecond)
	}
	whole, _ := percentile(sortedCopy(xs), 0.99)
	if whole.Value != 1e6 {
		t.Fatalf("whole-window p99 %v, want the burst", whole.Value)
	}
	got, ok := slicedTail(xs, at, 5*time.Second, 5, 0.99)
	if !ok || got.Value != 990 || got.N != 1000 || got.Q != 0.99 {
		t.Fatalf("sliced p99 %+v ok=%v, want 990 over slices of 1000", got, ok)
	}
	if _, ok := slicedTail(xs[:4000], at[:4000], 5*time.Second, 5, 0.99); ok {
		t.Fatal("an empty slice must fail the metric")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSLOLadder(t *testing.T) {
	pass := func(rate, p99 float64) Rung { return Rung{Rate: rate, Committed: rate, P99Ms: p99, P99OK: true} }
	cases := []struct {
		name  string
		rungs []Rung
		want  float64
		ok    bool
	}{
		{"highest passing rung", []Rung{pass(500, 10), pass(1000, 12), pass(2000, 30), pass(4000, 80)}, 2000, true},
		{"all pass", []Rung{pass(500, 10), pass(1000, 12)}, 1000, true},
		{"first fails", []Rung{pass(500, 60), pass(1000, 10)}, 0, false},
		{"a pass above a failure does not count", []Rung{pass(500, 10), pass(1000, 70), pass(2000, 20)}, 500, true},
		{"too few samples for a p99", []Rung{pass(500, 10), {Rate: 1000, Committed: 1000, P99Ms: 5}}, 500, true},
		{"backlog", []Rung{pass(500, 10), {Rate: 1000, Committed: 1000, P99Ms: 5, P99OK: true, Backlog: true}}, 500, true},
		{"generator late", []Rung{pass(500, 10), {Rate: 1000, Committed: 1000, P99Ms: 5, P99OK: true, GenLate: true}}, 500, true},
		{"under 98% committed", []Rung{pass(500, 10), {Rate: 1000, Committed: 979, P99Ms: 5, P99OK: true}}, 500, true},
		{"reports the committed rate", []Rung{{Rate: 1000, Committed: 990, P99Ms: 5, P99OK: true}}, 990, true},
	}
	for _, c := range cases {
		got, ok := slo.sloRate(c.rungs)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: got %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift the fields.
	line := "4242 (mdcc server) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 37 0 0 20 0 9 0 5000 123456789 2048 18446744073709551615"
	got, err := parseStatCPU(line)
	if err != nil || got != 187 {
		t.Fatalf("got %d, %v; want 187", got, err)
	}
	if _, err := parseStatCPU("4242 mdcc S 1"); err == nil {
		t.Fatal("a line without a command field parsed")
	}
	if _, err := parseStatCPU("4242 (mdcc) S 1 2 3"); err == nil {
		t.Fatal("a short line parsed")
	}
}

func TestParseStatusAndIO(t *testing.T) {
	status := "Name:\tmdcc-server\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseStatusKB(strings.NewReader(status), "VmHWM")
	if err != nil || got != 51234 {
		t.Fatalf("VmHWM: got %d, %v", got, err)
	}
	if _, err := parseStatusKB(strings.NewReader("Name:\tx\n"), "VmHWM"); err == nil {
		t.Fatal("missing VmHWM parsed")
	}
	if _, err := parseStatusKB(strings.NewReader("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Fatal("a line in the wrong unit parsed")
	}
	io := "rchar: 3980\nwchar: 77123\nsyscr: 9\n"
	if got, err := parseIOField(strings.NewReader(io), "wchar"); err != nil || got != 77123 {
		t.Fatalf("wchar: got %d, %v", got, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
}
