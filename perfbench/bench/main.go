// Command bench is the MDCC benchmark. One invocation runs one
// workload and prints, as its last line, a JSON object with the
// correctness verdict and the metrics: the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1. perfbench/run.py
// builds it with the servers and runs it; see ../README.md.
//
//	bench --workload hot-commute --seed 1 --seconds 20 --trace 0 \
//	      --bin-dir .bench_build/bin --work .bench_build/work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var (
	workload = flag.String("workload", "", "hot-commute | durable-rmw | wan-tpcw")
	seed     = flag.Int64("seed", 1, "input seed: key choices, blobs and the simulated world")
	seconds  = flag.Int("seconds", 20, "length of the measured window (live: wall seconds)")
	traceOn  = flag.Int("trace", 0, "1 = report the per-layer ledger instead of the end-to-end metrics")
	binDir   = flag.String("bin-dir", "", "directory holding the built mdcc-server and server")
	workDir  = flag.String("work", "", "working directory for data and logs (removed at exit)")
	srcRoot  = flag.String("src", "", "source tree the binaries were built from (for the env block)")
)

// Run limits: a run past runBudget aborts with no result.
const runBudget = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and the evidence printed beside them.
type report struct {
	metrics map[string]metric
	notes   map[string]string // per metric: sample count, percentile used
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// tail reports a percentile metric with its sample count.
func (r *report) tail(name string, t Tail, ok bool) {
	note := fmt.Sprintf("n=%d q=%.4f", t.N, t.Q)
	if !ok {
		note = fmt.Sprintf("n=%d: too few samples", t.N)
	}
	r.set(name, t.Value, "ms", note)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	flag.Parse()
	if *seconds < 1 || *binDir == "" || *workDir == "" {
		fail("need --seconds ≥ 1, --bin-dir and --work")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fail("%v", err)
	}
	work, err := os.MkdirTemp(*workDir, "run")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(work)
	time.AfterFunc(runBudget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: run exceeded %s\n", runBudget)
		os.Exit(3) // servers are reaped by the wrapper's process group
	})

	env := environment(work)
	blob, _ := json.Marshal(env)
	fmt.Printf("env %s\n", blob)

	var out result
	switch *workload {
	case "hot-commute", "durable-rmw":
		out = liveWorkload(*workload, work)
	case "wan-tpcw":
		out = wanWorkload()
	default:
		fail("unknown workload %q (want hot-commute, durable-rmw or wan-tpcw)", *workload)
	}
	os.RemoveAll(work)
	line, err := json.Marshal(out)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// print writes a report in name order, one metric a line.
func (r *report) print(title string) {
	fmt.Printf("== %s\n", title)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-44s %14.4f %-8s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

// checkLag marks a run invalid when its generator fell behind the
// schedule by more than lagBound in the measured window.
func checkLag(maxLag time.Duration) error {
	if maxLag > lagBound {
		return fmt.Errorf("generator ran %s late (bound %s): the load was not offered as scheduled", maxLag.Round(time.Millisecond), lagBound)
	}
	return nil
}

// binary returns a built program's path.
func binary(name string) string { return filepath.Join(*binDir, name) }
