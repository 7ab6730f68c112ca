package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload for two seconds, untraced and traced,
// and requires a correct result carrying every metric it declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and boots deployments")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), ".", "../server", "mdcc/cmd/mdcc-server")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, w := range []string{"hot-commute", "durable-rmw", "wan-tpcw"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "bench"), "--workload", w, "--seed", "3", "--seconds", "2",
					"--trace", trace, "--bin-dir", bin, "--work", t.TempDir())
				var out bytes.Buffer
				cmd.Stdout = &out
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				want := endToEndNames()
				if trace == "1" {
					want = perLayerNames()
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				for _, n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("metric %s missing", n)
					}
				}
			})
		}
	}
}
