package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it: a "p99" over 300 samples is the third-largest value, not a
// 99th percentile, so the rule lowers the percentile until it holds.
const minBeyond = 10

// Tail is one reported percentile with the evidence behind it.
type Tail struct {
	Value float64 // the percentile, in the samples' unit
	Q     float64 // the percentile actually reported (≤ the one asked)
	N     int     // samples it was taken over
}

// percentile returns the highest percentile ≤ q that still has at
// least minBeyond samples above it (nearest-rank on sorted samples).
// ok is false when there are too few samples for any percentile.
func percentile(sorted []float64, q float64) (Tail, bool) {
	n := len(sorted)
	q, ok := limitQ(n, q)
	if !ok {
		return Tail{N: n}, false
	}
	// Nearest rank: the smallest value with at least q·n samples at or
	// below it. With q ≤ 1-10/n this leaves ≥ 10 samples above.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1-minBeyond { // rounding must not eat into the ten
		rank = n - 1 - minBeyond
	}
	return Tail{Value: sorted[rank], Q: q, N: n}, true
}

// limitQ lowers q until at least minBeyond of n samples lie above the
// q-th percentile; ok is false when n is too small for any percentile.
func limitQ(n int, q float64) (float64, bool) {
	if n <= minBeyond {
		return 0, false
	}
	if lim := 1 - float64(minBeyond)/float64(n); q > lim {
		q = lim
	}
	return q, true
}

// slicedTail is the median, over n equal slices of a window of length
// dur, of each slice's q-th percentile (by percentile's rule); at[i] is
// sample i's offset into the window. A burst of contention from outside
// the program lifts the tail of the slices it falls in, not the median
// slice. The Tail reports the lowest percentile and the fewest samples
// of any slice; ok is false when any slice has too few samples.
func slicedTail(xs []float64, at []time.Duration, dur time.Duration, n int, q float64) (Tail, bool) {
	slices := make([][]float64, n)
	for i, x := range xs {
		k := int(int64(at[i]) * int64(n) / int64(dur))
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		slices[k] = append(slices[k], x)
	}
	var vals []float64
	out := Tail{Q: q, N: len(xs)}
	for _, sl := range slices {
		t, ok := percentile(sortedCopy(sl), q)
		if !ok {
			return Tail{N: len(sl)}, false
		}
		vals = append(vals, t.Value)
		out.Q = math.Min(out.Q, t.Q)
		if t.N < out.N {
			out.N = t.N
		}
	}
	out.Value = median(vals)
	return out, true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (0 for an empty one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Rung is one step of an offered-load ladder.
type Rung struct {
	Rate      float64 // offered transactions per second
	Committed float64 // committed transactions per second
	P99Ms     float64
	P99OK     bool // enough samples for the tail rule
	Backlog   bool // in-flight work kept growing through the rung
	GenLate   bool // the generator itself could not keep the schedule
}

// SLO is the service level a ladder rung must meet to count.
type SLO struct {
	P99Ms        float64 // tail latency ceiling
	MinCommitted float64 // share of the offered rate that must commit
}

// passes reports whether a rung meets the SLO.
func (s SLO) passes(r Rung) bool {
	return r.P99OK && r.P99Ms <= s.P99Ms && !r.Backlog && !r.GenLate &&
		r.Committed >= s.MinCommitted*r.Rate
}

// sloRate returns the committed rate at the highest passing rung of a
// ladder climbed in increasing order; the climb stops at the first
// failing rung, so a pass above a failure does not count. ok is false
// when no rung passes.
func (s SLO) sloRate(rungs []Rung) (rate float64, ok bool) {
	for _, r := range rungs {
		if !s.passes(r) {
			break
		}
		rate, ok = r.Committed, true
	}
	return rate, ok
}

// procCPU is a process's cumulative user+system CPU time in clock
// ticks, read from /proc/<pid>/stat.
func procCPU(pid int) (int64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(blob))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is parenthesised
// and may itself contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(line string) (int64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %v", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %v", err)
	}
	return ut + st, nil
}

// cpuTimes is the machine's CPU time from the "cpu" line of
// /proc/stat, in clock ticks: all of it, and the part the hypervisor
// ran other guests on this machine's virtual CPUs (steal).
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() (cpuTimes, error) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	return parseCPULine(line)
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq
// steal ...". Guest time is already counted in user and nice, so the
// total is the first eight fields.
func parseCPULine(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: want the cpu line with 8 times, got %q", line)
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat field %d: %v", i, err)
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseInt(f[8], 10, 64)
	return t, nil
}

// stolen is the share of the machine's CPU time between a and b that
// went to steal.
func stolen(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// procHWM is a process's peak resident set (VmHWM) in KiB.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusKB(f, "VmHWM")
}

// parseStatusKB finds "<field>:   1234 kB" in a /proc/<pid>/status
// stream and returns the number.
func parseStatusKB(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", field, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status: no %s line", field)
}

// parseIOField finds "<field>: 1234" in a /proc/<pid>/io stream.
func parseIOField(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if ok && name == field {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("io: no %s line", field)
}
