// Package benchparse reads the text output of `go test -bench`: one
// result per benchmark line, keyed by name and GOMAXPROCS, with every
// reported unit. benchgate and the BENCH_*.json ledger both read bench
// output through it.
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line: the name without its -N GOMAXPROCS
// suffix (sub-benchmarks keep their slash path), the GOMAXPROCS it ran
// at, and the value of each unit on the line (ns/op, B/op, allocs/op
// and every b.ReportMetric unit).
type Result struct {
	Name   string
	Procs  int
	Values map[string]float64
}

// Output is a parsed bench run; CPU is its first "cpu:" header.
type Output struct {
	CPU     string
	Results []Result
}

// Parse reads `go test -bench` output. Lines that are not benchmark
// results are skipped; a result value that is not a number is an
// error.
func Parse(r io.Reader) (*Output, error) {
	out := &Output{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && out.CPU == "" {
			out.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // benchmark output interleaved with the result
		}
		res := Result{Values: map[string]float64{}}
		res.Name, res.Procs = trimProcSuffix(fields[0])
		// After the iteration count, each value precedes its unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s value in %q", fields[i+1], line)
			}
			res.Values[fields[i+1]] = v
		}
		out.Results = append(out.Results, res)
	}
	return out, sc.Err()
}

// trimProcSuffix splits the -N GOMAXPROCS suffix go test appends to
// benchmark names (BenchmarkFoo/bar=1-8 -> BenchmarkFoo/bar=1, 8). go
// test omits the suffix at GOMAXPROCS=1, so a name without one ran at 1.
func trimProcSuffix(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], procs
		}
	}
	return name, 1
}

// Median returns the median of v without reordering it.
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
