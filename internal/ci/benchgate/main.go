package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"repro/internal/ci/benchparse"
)

// defaultMatch is the gated set: the Makefile's BENCH_HOT, anchored.
const defaultMatch = `^Benchmark(Unicast|GS|Repair|Serve|Flight|Wire)`

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	oldPath := fs.String("old", "", "bench output of the merge base")
	newPath := fs.String("new", "", "bench output of the PR head")
	match := fs.String("match", defaultMatch, "gate only benchmarks matching this regex")
	threshold := fs.Float64("threshold", 0.15, "fail when new median ns/op or allocs/op exceeds old by this fraction")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *oldPath == "" || *newPath == "" {
		return 2, fmt.Errorf("both -old and -new are required")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		return 2, fmt.Errorf("bad -match regex: %v", err)
	}

	oldRuns, err := parseFile(*oldPath)
	if err != nil {
		return 2, err
	}
	newRuns, err := parseFile(*newPath)
	if err != nil {
		return 2, err
	}

	report, regressions := compare(oldRuns, newRuns, re, *threshold)
	for _, line := range report {
		fmt.Fprintln(out, line)
	}
	if regressions > 0 {
		return 1, fmt.Errorf("%d hot-path benchmark(s) regressed beyond %.0f%%",
			regressions, *threshold*100)
	}
	fmt.Fprintf(out, "bench-gate: ok (%d gated benchmarks)\n", countGated(newRuns, re))
	return 0, nil
}

// samples holds the per-benchmark measurements of one bench file:
// ns/op is always present; allocs/op only when the benchmark reported
// allocations (b.ReportAllocs or -benchmem).
type samples struct {
	ns     []float64
	allocs []float64
}

// parseFile extracts per-benchmark ns/op and allocs/op samples from
// `go test -bench` output.
func parseFile(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return runs, nil
}

// parse groups samples by name with the GOMAXPROCS suffix stripped, so
// runs from differently sized machines still line up.
func parse(r io.Reader) (map[string]*samples, error) {
	out, err := benchparse.Parse(r)
	if err != nil {
		return nil, err
	}
	runs := map[string]*samples{}
	for _, res := range out.Results {
		ns, hasNS := res.Values["ns/op"]
		allocs, hasAllocs := res.Values["allocs/op"]
		if !hasNS && !hasAllocs {
			continue
		}
		s := runs[res.Name]
		if s == nil {
			s = &samples{}
			runs[res.Name] = s
		}
		if hasNS {
			s.ns = append(s.ns, ns)
		}
		if hasAllocs {
			s.allocs = append(s.allocs, allocs)
		}
	}
	return runs, nil
}

var median = benchparse.Median

// allocsRegressed applies the allocs/op rule: beyond the relative
// threshold AND at least one whole allocation worse. The absolute floor
// keeps sub-allocation jitter from tripping the relative test, while a
// 0 -> N jump (new allocation on a formerly allocation-free path) always
// fails, since any N exceeds 0*(1+threshold).
func allocsRegressed(om, nm, threshold float64) bool {
	return nm > om*(1+threshold) && nm-om >= 1
}

// compare builds the report and counts gated regressions. A benchmark
// counts once even if both metrics regressed.
func compare(oldRuns, newRuns map[string]*samples, re *regexp.Regexp, threshold float64) ([]string, int) {
	names := make([]string, 0, len(newRuns))
	for name := range newRuns {
		names = append(names, name)
	}
	sort.Strings(names)

	var report []string
	regressions := 0
	for _, name := range names {
		ns := newRuns[name]
		nv := median(ns.ns)
		os, ok := oldRuns[name]
		if !ok {
			report = append(report, fmt.Sprintf("  new   %-60s %12.1f ns/op", name, nv))
			continue
		}
		om := median(os.ns)
		delta := (nv - om) / om
		gated := re.MatchString(name)
		failed := gated && delta > threshold
		line := fmt.Sprintf("%-60s %12.1f -> %10.1f ns/op (%+.1f%%)", name, om, nv, delta*100)
		if len(os.allocs) > 0 && len(ns.allocs) > 0 {
			oa, na := median(os.allocs), median(ns.allocs)
			aDelta := 0.0
			if oa > 0 {
				aDelta = (na - oa) / oa * 100
			} else if na > 0 {
				aDelta = 100
			}
			if gated && allocsRegressed(oa, na, threshold) {
				failed = true
			}
			line += fmt.Sprintf(" | %.0f -> %.0f allocs/op (%+.1f%%)", oa, na, aDelta)
		}
		status := "  ok   "
		if gated {
			status = "  gate "
			if failed {
				status = "  FAIL "
				regressions++
			}
		}
		report = append(report, status+line)
	}
	var gone []string
	for name := range oldRuns {
		if _, ok := newRuns[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		report = append(report, "  gone  "+name)
	}
	return report, regressions
}

func countGated(runs map[string]*samples, re *regexp.Regexp) int {
	n := 0
	for name := range runs {
		if re.MatchString(name) {
			n++
		}
	}
	return n
}
