package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOld = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkUnicastByDimension/q8-8         	  100000	      1000 ns/op
BenchmarkUnicastByDimension/q8-8         	  100000	      1100 ns/op
BenchmarkUnicastByDimension/q8-8         	  100000	      1050 ns/op
BenchmarkGSByDimension/q8-8              	    5000	     20000 ns/op	  1234 B/op	  56 allocs/op
BenchmarkRepairLevels-8                  	   50000	     30000 ns/op
BenchmarkServeRoute/readers=16/churn=true-8 	  200000	      2000 ns/op
BenchmarkRetired-8                       	    1000	      9999 ns/op
PASS
`

const sampleNew = `BenchmarkUnicastByDimension/q8-4         	  100000	      1049 ns/op
BenchmarkUnicastByDimension/q8-4         	  100000	      1060 ns/op
BenchmarkUnicastByDimension/q8-4         	  100000	      1055 ns/op
BenchmarkGSByDimension/q8-4              	    5000	     26000 ns/op	  2000 B/op	  70 allocs/op
BenchmarkRepairLevels-4                  	   50000	     31000 ns/op
BenchmarkServeRoute/readers=16/churn=true-4 	  200000	      9000 ns/op
BenchmarkBrandNew-4                      	    1000	       100 ns/op
ok  	repro	1.0s
`

func TestParseStripsProcSuffixAndCollectsSamples(t *testing.T) {
	runs, err := parse(strings.NewReader(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	got := runs["BenchmarkUnicastByDimension/q8"]
	if got == nil || len(got.ns) != 3 {
		t.Fatalf("want 3 samples, got %v", got)
	}
	if m := median(got.ns); m != 1050 {
		t.Fatalf("median = %v, want 1050", m)
	}
	if len(got.allocs) != 0 {
		t.Fatalf("unexpected allocs samples without -benchmem: %v", got.allocs)
	}
	gs := runs["BenchmarkGSByDimension/q8"]
	if gs == nil || len(gs.ns) != 1 || gs.ns[0] != 20000 {
		t.Fatalf("GS ns samples = %v", gs)
	}
	if len(gs.allocs) != 1 || gs.allocs[0] != 56 {
		t.Fatalf("GS allocs samples = %v, want [56]", gs.allocs)
	}
	if _, ok := runs["BenchmarkRepairLevels-8"]; ok {
		t.Fatal("proc suffix not stripped")
	}
}

func TestMedianEven(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestAllocsRegressedRule(t *testing.T) {
	cases := []struct {
		om, nm float64
		want   bool
	}{
		{0, 0, false},   // allocation-free stays allocation-free
		{0, 1, true},    // new allocation on a formerly clean path
		{56, 60, false}, // +7% under threshold
		{56, 70, true},  // +25% and 14 allocs worse
		{2, 2.4, false}, // +20% but under the 1-alloc absolute floor
		{4, 5, true},    // +25% and exactly one alloc worse
	}
	for _, c := range cases {
		if got := allocsRegressed(c.om, c.nm, 0.15); got != c.want {
			t.Errorf("allocsRegressed(%v, %v) = %v, want %v", c.om, c.nm, got, c.want)
		}
	}
}

func TestCompareGatesOnlyMatchedNames(t *testing.T) {
	oldRuns, _ := parse(strings.NewReader(sampleOld))
	newRuns, _ := parse(strings.NewReader(sampleNew))
	re := regexp.MustCompile(`^Benchmark(Unicast|GS|Repair)`)

	// GS regressed 30% ns/op and 25% allocs/op (gated -> one fail, not
	// two); ServeRoute regressed 350% but is not gated; Unicast moved
	// +0.5% (within threshold); Repair +3.3%.
	report, regressions := compare(oldRuns, newRuns, re, 0.15)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (report:\n%s)", regressions, strings.Join(report, "\n"))
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{
		"FAIL ", "BenchmarkGSByDimension/q8",
		"56 -> 70 allocs/op",
		"new   BenchmarkBrandNew",
		"gone  BenchmarkRetired",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("report missing %q:\n%s", want, joined)
		}
	}
	// The unguarded serve benchmark appears as plain ok despite its jump.
	if !strings.Contains(joined, "ok   BenchmarkServeRoute/readers=16/churn=true") {
		t.Fatalf("ungated benchmark not reported ok:\n%s", joined)
	}
}

func TestCompareFailsOnAllocsOnlyRegression(t *testing.T) {
	// ns/op flat, allocs/op 4 -> 8: the time gate alone would pass this.
	oldRuns, _ := parse(strings.NewReader(
		"BenchmarkRepairLevels-8 50000 30000 ns/op 4427 B/op 4 allocs/op\n"))
	newRuns, _ := parse(strings.NewReader(
		"BenchmarkRepairLevels-8 50000 30100 ns/op 9000 B/op 8 allocs/op\n"))
	re := regexp.MustCompile(`^BenchmarkRepair`)

	report, regressions := compare(oldRuns, newRuns, re, 0.15)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (report:\n%s)", regressions, strings.Join(report, "\n"))
	}
	joined := strings.Join(report, "\n")
	if !strings.Contains(joined, "FAIL ") || !strings.Contains(joined, "4 -> 8 allocs/op") {
		t.Fatalf("allocs regression not reported:\n%s", joined)
	}

	// A benchmark that only reports allocs on one side is gated on time
	// alone rather than erroring out.
	newNoAllocs, _ := parse(strings.NewReader(
		"BenchmarkRepairLevels-8 50000 30100 ns/op\n"))
	report, regressions = compare(oldRuns, newNoAllocs, re, 0.15)
	if regressions != 0 {
		t.Fatalf("one-sided allocs data caused failure:\n%s", strings.Join(report, "\n"))
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	if err := os.WriteFile(oldPath, []byte(sampleOld), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(sampleNew), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	code, err := run([]string{"-old", oldPath, "-new", newPath}, &out)
	if code != 1 || err == nil {
		t.Fatalf("want regression exit 1, got code %d err %v\n%s", code, err, out.String())
	}
	// The default match covers the serving hot path too.
	if !strings.Contains(out.String(), "FAIL BenchmarkServeRoute/readers=16/churn=true") {
		t.Fatalf("default match did not gate the serve benchmark:\n%s", out.String())
	}

	// With a generous threshold and the serve family excluded via
	// -match, the same files pass (GS's 30% ns and 25% allocs sit
	// under 50%).
	out.Reset()
	code, err = run([]string{"-old", oldPath, "-new", newPath,
		"-threshold", "0.5", "-match", "^Benchmark(Unicast|GS|Repair)"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("want pass, got code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "bench-gate: ok") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}

	// Usage errors.
	if code, err := run([]string{"-old", oldPath}, &out); code != 2 || err == nil {
		t.Fatalf("missing -new: code %d err %v", code, err)
	}
	if code, err := run([]string{"-old", oldPath, "-new", newPath, "-match", "("}, &out); code != 2 || err == nil {
		t.Fatalf("bad regex: code %d err %v", code, err)
	}
	if code, err := run([]string{"-old", "nope.txt", "-new", newPath}, &out); code != 2 || err == nil {
		t.Fatalf("missing file: code %d err %v", code, err)
	}
}

// TestDefaultMatchFollowsMakefile keeps the gate and `make bench-hot`
// on one benchmark set: a family the Makefile runs but the default
// -match skips (or the reverse) would go unwatched.
func TestDefaultMatchFollowsMakefile(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^BENCH_HOT = (.+)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile defines no BENCH_HOT")
	}
	if hot := "^" + strings.TrimSpace(string(m[1])); hot != defaultMatch {
		t.Fatalf("Makefile BENCH_HOT %q differs from benchgate's default -match %q", hot, defaultMatch)
	}
}
