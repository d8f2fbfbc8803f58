// Command benchgate compares two `go test -bench` output files — the
// merge-base run and the PR run — and fails when any benchmark matching
// a hot-path regex regressed beyond a threshold. It is the enforcement
// half of the CI bench-gate job: benchstat renders the human report,
// benchgate decides pass/fail, so the gate does not depend on parsing
// benchstat's output format.
//
// Usage:
//
//	benchgate -old base.txt -new pr.txt [-match REGEX] [-threshold 0.15]
//
// Both files may contain multiple samples per benchmark (go test
// -count=N); the comparison uses the median ns/op per name, which is
// robust to one noisy sample on shared CI runners. Benchmarks present
// in only one file are reported but never fail the gate (new or deleted
// benchmarks are not regressions). A benchmark also fails when its
// median allocs/op regresses beyond the threshold by at least one whole
// allocation: time catches slow code, allocation count the quieter
// regressions that show up later as GC pressure. Exit status: 0 ok, 1 regression, 2
// usage or parse error.
package main
