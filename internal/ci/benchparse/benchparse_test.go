package benchparse

import (
	"strings"
	"testing"
)

func TestParseKeepsProcsAndEveryUnit(t *testing.T) {
	out, err := Parse(strings.NewReader(`cpu: Intel(R) Xeon(R) Processor
BenchmarkServeWireBatch        	   3000	    180000 ns/op	      2800 ns/route	   65536 B/op	    1026 allocs/op
BenchmarkServeWireBatch-2      	   4000	    120000 ns/op	      1900 ns/route	   65536 B/op	    1026 allocs/op
BenchmarkNoisy-2               	some output the benchmark printed
cpu: another header
`))
	if err != nil || out.CPU != "Intel(R) Xeon(R) Processor" || len(out.Results) != 2 {
		t.Fatalf("Parse = %+v, %v; want the first cpu header and two results", out, err)
	}
	for i, r := range out.Results {
		if r.Name != "BenchmarkServeWireBatch" || r.Procs != i+1 || len(r.Values) != 4 {
			t.Fatalf("result %d = %+v, want BenchmarkServeWireBatch at %d procs with four units", i, r, i+1)
		}
	}
	if got := out.Results[1].Values["ns/route"]; got != 1900 {
		t.Fatalf("ns/route = %v, want 1900", got)
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-2 100 abc ns/op\n")); err == nil {
		t.Fatal("a non-numeric value parsed")
	}
}
