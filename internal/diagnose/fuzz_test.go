package diagnose

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// fuzzShapes are the topologies FuzzParseSyndrome decodes against,
// chosen by the fuzzer's shape byte.
var fuzzShapes = []topo.Topology{
	topo.MustCube(3),
	topo.MustCube(4),
	topo.MustMixed(2, 3),
	topo.MustMixed(3, 3),
}

// FuzzParseSyndrome feeds arbitrary bytes to ParseSyndrome — the parser
// behind slserve's -diagnose-target fetch, which reads a syndrome from
// another process. It must never panic; whatever it accepts must hold
// tests only in real neighbor slots, report results only for completed
// tests, re-encode to a byte-stable fixpoint, and decode without
// panicking.
func FuzzParseSyndrome(f *testing.F) {
	for i, tp := range fuzzShapes {
		set := faults.NewSet(tp)
		if err := set.FailNodes(1, topo.NodeID(tp.Nodes()-2)); err != nil {
			f.Fatal(err)
		}
		syn := Collect(set, CollectOptions{Seed: 3, Adversary: AdversaryRandom})
		data, err := json.Marshal(syn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i))
	}
	f.Add([]byte(`{"format":"pmc-bitset-v1","dim":3,"nodes":8,"degree":3,"radix":[2,2,2],"tests":0,"tested_b64":"AAAAAAAAAAA=","result_b64":"AAAAAAAAAAA="}`), uint8(0))
	f.Add([]byte(`{"format":"pmc-bitset-v1"}`), uint8(1))
	f.Add([]byte(`not json`), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		tp := fuzzShapes[int(shape)%len(fuzzShapes)]
		syn, err := ParseSyndrome(data, tp)
		if err != nil {
			return
		}
		slots := tp.Nodes() * tp.Degree()
		for i := 0; i < 64*len(syn.tested); i++ {
			tested, result := syn.tested.Test(i), syn.result.Test(i)
			if tested && i >= slots {
				t.Fatalf("accepted a test in padding slot %d of %d", i, slots)
			}
			if result && !tested {
				t.Fatalf("accepted a result in untested slot %d", i)
			}
		}
		enc, err := json.Marshal(syn)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSyndrome(enc, tp)
		if err != nil {
			t.Fatalf("re-encoded syndrome rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) || again.Tests() != syn.Tests() {
			t.Fatalf("encoding not stable:\n%s\n%s", enc, enc2)
		}
		Decode(syn, Options{MaxBranches: 1 << 12})
	})
}
