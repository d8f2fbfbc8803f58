package serve

import (
	"net/url"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// FuzzHTTPQuery feeds arbitrary query parameters to the HTTP decoders
// of every data-plane endpoint. The codec must never panic, and every
// request it decodes either passes Handle's checks or is refused with
// a 4xx status.
func FuzzHTTPQuery(f *testing.F) {
	f.Add("000000-111111,000001-111110", "250ms", "fail-link", "000000", "000001")
	f.Add(" 000000-000000 ,, ", "1ns", "recover-node", "111111", "")
	f.Add("000000+111111", "-1s", "fail-link", "000000", "000011")
	f.Add("0-1-2,banana", "banana", "explode", "1000000", "01")
	svc, err := build(faults.NewSet(topo.MustCube(6)), Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pairs, deadline, op, a, b string) {
		q := url.Values{
			"pairs": {pairs}, "deadline": {deadline},
			"op": {op}, "a": {a}, "b": {b},
			"src": {a}, "dst": {b},
		}
		for _, o := range []Op{OpRoute, OpBatch, OpRouteAll, OpFault} {
			var c Call
			err := svc.decodeQuery(o, q, &c)
			if err == nil {
				err = svc.check(&c)
			}
			if err == nil {
				continue
			}
			if st := refusalOf(err).status; st < 400 || st > 499 {
				t.Fatalf("op %d: %q refused with status %d, want 4xx", o, err, st)
			}
		}
	})
}
