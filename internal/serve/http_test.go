package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
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

// TestRouteReplyMatchesMapEncoding pins the /route body to the bytes
// of the map-encoded reply it replaced (sorted keys, request_id present
// even when the flight recorder is off and the ID is 0).
func TestRouteReplyMatchesMapEncoding(t *testing.T) {
	for _, opts := range []Options{{}, {NoFlight: true}} {
		set := faults.NewSet(topo.MustCube(6))
		if err := set.FailNodes(3, 12, 33); err != nil {
			t.Fatal(err)
		}
		svc, err := build(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		c, rep := Call{Op: OpRoute, Src: 0, Dst: 63}, Reply{}
		if err := svc.Handle(context.Background(), &c, &rep); err != nil || (rep.FlightID == 0) != opts.NoFlight {
			t.Fatalf("NoFlight=%v: request ID %d, err %v", opts.NoFlight, rep.FlightID, err)
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		svc.writeReply(got, OpRoute, &rep)
		obs.ServeJSON(want, http.StatusOK, map[string]any{
			"generation": rep.Gen, "request_id": rep.FlightID, "route": svc.routeJSON(rep.Route),
		})
		if got.Body.String() != want.Body.String() {
			t.Fatalf("NoFlight=%v: struct body\n%s\nmap body\n%s", opts.NoFlight, got.Body, want.Body)
		}
	}
}
