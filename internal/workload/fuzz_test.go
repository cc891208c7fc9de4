package workload

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse: no input panics, no accepted spec holds a NaN or infinite
// alpha, and every accepted spec survives the @file form unchanged. The
// corpus seeds are the spec literals of this package's tests and
// scripts/workload_smoke.sh.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"bulk", "bulk,alternate=true", "rpc", "rpc,req=512,rsp=16384,mix=fixed",
		"openloop,conns=100000,interval=20000,arrival=pareto,alpha=1.3,mix=short,timeout=1e9",
		"OPENLOOP, Conns=10, Servers=2, Backlog=4", "openloop",
		"", "warp", "openloop,conns", "openloop,zorp=1", "openloop,conns=x",
		"openloop,alpha=0.5", "openloop,backlog=-1", "rpc,mix=gopher",
		"openloop,arrival=uniform", "openloop,conns=10000",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if strings.HasPrefix(strings.TrimSpace(in), "@") {
			return // a file name, not a spec: the round trip below covers @file
		}
		s, err := Parse(in)
		if err != nil {
			return
		}
		if math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) {
			t.Fatalf("Parse(%q) accepted a non-finite alpha: %+v", in, s)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v does not marshal: %v", in, s, err)
		}
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Parse("@" + path)
		if err != nil {
			t.Fatalf("Parse(%q) round trip: %v (%s)", in, err, data)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("Parse(%q) = %+v, @file round trip %+v", in, s, back)
		}
	})
}
