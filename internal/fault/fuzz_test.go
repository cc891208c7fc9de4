package fault

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse: no input panics, no accepted schedule holds a NaN or
// infinite probability, and every accepted schedule survives the @file
// form unchanged. The corpus seeds are the spec literals of this
// package's tests and scripts/fault_smoke.sh.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"flap,nic=0,from=1e9,until=1.5e9; loss,rate=0.01 ;storm,cpu=1,period=250000,until=2e9",
		"loss,rate", "loss,rate=x", "loss,zorp=1", "  ",
		"loss,rate=0.01", "burst,penter=0.1,pexit=0.2,bad=0.9", "flap,from=10,until=20",
		"delay,delay=400,jitter=100", "stall,from=10,until=20", "storm,cpu=1,period=5000",
		"burst,penter=0.002,pexit=0.2,bad=0.9", "flap,nic=0,from=4e6,until=8e6",
		"delay,nic=0,delay=4e3,jitter=8e3", "stall,nic=1,from=2e6,until=2.5e6",
		"storm,nic=2,cpu=1,period=4e5", "loss,rate=2",
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
		for _, e := range s.Events {
			for _, p := range []float64{e.Rate, e.BadRate, e.PEnterBad, e.PExitBad} {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("Parse(%q) accepted a non-finite value: %+v", in, e)
				}
			}
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
