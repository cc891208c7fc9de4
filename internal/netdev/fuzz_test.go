package netdev

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse: no input panics and every accepted config survives the
// @file form unchanged (CoalesceConfig has no float field, so the
// binder's integer conversion is what keeps NaN and ±Inf out). The
// corpus seeds are the spec literals of this package's tests and
// scripts/reorder_smoke.sh.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "legacy", "timer", "timer,usecs=100", "frames,frames=16",
		"frames,usecs=80,frames=4", "adaptive", "adaptive,min=20,max=400,frames=4",
		"warp", "timer,window=5", "timer,usecs=fast", "timer,usecs",
		"adaptive,min=9,max=3", "frames,frames=3,usecs=5000",
		"adaptive,min=50,max=400,frames=4", "timer,usecs=banana",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if strings.HasPrefix(strings.TrimSpace(in), "@") {
			return // a file name, not a spec: the round trip below covers @file
		}
		c, err := ParseCoalesce(in)
		if err != nil || c == nil {
			return // rejected, or the blank spec's legacy nil
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("ParseCoalesce(%q) = %+v does not marshal: %v", in, c, err)
		}
		path := filepath.Join(t.TempDir(), "c.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := ParseCoalesce("@" + path)
		if err != nil {
			t.Fatalf("ParseCoalesce(%q) round trip: %v (%s)", in, err, data)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("ParseCoalesce(%q) = %+v, @file round trip %+v", in, c, back)
		}
	})
}
