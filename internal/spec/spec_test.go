package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type target struct {
	N     int
	U     uint64
	F     float64
	B     bool
	S     string
	Alias int
}

func (t *target) keys() Keys {
	return Keys{
		"n": &t.N, "u": &t.U, "f": &t.F, "b": &t.B, "s": &t.S,
		"alias": &t.Alias, "alias_long": &t.Alias,
	}
}

func TestBindConvertsByType(t *testing.T) {
	var got target
	kind, err := Bind(" KiNd , N=-3, u=1.5e9 ,F=0.25,b=true,S=Pareto,,alias_long=7,", got.keys())
	if err != nil {
		t.Fatal(err)
	}
	want := target{N: -3, U: 1_500_000_000, F: 0.25, B: true, S: "pareto", Alias: 7}
	if kind != "kind" || got != want {
		t.Fatalf("Bind = %q, %+v; want %q, %+v", kind, got, "kind", want)
	}
	// Exact integers beyond float64 precision stay exact.
	if _, err := Bind("k,u=18446744073709551615,n=-9223372036854775808", got.keys()); err != nil {
		t.Fatal(err)
	}
	if got.U != 1<<64-1 || got.N != -1<<63 {
		t.Fatalf("integer limits: u=%d n=%d", got.U, got.N)
	}
}

func TestBindRejects(t *testing.T) {
	for in, want := range map[string]string{
		"k,n":                    "n: not key=value",
		"k,zorp=1":               "zorp: unknown key (accepted: alias, alias_long, b, f, n, s, u)",
		"k,n=1,N=2":              "n: duplicate key",
		"k,alias=1,alias_long=2": "alias_long: duplicate key (already set as alias)",
		"k,f=nan":                "f: ",
		"k,f=inf":                "f: ",
		"k,f=-Inf":               "f: ",
		"k,f=1e400":              "f: ",
		"k,n=1.5":                "n: ",
		"k,n=nan":                "n: ",
		"k,n=1e19":               "n: ",
		"k,u=-1":                 "u: ",
		"k,u=nan":                "u: ",
		"k,u=2e19":               "u: ",
		"k,u=0.5":                "u: ",
		"k,b=maybe":              "b: ",
	} {
		if _, err := Bind(in, new(target).keys()); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Bind(%q) = %v, want an error starting %q", in, err, want)
		}
	}
}

func TestItems(t *testing.T) {
	got := Items(" a,x=1 ;; b ;")
	if want := []string{"a,x=1", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Items = %q, want %q", got, want)
	}
	if got := Items("  "); got != nil {
		t.Fatalf("Items(blank) = %q, want none", got)
	}
}

func TestReadFileIsStrict(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var v struct {
		A int `json:"a"`
	}
	if err := ReadFile(write("ok.json", ` {"a": 4} `), &v); err != nil || v.A != 4 {
		t.Fatalf("ReadFile = %v, a=%d", err, v.A)
	}
	for name, body := range map[string]string{
		"unknown.json":  `{"a": 1, "b": 2}`,
		"trailing.json": `{"a": 1} {"a": 2}`,
		"broken.json":   `{"a":`,
	} {
		if err := ReadFile(write(name, body), &v); err == nil {
			t.Errorf("ReadFile(%s) accepted %s", name, body)
		}
	}
	if err := ReadFile(filepath.Join(dir, "missing.json"), &v); err == nil {
		t.Error("ReadFile of a missing file did not fail")
	}
}
