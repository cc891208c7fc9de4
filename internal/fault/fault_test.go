package fault

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string // substring of the error
	}{
		{"unknown kind", Event{Kind: "gremlin"}, "unknown fault kind"},
		{"loss rate high", Event{Kind: KindLoss, NIC: -1, Rate: 1.5}, "outside [0,1]"},
		{"loss rate zero", Event{Kind: KindLoss, NIC: -1}, "does nothing"},
		{"burst inert", Event{Kind: KindBurst, NIC: -1, BadRate: 1}, "never enters"},
		{"burst bad prob", Event{Kind: KindBurst, NIC: -1, PEnterBad: -0.1}, "outside [0,1]"},
		// NaN fails every comparison, so each bound must be tested as
		// "inside", not "outside".
		{"loss rate NaN", Event{Kind: KindLoss, NIC: -1, Rate: math.NaN()}, "rate NaN outside [0,1]"},
		{"burst rate NaN", Event{Kind: KindBurst, NIC: -1, Rate: math.NaN(), PEnterBad: 0.1}, "rate NaN outside"},
		{"burst bad_rate NaN", Event{Kind: KindBurst, NIC: -1, BadRate: math.NaN(), PEnterBad: 0.1}, "bad_rate NaN outside"},
		{"burst p_enter_bad NaN", Event{Kind: KindBurst, NIC: -1, PEnterBad: math.NaN()}, "p_enter_bad NaN outside"},
		{"burst p_exit_bad NaN", Event{Kind: KindBurst, NIC: -1, PEnterBad: 0.1, PExitBad: math.NaN()}, "p_exit_bad NaN outside"},
		{"nic out of range", Event{Kind: KindFlap, NIC: 4, From: 1, Until: 2}, "outside machine"},
		{"nic below -1", Event{Kind: KindLoss, NIC: -2, Rate: 0.1}, "outside machine"},
		{"empty window", Event{Kind: KindFlap, NIC: 0, From: 10, Until: 10}, "is empty"},
		{"inverted window", Event{Kind: KindFlap, NIC: 0, From: 10, Until: 5}, "is empty"},
		{"beyond horizon", Event{Kind: KindFlap, NIC: 0, From: 2000, Until: 3000}, "beyond"},
		{"delay inert", Event{Kind: KindDelay, NIC: 0}, "no delay_cycles"},
		{"storm no period", Event{Kind: KindStorm, NIC: 0, CPU: 0}, "period_cycles"},
		{"storm cpu range", Event{Kind: KindStorm, NIC: 0, CPU: 7, PeriodCycles: 5}, "cpu 7 outside"},
		{"storm nic wildcard", Event{Kind: KindStorm, NIC: -1, CPU: 0, PeriodCycles: 5}, "must name one device"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate(4, 4, 1000)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsGoodSchedule(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindLoss, NIC: -1, Rate: 0.01},
		{Kind: KindBurst, NIC: 0, PEnterBad: 0.01, PExitBad: 0.3, BadRate: 0.9},
		{Kind: KindFlap, NIC: 1, From: 100, Until: 200},
		{Kind: KindDelay, NIC: -1, DelayCycles: 500, JitterCycles: 100},
		{Kind: KindStall, NIC: 2, From: 50, Until: 60},
		{Kind: KindStorm, NIC: 0, CPU: 3, From: 10, PeriodCycles: 1000},
	}}
	if err := s.Validate(4, 4, 1000); err != nil {
		t.Fatal(err)
	}
	var nilSched *Schedule
	if err := nilSched.Validate(0, 0, 0); err != nil {
		t.Fatalf("nil schedule: %v", err)
	}
	if !nilSched.Empty() || !(&Schedule{}).Empty() {
		t.Fatal("empty schedules not Empty")
	}
}

func TestParseInlineSpec(t *testing.T) {
	s, err := Parse("flap,nic=0,from=1e9,until=1.5e9; loss,rate=0.01 ;storm,cpu=1,period=250000,until=2e9")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindFlap, NIC: 0, From: 1_000_000_000, Until: 1_500_000_000},
		{Kind: KindLoss, NIC: -1, Rate: 0.01},
		{Kind: KindStorm, NIC: 0, CPU: 1, PeriodCycles: 250_000, Until: 2_000_000_000},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("parsed %+v, want %+v", s.Events, want)
	}
	for _, bad := range []string{"loss,rate", "loss,rate=x", "loss,zorp=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) did not fail", bad)
		}
	}
	if s, err := Parse("  "); err != nil || len(s.Events) != 0 {
		t.Fatalf("blank spec: %v, %+v", err, s)
	}
}

func TestParseJSONFile(t *testing.T) {
	want := &Schedule{Events: []Event{
		{Kind: KindBurst, NIC: 1, PEnterBad: 0.02, PExitBad: 0.25, BadRate: 0.8, From: 5},
	}}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip %+v, want %+v", got, want)
	}
	if _, err := Parse("@" + path + ".missing"); err == nil {
		t.Fatal("missing file did not fail")
	}
}

// TestOmittedNICMatchesAcrossForms: with nic omitted, the inline and
// JSON forms of every kind decode to the same event — every NIC for the
// wire and window faults, NIC 0 for a storm.
func TestOmittedNICMatchesAcrossForms(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ inline, json string }{
		{"loss,rate=0.01", `{"kind":"loss","rate":0.01}`},
		{"burst,penter=0.1,pexit=0.2,bad=0.9", `{"kind":"burst","p_enter_bad":0.1,"p_exit_bad":0.2,"bad_rate":0.9}`},
		{"flap,from=10,until=20", `{"kind":"flap","from":10,"until":20}`},
		{"delay,delay=400,jitter=100", `{"kind":"delay","delay_cycles":400,"jitter_cycles":100}`},
		{"stall,from=10,until=20", `{"kind":"stall","from":10,"until":20}`},
		{"storm,cpu=1,period=5000", `{"kind":"storm","cpu":1,"period_cycles":5000}`},
	} {
		inline, err := Parse(tc.inline)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "s.json")
		if err := os.WriteFile(path, []byte(`{"events":[`+tc.json+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := Parse("@" + path)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Schedule
		if err := json.Unmarshal([]byte(`{"events":[`+tc.json+`]}`), &decoded); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inline, fromFile) || !reflect.DeepEqual(*inline, decoded) {
			t.Errorf("%s: inline %+v, @file %+v, json.Unmarshal %+v", tc.inline, inline.Events, fromFile.Events, decoded.Events)
		}
		want := -1
		if inline.Events[0].Kind == KindStorm {
			want = 0
		}
		if got := inline.Events[0].NIC; got != want {
			t.Errorf("%s: nic %d, want %d", tc.inline, got, want)
		}
	}
}

func TestParseRejectsUnknownJSONFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(`{"events":[{"kind":"loss","rate":0.01,"nics":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("@" + path); err == nil {
		t.Fatal("a misspelled event field was silently ignored")
	}
}

// The Gilbert-Elliott chain must be deterministic under a seed and
// actually bursty: drops cluster while the chain sits in the bad
// state instead of scattering independently.
func TestBurstLossIsDeterministicAndBursty(t *testing.T) {
	run := func(seed uint64) []bool {
		rng := sim.NewRNG(seed)
		w := &nicFaults{events: []*wireEvent{{ev: &Event{
			Kind: KindBurst, PEnterBad: 0.02, PExitBad: 0.2, BadRate: 1.0,
		}}}}
		out := make([]bool, 5000)
		for i := range out {
			out[i] = w.Drop(sim.Time(i), rng, true)
		}
		return out
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different drop sequences")
	}
	drops, runs := 0, 0
	for i, d := range a {
		if d {
			drops++
			if i == 0 || !a[i-1] {
				runs++
			}
		}
	}
	if drops == 0 {
		t.Fatal("chain never dropped")
	}
	// BadRate 1.0 and mean bad-state dwell of 5 frames: far fewer
	// distinct runs than drops means the losses are correlated.
	if runs*2 >= drops {
		t.Fatalf("%d drops in %d runs — not bursty", drops, runs)
	}
	if c := run(12); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestDelayJitterBounded(t *testing.T) {
	rng := sim.NewRNG(3)
	w := &nicFaults{events: []*wireEvent{{ev: &Event{
		Kind: KindDelay, DelayCycles: 1000, JitterCycles: 400, From: 10, Until: 20,
	}}}}
	varied := false
	var prev uint64
	for i := 0; i < 200; i++ {
		d := w.ExtraDelay(15, rng, false)
		if d < 1000 || d > 1400 {
			t.Fatalf("delay %d outside [1000, 1400]", d)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter never varied")
	}
	if d := w.ExtraDelay(25, rng, false); d != 0 {
		t.Fatalf("delay %d outside window", d)
	}
	if w.Drop(15, rng, true) {
		t.Fatal("delay event dropped a frame")
	}
}

// Outside every window the composite consumes no randomness, so a
// schedule whose windows have passed perturbs nothing downstream.
func TestInactiveWindowDrawsNothing(t *testing.T) {
	rng := sim.NewRNG(5)
	w := &nicFaults{events: []*wireEvent{
		{ev: &Event{Kind: KindLoss, Rate: 1.0, From: 100, Until: 200}},
		{ev: &Event{Kind: KindBurst, PEnterBad: 1, PExitBad: 0, BadRate: 1, From: 100, Until: 200}},
	}}
	before := rng.Uint64()
	_ = before
	probe := sim.NewRNG(5)
	probe.Uint64()
	if w.Drop(50, probe, true) {
		t.Fatal("dropped outside window")
	}
	if got, want := probe.Uint64(), rng.Uint64(); got != want {
		t.Fatal("inactive window consumed randomness")
	}
}
