package spec_test

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/workload"
)

// The compatibility tables hold every inline spec literal in the
// repository's tests, scripts, docs and examples, each with the value
// that the three hand-written parsers this package replaced produced
// for it (recorded by running those parsers). An accepted spec must
// still parse to a reflect.DeepEqual value; a rejected one must still
// be rejected.

func TestFaultSpecCompatibility(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *fault.Schedule
	}{
		{"", &fault.Schedule{}},
		{"  ", &fault.Schedule{}},
		{"flap,nic=0,from=1e9,until=1.5e9; loss,rate=0.01 ;storm,cpu=1,period=250000,until=2e9", &fault.Schedule{Events: []fault.Event{{Kind: "flap", From: 1000000000, Until: 1500000000}, {Kind: "loss", NIC: -1, Rate: 0.01}, {Kind: "storm", CPU: 1, Until: 2000000000, PeriodCycles: 250000}}}},
		{"flap,nic=0,from=1e9,until=1.5e9;loss,rate=0.01", &fault.Schedule{Events: []fault.Event{{Kind: "flap", From: 1000000000, Until: 1500000000}, {Kind: "loss", NIC: -1, Rate: 0.01}}}},
		{"burst,penter=0.002,pexit=0.2,bad=0.9", &fault.Schedule{Events: []fault.Event{{Kind: "burst", NIC: -1, BadRate: 0.9, PEnterBad: 0.002, PExitBad: 0.2}}}},
		{"burst,penter=0.002,pexit=0.2,bad=0.9;flap,nic=0,from=1e8,until=1.2e8", &fault.Schedule{Events: []fault.Event{{Kind: "burst", NIC: -1, BadRate: 0.9, PEnterBad: 0.002, PExitBad: 0.2}, {Kind: "flap", From: 100000000, Until: 120000000}}}},
		{"delay,nic=0,delay=4e3,jitter=8e3", &fault.Schedule{Events: []fault.Event{{Kind: "delay", DelayCycles: 4000, JitterCycles: 8000}}}},
		{"flap,nic=0,from=4e6,until=8e6", &fault.Schedule{Events: []fault.Event{{Kind: "flap", From: 4000000, Until: 8000000}}}},
		{"flap,nic=0,from=8e7,until=1e8;flap,nic=3,from=1.6e8,until=1.8e8", &fault.Schedule{Events: []fault.Event{{Kind: "flap", From: 80000000, Until: 100000000}, {Kind: "flap", NIC: 3, From: 160000000, Until: 180000000}}}},
		{"loss,rate=0.005", &fault.Schedule{Events: []fault.Event{{Kind: "loss", NIC: -1, Rate: 0.005}}}},
		{"loss,rate=0.01", &fault.Schedule{Events: []fault.Event{{Kind: "loss", NIC: -1, Rate: 0.01}}}},
		{"loss,rate=2", &fault.Schedule{Events: []fault.Event{{Kind: "loss", NIC: -1, Rate: 2}}}},
		{"loss,rate=0", &fault.Schedule{Events: []fault.Event{{Kind: "loss", NIC: -1}}}},
		{"stall,nic=1,from=2e6,until=2.5e6", &fault.Schedule{Events: []fault.Event{{Kind: "stall", NIC: 1, From: 2000000, Until: 2500000}}}},
		{"storm,nic=2,cpu=1,period=4e5", &fault.Schedule{Events: []fault.Event{{Kind: "storm", NIC: 2, CPU: 1, PeriodCycles: 400000}}}},
		{"flap,from=1e12,until=2e12", &fault.Schedule{Events: []fault.Event{{Kind: "flap", NIC: -1, From: 1000000000000, Until: 2000000000000}}}},
		{"flap,nic=99,until=1e6", &fault.Schedule{Events: []fault.Event{{Kind: "flap", NIC: 99, Until: 1000000}}}},
		{"gremlin,rate=0.5", &fault.Schedule{Events: []fault.Event{{Kind: "gremlin", NIC: -1, Rate: 0.5}}}},
	} {
		got, err := fault.Parse(tc.in)
		if err != nil {
			t.Errorf("fault.Parse(%q): %v", tc.in, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fault.Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"loss,rate", "loss,rate=x", "loss,zorp=1", "flap,nic=banana"} {
		if _, err := fault.Parse(in); err == nil {
			t.Errorf("fault.Parse(%q) accepted a spec the old parser rejected", in)
		}
	}
}

func TestWorkloadSpecCompatibility(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *workload.Spec
	}{
		{"bulk", &workload.Spec{Kind: "bulk", ReqBytes: 384, RspBytes: 8192, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"bulk,alternate=true", &workload.Spec{Kind: "bulk", Alternate: true, ReqBytes: 384, RspBytes: 8192, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc", &workload.Spec{Kind: "rpc", ReqBytes: 384, RspBytes: 8192, Mix: "web", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc,req=512,rsp=16384,mix=fixed", &workload.Spec{Kind: "rpc", ReqBytes: 512, RspBytes: 16384, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=100000,interval=20000,arrival=pareto,alpha=1.3,mix=short,timeout=1e9", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "short", Conns: 100000, Arrival: "pareto", IntervalCycles: 20000, Alpha: 1.3, MaxIntervalCycles: 1280000, Backlog: 1024, TimeoutCycles: 1000000000}},
		{"OPENLOOP, Conns=10, Servers=2, Backlog=4", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 10, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Servers: 2, Backlog: 4, TimeoutCycles: 2000000000}},
		{"openloop", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=1000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 1000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=10000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=100000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 100000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=100000,arrival=pareto", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 100000, Arrival: "pareto", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=100000,interval=40000,arrival=pareto", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 100000, Arrival: "pareto", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=100000,interval=40000,arrival=pareto,mix=short", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "short", Conns: 100000, Arrival: "pareto", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=1500", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 1500, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=1500,arrival=pareto", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 1500, Arrival: "pareto", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=1500,interval=10000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 1500, Arrival: "poisson", IntervalCycles: 10000, Alpha: 1.5, MaxIntervalCycles: 640000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=1500,mix=short", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "short", Conns: 1500, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=2000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 2000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=20000,interval=40000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 20000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		// EXPERIMENTS.md's "interval=<gap>" at its other two loads.
		{"openloop,conns=20000,interval=80000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 20000, Arrival: "poisson", IntervalCycles: 80000, Alpha: 1.5, MaxIntervalCycles: 5120000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"openloop,conns=20000,interval=20000", &workload.Spec{Kind: "openloop", ReqBytes: 384, RspBytes: 2048, Mix: "fixed", Conns: 20000, Arrival: "poisson", IntervalCycles: 20000, Alpha: 1.5, MaxIntervalCycles: 1280000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc,mix=web", &workload.Spec{Kind: "rpc", ReqBytes: 384, RspBytes: 8192, Mix: "web", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc,mix=web,req=384", &workload.Spec{Kind: "rpc", ReqBytes: 384, RspBytes: 8192, Mix: "web", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc,req=384,mix=web", &workload.Spec{Kind: "rpc", ReqBytes: 384, RspBytes: 8192, Mix: "web", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
		{"rpc,req=384,rsp=8192,mix=fixed", &workload.Spec{Kind: "rpc", ReqBytes: 384, RspBytes: 8192, Mix: "fixed", Conns: 10000, Arrival: "poisson", IntervalCycles: 40000, Alpha: 1.5, MaxIntervalCycles: 2560000, Backlog: 1024, TimeoutCycles: 2000000000}},
	} {
		got, err := workload.Parse(tc.in)
		if err != nil {
			t.Errorf("workload.Parse(%q): %v", tc.in, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("workload.Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"", "warp", "openloop,conns", "openloop,zorp=1", "openloop,conns=x", "openloop,alpha=0.5", "openloop,backlog=-1", "rpc,mix=gopher", "openloop,arrival=uniform"} {
		if _, err := workload.Parse(in); err == nil {
			t.Errorf("workload.Parse(%q) accepted a spec the old parser rejected", in)
		}
	}
}

func TestCoalesceSpecCompatibility(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *netdev.CoalesceConfig
	}{
		{"", nil},
		{"legacy", &netdev.CoalesceConfig{Mode: "legacy"}},
		{"timer", &netdev.CoalesceConfig{Mode: "timer", Usecs: 50}},
		{"timer,usecs=100", &netdev.CoalesceConfig{Mode: "timer", Usecs: 100}},
		{"timer,usecs=50", &netdev.CoalesceConfig{Mode: "timer", Usecs: 50}},
		{"frames,frames=16", &netdev.CoalesceConfig{Mode: "frames", Usecs: 200, Frames: 16}},
		{"frames,usecs=80,frames=4", &netdev.CoalesceConfig{Mode: "frames", Usecs: 80, Frames: 4}},
		{"frames,frames=8", &netdev.CoalesceConfig{Mode: "frames", Usecs: 200, Frames: 8}},
		{"frames,frames=8,usecs=200", &netdev.CoalesceConfig{Mode: "frames", Usecs: 200, Frames: 8}},
		{"frames,frames=3,usecs=5000", &netdev.CoalesceConfig{Mode: "frames", Usecs: 5000, Frames: 3}},
		{"adaptive", &netdev.CoalesceConfig{Mode: "adaptive", Frames: 8, MinUsecs: 5, MaxUsecs: 250}},
		{"adaptive,min=20,max=400,frames=4", &netdev.CoalesceConfig{Mode: "adaptive", Frames: 4, MinUsecs: 20, MaxUsecs: 400}},
		{"adaptive,min=5,max=250", &netdev.CoalesceConfig{Mode: "adaptive", Frames: 8, MinUsecs: 5, MaxUsecs: 250}},
		{"adaptive,min=5,max=250,frames=8", &netdev.CoalesceConfig{Mode: "adaptive", Frames: 8, MinUsecs: 5, MaxUsecs: 250}},
		{"adaptive,min=50,max=400,frames=4", &netdev.CoalesceConfig{Mode: "adaptive", Frames: 4, MinUsecs: 50, MaxUsecs: 400}},
	} {
		got, err := netdev.ParseCoalesce(tc.in)
		if err != nil {
			t.Errorf("netdev.ParseCoalesce(%q): %v", tc.in, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("netdev.ParseCoalesce(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"warp", "timer,window=5", "timer,usecs=fast", "timer,usecs", "adaptive,min=9,max=3", "timer,usecs=banana"} {
		if _, err := netdev.ParseCoalesce(in); err == nil {
			t.Errorf("netdev.ParseCoalesce(%q) accepted a spec the old parser rejected", in)
		}
	}
}
