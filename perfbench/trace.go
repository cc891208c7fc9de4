package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public entry point.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced round's spans in memory. A nil tracer records
// nothing, so untraced rounds pay only a nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span in progress; end records it.
type openSpan struct {
	tr *tracer
	s  span
	id uint64 // 0 when not tracing
}

func (t *tracer) start(name string, parent uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.next.Add(1)
	return openSpan{tr: t, id: id, s: span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

func (o openSpan) end() {
	if o.tr == nil {
		return
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// selfTimes sums, per layer (the span-name prefix before the first
// dot), each span's duration minus the part of it its children cover.
// Span IDs are per traced round, so each round is folded on its own.
func selfTimes(rounds [][]span) map[string]float64 {
	self := map[string]float64{}
	for _, spans := range rounds {
		roundSelf(spans, self)
	}
	return self
}

func roundSelf(spans []span, self map[string]float64) {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End-s.Start-covered) / 1e9
	}
}

// writeSpans writes the traced rounds' spans and the per-layer self
// times derived from them under the run's output directory.
func writeSpans(cfg runConfig, rounds [][]span) error {
	self := selfTimes(rounds)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "perfbench: span self time %-8s %.3f s\n", l, self[l])
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Rounds   [][]span           `json:"rounds"`
	}{cfg.workload, cfg.seed, self, rounds})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}

// fold is a CPU profile folded into per-layer self time and the
// cumulative time of named functions, in sampled nanoseconds.
type fold struct {
	total int64
	self  map[string]int64 // layer -> time of samples whose leaf frame is in it
	cum   map[string]int64 // metric -> time of samples with a matching frame
}

func newFold() fold { return fold{self: map[string]int64{}, cum: map[string]int64{}} }

// profiledLayers are the repository packages folded into <layer>.self_share
// (go = the Go runtime).
var profiledLayers = []string{"sim", "mem", "cpu", "kern", "apic", "tcp", "netdev", "workload", "stats", "core", "cache", "serve", "coord", "go"}

// cumulative maps a cumulative-share metric to the function-name
// prefixes that count toward it.
var cumulative = map[string][]string{
	"sim.coro_share":         {"repro/internal/sim.(*Coro).Park", "repro/internal/sim.(*Coro).Resume"},
	"mem.access_range_share": {"repro/internal/mem.(*Hierarchy).AccessRange"},
	"mem.directory_share":    {"repro/internal/mem.(*Directory)."},
	"cpu.begin_share":        {"repro/internal/cpu.(*Model).Begin"},
	"go.malloc_share":        {"runtime.mallocgc"},
	"go.gc_share":            {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"},
}

// layerOf maps a Go symbol to its layer: the repository package under
// internal/, "go" for the runtime, "other" for the rest.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	}
	return "other"
}

// add folds one CPU profile file into f. The toolchain's pprof prints
// it with -traces as one block per sample, its value then its frames,
// leaf first:
//
//	-----------+-------------------------------------------------------
//	      10ms   runtime.mallocgc
//	             repro/internal/tcp.(*Conn).send (inline)
//	             ...
func (f *fold) add(path string) error {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	var value int64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			f.sample(value, frames)
		}
		value, frames = 0, nil
	}
	inSample, first := false, false
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inSample, first = true, true
			continue
		case !inSample || strings.TrimSpace(line) == "":
			continue
		}
		frame := strings.TrimSpace(line)
		if first {
			v, rest, _ := strings.Cut(frame, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("go tool pprof -traces %s: sample value %q: %w", path, v, err)
			}
			value, frame, first = int64(d), strings.TrimSpace(rest), false
		}
		frames = append(frames, strings.TrimSuffix(frame, " (inline)"))
	}
	flush()
	return nil
}

// sample folds one sample of the given value (ns) and frames.
func (f *fold) sample(value int64, frames []string) {
	f.total += value
	f.self[layerOf(frames[0])] += value
	for metric, prefixes := range cumulative {
	match:
		for _, fr := range frames {
			for _, pre := range prefixes {
				if strings.HasPrefix(fr, pre) {
					f.cum[metric] += value
					break match
				}
			}
		}
	}
}

// shares reports the folded profile as shares of all samples.
func (f *fold) shares() map[string]float64 {
	out := map[string]float64{}
	if f.total == 0 {
		return out
	}
	for _, l := range profiledLayers {
		out[l+".self_share"] = float64(f.self[l]) / float64(f.total)
	}
	for m := range cumulative {
		out[m] = float64(f.cum[m]) / float64(f.total)
	}
	return out
}
