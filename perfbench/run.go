package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	tiny     bool // the seconds-long shape of each workload the self-test runs
	outDir   string
	refs     map[string]string
}

// workloads run one round each — a fixed unit of closed-loop work —
// and record what they measured into an acc.
var workloads = map[string]func(b *bench, a *acc) error{
	"bulk_64k":    bulkRound,
	"churn_10k":   churnRound,
	"fleet_sweep": fleetRound,
}

// bench is the per-run state a round sees: the configuration, the
// simulation seed and, in a traced round, the span recorder.
type bench struct {
	cfg     runConfig
	simSeed uint64
	tr      *tracer // nil in untraced rounds
}

// simSeed maps a workload seed onto the 16 simulation seeds the
// reference table covers: equal seeds give equal inputs, and seeds that
// differ mod 16 give different simulated outputs.
func simSeed(seed int64) uint64 {
	if seed < 0 {
		seed = -seed
	}
	return 1 + uint64(seed%16)
}

// output is the benchmark's result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the workload's rounds, gates and measures them, and
// assembles the result line.
func run(cfg runConfig) (*output, error) {
	round, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want bulk_64k, churn_10k or fleet_sweep)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, simSeed: simSeed(cfg.seed)}
	plain, traced := newAcc(), newAcc()
	heap := startHeapSampler(5 * time.Millisecond)
	spans, err := runRounds(b, round, plain, traced)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}

	out := &output{Metrics: map[string]metricValue{}}
	for _, a := range []*acc{plain, traced} {
		out.Attempted += a.attempted
		out.Failed += a.failed
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	var vals map[string]float64
	if cfg.traced {
		vals = layerMetrics(traced, plain, out)
		zeroUnloaded(cfg.workload, vals)
		if err := writeSpans(cfg, spans); err != nil {
			return nil, err
		}
	} else {
		vals = endToEndMetrics(plain, peak)
	}
	for _, m := range metricTable {
		if m.layer != cfg.traced {
			continue
		}
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A reading that could not be taken is reported missing,
			// never as 0.
			fmt.Fprintf(os.Stderr, "perfbench: %s: no reading on this run\n", m.name)
			continue
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}

// runRounds repeats rounds until the next would overrun the budget
// (always at least one). A traced run alternates untraced and traced
// rounds, at least one of each; traced rounds record spans and a CPU
// profile into traced, untraced ones record into plain. It returns each
// traced round's spans.
func runRounds(b *bench, round func(*bench, *acc) error, plain, traced *acc) ([][]span, error) {
	minRounds := 1
	if b.cfg.traced {
		minRounds = 2
	}
	var spans [][]span
	start := time.Now()
	var last time.Duration
	for i := 0; i < minRounds || time.Since(start)+last <= b.cfg.budget; i++ {
		a := plain
		var prof *os.File
		if b.cfg.traced && i%2 == 1 {
			a = traced
			b.tr = newTracer()
			var err error
			prof, err = os.Create(filepath.Join(b.cfg.outDir, fmt.Sprintf("cpu-%s-seed%d-round%d.pprof", b.cfg.workload, b.cfg.seed, i)))
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
				return nil, fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		t0 := time.Now()
		err := round(b, a)
		last = time.Since(t0)
		a.roundTotal = append(a.roundTotal, last.Seconds())
		if b.tr != nil {
			pprof.StopCPUProfile()
			spans = append(spans, b.tr.spans)
			b.tr = nil
			if cerr := prof.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = a.prof.add(prof.Name())
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// acc accumulates one kind of round's measurements (untraced or
// traced). Fleet workers record into it from several goroutines.
type acc struct {
	mu sync.Mutex

	setup      []float64 // s: NewMachine per cell, or fleet start per round
	wall       []float64 // s per round, set-up and gate work excluded
	roundTotal []float64 // s per round, everything included
	cells      int       // cells completed (fleet: cold cells)
	cellTime   float64   // s summed over cells, set-up included
	cellS      []float64 // s per cell, set-up excluded
	measureS   float64   // host s spent in Measure
	warmMs     []float64 // ms per warm fleet replay

	// core phases, per cell
	setupMs, warmupS, measureSs, shutdownMs, exportMs []float64

	// sim, PMU, tcp, netdev, workload: sums over results
	results                           int
	fired, cancelled, scheduled, band float64
	peakPending                       []float64
	simHostS                          float64 // host s in Eng.Run + Measure
	pmu                               map[string]float64
	latP99                            []float64

	// Go runtime, per allocation sample
	allocs, allocMB []float64
	allocKevents    float64 // thousands of events fired over allocation samples
	allocObjs       float64
	allocCells      float64
	gcCycles        float64

	// serve, cache, coord
	handlerMs, simMs, rttMs []float64
	waitMs                  []float64
	counters                map[string]float64 // summed over rounds

	prof fold

	attempted, failed int
}

func newAcc() *acc {
	return &acc{pmu: map[string]float64{}, counters: map[string]float64{}, prof: newFold()}
}

// check is the correctness gate for one output: its bytes must hash to
// the reference digest recorded for key, and problem (abort, invariant
// violation, incomplete churn cell) must be empty.
func (a *acc) check(refs map[string]string, key string, got []byte, problem string) {
	sum := sha256.Sum256(got)
	digest := hex.EncodeToString(sum[:])
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	want, ok := refs[key]
	switch {
	case problem != "":
		a.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", key, problem)
	case !ok:
		a.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: no reference digest\n", key)
	case digest != want:
		a.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: output digest %s, reference %s\n", key, digest, want)
	}
}

// quantile is the linearly interpolated q-quantile of xs (NaN when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantiles are the percentiles a _tail metric may report, highest
// first.
var tailQuantiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tail reports the highest percentile with at least ten samples beyond
// it. With fewer than 20 samples no percentile qualifies and the median
// stands in; the percentile used and the sample count are logged.
func tail(name string, xs []float64) float64 {
	q := 0.5
	for _, c := range tailQuantiles {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s = p%g over %d samples\n", name, q*100, len(xs))
	return quantile(xs, q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
