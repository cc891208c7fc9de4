package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// allocReading is a snapshot of the Go runtime's cumulative allocation
// counters.
type allocReading struct {
	objects, bytes, gcs uint64
}

func (r allocReading) minus(o allocReading) allocReading {
	return allocReading{r.objects - o.objects, r.bytes - o.bytes, r.gcs - o.gcs}
}

var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// readAllocs reads the allocation counters from runtime/metrics (no
// stop-the-world). ok is false when the runtime does not provide them;
// callers then report the readings missing instead of 0.
func readAllocs() (allocReading, bool) {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindUint64 {
			return allocReading{}, false
		}
	}
	return allocReading{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}, true
}

// addAllocs records one allocation sample covering cells cells that
// fired events simulated events. The caller holds a.mu.
func (a *acc) addAllocs(before, after allocReading, cells int, events float64) {
	d := after.minus(before)
	per := float64(cells)
	a.allocs = append(a.allocs, float64(d.objects)/per)
	a.allocMB = append(a.allocMB, float64(d.bytes)/per/1e6)
	a.allocObjs += float64(d.objects)
	a.allocKevents += events / 1000
	a.allocCells += per
	a.gcCycles += float64(d.gcs)
}

// heapSampler tracks the highest heap in use, sampled periodically from
// runtime/metrics.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
	ok    bool // the runtime reported the metric
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			h.ok = true
			h.peak = max(h.peak, s[0].Value.Uint64())
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stopc:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes, NaN (a missing
// reading) if the runtime never reported the metric.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	if !h.ok {
		return math.NaN()
	}
	return float64(h.peak)
}
