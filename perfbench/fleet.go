package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/serve"
)

// spanHeader carries a dispatch's span ID from the coordinator's
// transport to the worker's handler, linking the two.
const spanHeader = "X-Perfbench-Span"

// fleetSweep is the fleet_sweep request: the paper's 28-cell TX grid
// with short windows (tiny: 8 cells, shorter still), and how many warm
// replays follow the cold sweep.
func fleetSweep(seed uint64, tiny bool) (serve.SweepRequest, int) {
	rq := serve.SweepRequest{RunRequest: serve.RunRequest{Dir: "tx", Seed: seed, WarmupCycles: 2_000_000, MeasureCycles: 5_000_000}}
	if tiny {
		rq.WarmupCycles, rq.MeasureCycles = 1_000_000, 2_000_000
		rq.Sizes = []int{1024, 65536}
		return rq, 2
	}
	return rq, 20
}

func fleetKey(seed uint64, tiny bool) string {
	return fmt.Sprintf("fleet_sweep/%s/seed=%d", sizeName(tiny), seed)
}

// fleet is an in-process coordinator with two serve workers, each on a
// one-worker Runner, over loopback HTTP, journaling to a fresh
// directory.
type fleet struct {
	b  *bench
	a  *acc
	rq []byte

	workers  []*httptest.Server
	servers  []*serve.Server
	coord    *coord.Coordinator
	coordSrv *httptest.Server
	coordRT  *timingTransport
	client   *http.Client
	journal  string

	sweepSpan atomic.Uint64 // the client sweep in flight (closed loop: one)
	reqIDs    atomic.Uint64

	mu       sync.Mutex
	rtt      map[uint64]time.Duration // dispatch round trips by request ID
	handler  map[uint64]time.Duration // worker handler times by request ID
	handlers map[string]uint64        // traced: cell fingerprint -> handler span
	events   float64                  // simulated events fired this round
}

func startFleet(b *bench, a *acc, parent uint64) (*fleet, error) {
	rq, _ := fleetSweep(b.simSeed, b.cfg.tiny)
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		b: b, a: a, rq: body,
		rtt:      map[uint64]time.Duration{},
		handler:  map[uint64]time.Duration{},
		handlers: map[string]uint64{},
		client:   &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute},
		journal:  filepath.Join(b.cfg.outDir, fmt.Sprintf("journal-%d", os.Getpid())),
	}
	f.sweepSpan.Store(parent)
	for range 2 {
		srv := serve.New(serve.Options{
			Runner: core.NewRunner(1),
			Cache:  cache.New(cache.DefaultMaxBytes, ""),
			Run:    f.run,
		})
		f.servers = append(f.servers, srv)
		f.workers = append(f.workers, httptest.NewServer(f.wrap(srv)))
	}
	if err := os.RemoveAll(f.journal); err != nil {
		f.close()
		return nil, err
	}
	f.coordRT = &timingTransport{f: f, next: &http.Transport{}}
	c, err := coord.New(coord.Options{JournalDir: f.journal, Client: &http.Client{Transport: f.coordRT}})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	f.coord = c
	f.coordSrv = httptest.NewServer(c)
	for i, w := range f.workers {
		reg, _ := json.Marshal(coord.RegisterRequest{URL: w.URL, Concurrency: f.servers[i].Limit()})
		if _, err := f.post("/v1/register", reg); err != nil {
			f.close()
			return nil, err
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var h coord.HealthResponse
		if err := f.get("/healthz", &h); err == nil && h.WorkersHealthy == 2 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet: workers not healthy at the coordinator after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	if f.coordSrv != nil {
		f.coordSrv.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.coordRT != nil {
		f.coordRT.next.CloseIdleConnections()
	}
	for _, w := range f.workers {
		w.Close()
	}
	os.RemoveAll(f.journal)
}

func (f *fleet) post(path string, body []byte) ([]byte, error) {
	resp, err := f.client.Post(f.coordSrv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (f *fleet) get(path string, into any) error {
	resp, err := f.client.Get(f.coordSrv.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if s, ok := into.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*s = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// run is the workers' Options.Run: one timed cell beneath the cache.
// serve runs a substituted Options.Run without its cancel signal, so run
// arms the engine with a flag of its own, as core.RunControlled does for
// a deployed worker's cells: the engine polls it at the same points.
// Nothing sets the flag; a cell it interrupted would be aborted, which
// the cache refuses and the NDJSON gate counts as a failure.
func (f *fleet) run(cfg core.Config) *core.Result {
	var parent uint64
	if f.b.tr != nil {
		f.mu.Lock()
		parent = f.handlers[cache.Fingerprint(cfg)]
		f.mu.Unlock()
	}
	sp := f.b.tr.start("serve.sim", parent)
	t := time.Now()
	r, p := simulate(cfg, f.b.tr, sp.id, nil, new(atomic.Bool))
	d := time.Since(t)
	sp.end()
	f.a.addResult(r, p)
	f.a.mu.Lock()
	f.a.simMs = append(f.a.simMs, ms(d))
	f.a.cellS = append(f.a.cellS, (p.warmup + p.measure + p.shutdown).Seconds())
	f.a.counters["serve.sims"]++
	f.a.mu.Unlock()
	f.mu.Lock()
	f.events += float64(r.Engine.Fired)
	f.mu.Unlock()
	return r
}

// wrap times a worker's sweep handler and links it to the dispatch
// that caused it.
func (f *fleet) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := f.b.tr.start("serve.handler", id)
		if f.b.tr != nil {
			// Link the simulation beneath the cache to this handler by
			// the cell's fingerprint.
			body, err := io.ReadAll(r.Body)
			if err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				var rq serve.SweepRequest
				if json.Unmarshal(body, &rq) == nil {
					if cells, err := rq.Expand(); err == nil && len(cells) == 1 {
						f.mu.Lock()
						f.handlers[cache.Fingerprint(cells[0].Cfg)] = sp.id
						f.mu.Unlock()
					}
				}
			}
		}
		t := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t)
		sp.end()
		f.a.mu.Lock()
		f.a.handlerMs = append(f.a.handlerMs, ms(d))
		f.a.mu.Unlock()
		f.mu.Lock()
		f.handler[id] = d
		f.mu.Unlock()
	})
}

// timingTransport is the coordinator's worker client transport: it
// stamps each dispatch with a request (span) ID and times the round
// trip until the response body is consumed.
type timingTransport struct {
	f    *fleet
	next *http.Transport
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/sweep" {
		return t.next.RoundTrip(req)
	}
	f := t.f
	sp := f.b.tr.start("coord.dispatch", f.sweepSpan.Load())
	id := sp.id
	if id == 0 {
		id = f.reqIDs.Add(1)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		sp.end()
		f.mu.Lock()
		f.rtt[id] = d
		f.mu.Unlock()
	}}
	return resp, nil
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// sweep sends the fleet_sweep request to the coordinator and returns
// the NDJSON body and the request's latency.
func (f *fleet) sweep(name string, parent uint64) ([]byte, time.Duration, error) {
	sp := f.b.tr.start(name, parent)
	f.sweepSpan.Store(sp.id)
	t := time.Now()
	body, err := f.post("/v1/sweep", f.rq)
	d := time.Since(t)
	sp.end()
	return body, d, err
}

// fleetRound starts a fresh fleet (set-up), sends one cold sweep, then
// replays it warm, gating every NDJSON body against the serial
// single-node reference.
func fleetRound(b *bench, a *acc) error {
	round := b.tr.start("client.round", 0)
	defer round.end()
	_, warm := fleetSweep(b.simSeed, b.cfg.tiny)
	key := fleetKey(b.simSeed, b.cfg.tiny)

	setup := b.tr.start("client.setup", round.id)
	t := time.Now()
	f, err := startFleet(b, a, round.id)
	setupD := time.Since(t)
	setup.end()
	if err != nil {
		return err
	}
	defer f.close()

	before, allocOK := readAllocs()
	body, cold, err := f.sweep("client.sweep_cold", round.id)
	after, _ := readAllocs()
	if err != nil {
		return err
	}
	cells := bytes.Count(body, []byte{'\n'})
	a.check(b.cfg.refs, key, body, "")
	wall := cold
	var warmMs []float64
	for range warm {
		body, d, err := f.sweep("client.sweep_warm", round.id)
		if err != nil {
			return err
		}
		a.check(b.cfg.refs, key, body, "")
		wall += d
		warmMs = append(warmMs, ms(d))
	}

	var metricsText string
	if err := f.get("/metrics", &metricsText); err != nil {
		return err
	}
	counters := coordCounters(metricsText)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.setup = append(a.setup, setupD.Seconds())
	a.wall = append(a.wall, wall.Seconds())
	a.cells += cells
	a.cellTime += cold.Seconds()
	a.warmMs = append(a.warmMs, warmMs...)
	f.mu.Lock()
	if allocOK {
		a.addAllocs(before, after, cells, f.events)
	}
	for id, rtt := range f.rtt {
		a.rttMs = append(a.rttMs, ms(rtt))
		if h, ok := f.handler[id]; ok {
			a.waitMs = append(a.waitMs, ms(rtt-h))
		}
	}
	f.mu.Unlock()
	for k, v := range counters {
		a.counters[k] += v
	}
	for _, s := range f.servers {
		st := s.Cache().Stats()
		a.counters["cache.hits"] += float64(st.Hits)
		a.counters["cache.sims"] += float64(st.Sims)
		a.counters["cache.coalesced"] += float64(st.Coalesced)
		a.counters["cache.misses"] += float64(st.Misses)
	}
	return nil
}

// coordMetrics maps the coordinator's Prometheus series to metric
// names.
var coordMetrics = map[string]string{
	"affinity_coord_cells_dispatched_total":    "coord.dispatched",
	"affinity_coord_cells_retried_total":       "coord.retried",
	"affinity_coord_cells_hedged_total":        "coord.hedged",
	"affinity_coord_cells_deduped_total":       "coord.deduped",
	"affinity_coord_journal_resume_hits_total": "coord.resume_hits",
	"affinity_coord_journal_appends_total":     "coord.journal_appends",
	"affinity_coord_journal_wal_bytes":         "coord.journal_wal_bytes",
}

func coordCounters(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		if name, ok := coordMetrics[fields[0]]; ok {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// printFleetRefs prints the fleet_sweep reference digests: the NDJSON of
// each sweep as a serial single node (one in-process serve worker on a
// one-worker Runner, default cell executor) streams it.
func printFleetRefs() error {
	srv := httptest.NewServer(serve.New(serve.Options{Runner: core.NewRunner(1)}))
	defer srv.Close()
	for _, tiny := range []bool{false, true} {
		for seed := uint64(1); seed <= 16; seed++ {
			rq, _ := fleetSweep(seed, tiny)
			body, err := json.Marshal(rq)
			if err != nil {
				return err
			}
			resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("reference sweep: %s", resp.Status)
			}
			sum := sha256.Sum256(out)
			fmt.Printf("%s %s\n", fleetKey(seed, tiny), hex.EncodeToString(sum[:]))
		}
	}
	return nil
}
