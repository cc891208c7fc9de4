package coord

import (
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// workerState is the coordinator's view of one registered worker. All
// fields are guarded by the registry mutex; the down channel is closed
// when the worker leaves the healthy set, so dispatches in flight
// against it can abort instead of riding out the full cell timeout.
type workerState struct {
	url         string
	version     string
	concurrency int // dispatch slots (the worker's request limit)

	inflight int // coordinator-side dispatches in flight
	healthy  bool
	misses   int // consecutive failed heartbeats
	lastSeen time.Time
	down     chan struct{} // closed while unhealthy; replaced on recovery

	// Rolling accounting for /healthz and the planner.
	dispatched uint64
	failures   uint64
	queueDepth int
	sims       uint64
	engine     serve.EngineHealth

	// Circuit breaker: consecutive dispatch failures open it, a cooloff
	// later a single half-open probe re-admits the worker. A sick worker
	// — one that answers heartbeats but fails cells — thus degrades the
	// fleet gracefully instead of eating every cell's retry budget.
	brState     breakerState
	consecFails int
	brUntil     time.Time // while open: when the next probe is allowed
	probing     bool      // a half-open probe dispatch is in flight
}

// breakerState is the per-worker circuit-breaker position.
type breakerState int

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// lease is one acquired dispatch slot on a worker. down is the health
// channel current at acquisition: if the heartbeat prober evicts the
// worker mid-request, the channel closes and the dispatch aborts.
type lease struct {
	url  string
	down chan struct{}
}

// registry is the fleet membership table plus the load-aware slot
// planner: every dispatch acquires a slot on the healthy worker with
// the lowest load ratio (in-flight over reported concurrency), so work
// shards proportionally to each worker's capacity and re-plans itself
// on every join, leave, and slot release.
type registry struct {
	mu      sync.Mutex
	workers map[string]*workerState
	notify  chan struct{} // closed and replaced on any capacity/membership change

	// breakerThreshold consecutive dispatch failures open a worker's
	// breaker for breakerCooloff; <=0 disables breakers entirely.
	breakerThreshold int
	breakerCooloff   time.Duration
}

func newRegistry(breakerThreshold int, breakerCooloff time.Duration) *registry {
	return &registry{
		workers:          make(map[string]*workerState),
		notify:           make(chan struct{}),
		breakerThreshold: breakerThreshold,
		breakerCooloff:   breakerCooloff,
	}
}

// wake signals every goroutine blocked on capacity or membership.
// Callers hold r.mu.
func (r *registry) wake() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// upsert registers a worker or refreshes an existing registration
// (registration is idempotent — workers re-announce on an interval so a
// restarted coordinator relearns its fleet). A worker is optimistically
// healthy on registration; the heartbeat prober corrects liars.
// Reports whether the URL was new.
func (r *registry) upsert(url, version string, concurrency int) bool {
	if concurrency <= 0 {
		concurrency = 2
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		w = &workerState{url: url, down: make(chan struct{})}
		r.workers[url] = w
	}
	w.version = version
	w.concurrency = concurrency
	w.lastSeen = time.Now()
	w.misses = 0
	if !w.healthy {
		w.healthy = true
		w.down = make(chan struct{})
	}
	r.wake()
	return !ok
}

// tryAcquire claims a slot on the best healthy worker other than avoid
// (a retry must land elsewhere when the fleet allows it). Among
// candidates it minimizes inflight/concurrency — the weighted plan —
// breaking ties by URL so planning is stable. The avoided worker is a
// fallback only when no other worker could take the cell at all, so a
// single-worker fleet still retries on itself; when the others are
// merely busy, it returns nil and the retry waits for their slots
// instead of going straight back to the worker that just failed it.
// Returns nil when no eligible worker has a free slot.
func (r *registry) tryAcquire(avoid string) *lease {
	r.mu.Lock()
	defer r.mu.Unlock()
	pick := r.best(avoid)
	if pick == nil && !r.alternative(avoid) {
		pick = r.best("")
	}
	if pick == nil {
		return nil
	}
	if pick.brState == brHalfOpen {
		pick.probing = true // one probe at a time; its outcome moves the breaker
	}
	pick.inflight++
	pick.dispatched++
	return &lease{url: pick.url, down: pick.down}
}

// alternative reports whether a worker other than avoid could take a
// dispatch once it has a free slot: one that is healthy and whose
// breaker is not open in its cooloff. Callers hold r.mu.
func (r *registry) alternative(avoid string) bool {
	now := time.Now()
	for _, w := range r.workers {
		if w.healthy && w.url != avoid && !(w.brState == brOpen && now.Before(w.brUntil)) {
			return true
		}
	}
	return false
}

// best returns the lowest-load healthy worker with a free slot,
// excluding avoid and any worker whose breaker blocks dispatch.
// Callers hold r.mu.
func (r *registry) best(avoid string) *workerState {
	var pick *workerState
	for _, w := range r.workers {
		if !w.healthy || w.url == avoid || w.inflight >= w.concurrency {
			continue
		}
		if w.brState == brOpen {
			if time.Now().Before(w.brUntil) {
				continue
			}
			// Cooloff over: half-open, admitting exactly one probe.
			w.brState = brHalfOpen
			w.probing = false
		}
		if w.brState == brHalfOpen && w.probing {
			continue
		}
		if pick == nil {
			pick = w
			continue
		}
		// w.inflight/w.concurrency < pick.inflight/pick.concurrency,
		// cross-multiplied to stay in integers.
		lw, lp := w.inflight*pick.concurrency, pick.inflight*w.concurrency
		if lw < lp || (lw == lp && w.url < pick.url) {
			pick = w
		}
	}
	return pick
}

// release returns a lease's slot and wakes waiting dispatches.
func (r *registry) release(l *lease) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[l.url]; ok && w.inflight > 0 {
		w.inflight--
	}
	r.wake()
}

// succeed records one successful dispatch: the failure streak resets and
// a half-open breaker closes (the probe proved the worker back).
func (r *registry) succeed(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return
	}
	w.consecFails = 0
	w.probing = false
	if w.brState != brClosed {
		w.brState = brClosed
		r.wake()
	}
}

// fail charges one dispatch failure to a worker. Enough consecutive
// failures — or one failed half-open probe — open its breaker for the
// cooloff; a timer wakes blocked dispatchers when the probe window
// opens. Reports whether this failure opened (or re-opened) the breaker.
func (r *registry) fail(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return false
	}
	w.failures++
	w.consecFails++
	w.probing = false
	if r.breakerThreshold <= 0 {
		return false
	}
	if w.brState == brHalfOpen || (w.brState == brClosed && w.consecFails >= r.breakerThreshold) {
		w.brState = brOpen
		w.brUntil = time.Now().Add(r.breakerCooloff)
		// A retry waiting for this worker's slot may now have to fall
		// back to the worker it avoids.
		r.wake()
		// Dispatchers blocked on the notify channel must re-plan when the
		// probe window opens, not wait for an unrelated wakeup.
		time.AfterFunc(r.breakerCooloff, func() {
			r.mu.Lock()
			r.wake()
			r.mu.Unlock()
		})
		return true
	}
	return false
}

// waitCh returns the channel that will signal the next capacity or
// membership change.
func (r *registry) waitCh() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notify
}

// urls snapshots the registered worker URLs (healthy or not) for the
// heartbeat prober.
func (r *registry) urls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.workers))
	for u := range r.workers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// heartbeatOK folds one successful probe into the worker's state. The
// ping refreshes the advertised concurrency, so a reconfigured worker
// re-weights the plan without re-registering. Reports whether the
// worker rejoined the healthy set.
func (r *registry) heartbeatOK(url string, p serve.PingResponse) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return false
	}
	w.misses = 0
	w.lastSeen = time.Now()
	w.version = p.Version
	if p.Limit > 0 {
		w.concurrency = p.Limit
	}
	w.queueDepth = p.QueueDepth
	w.sims = p.Sims
	w.engine = p.Engine
	recovered := !w.healthy
	if recovered {
		w.healthy = true
		w.down = make(chan struct{})
		r.wake()
	}
	return recovered
}

// heartbeatMiss counts one failed probe; after evictAfter consecutive
// misses the worker leaves the healthy set (its down channel closes, so
// in-flight dispatches abort and their cells reassign to surviving
// workers). Reports whether this miss evicted the worker.
func (r *registry) heartbeatMiss(url string, evictAfter int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	if !ok {
		return false
	}
	w.misses++
	if !w.healthy || w.misses < evictAfter {
		return false
	}
	w.healthy = false
	close(w.down)
	r.wake()
	return true
}

// WorkerStatus is one row of the coordinator's /healthz worker table.
type WorkerStatus struct {
	URL         string             `json:"url"`
	Version     string             `json:"version"`
	Healthy     bool               `json:"healthy"`
	Concurrency int                `json:"concurrency"`
	Inflight    int                `json:"inflight"`
	QueueDepth  int                `json:"queue_depth"`
	Misses      int                `json:"missed_heartbeats"`
	LastSeenAgo string             `json:"last_seen_ago"`
	Dispatched  uint64             `json:"dispatched"`
	Failures    uint64             `json:"failures"`
	Breaker     string             `json:"breaker"`
	ConsecFails int                `json:"consecutive_failures"`
	Sims        uint64             `json:"sims_total"`
	Engine      serve.EngineHealth `json:"engine"`
}

// snapshot renders the worker table, sorted by URL.
func (r *registry) snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerStatus{
			URL:         w.url,
			Version:     w.version,
			Healthy:     w.healthy,
			Concurrency: w.concurrency,
			Inflight:    w.inflight,
			QueueDepth:  w.queueDepth,
			Misses:      w.misses,
			LastSeenAgo: time.Since(w.lastSeen).Round(time.Millisecond).String(),
			Dispatched:  w.dispatched,
			Failures:    w.failures,
			Breaker:     w.brState.String(),
			ConsecFails: w.consecFails,
			Sims:        w.sims,
			Engine:      w.engine,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
