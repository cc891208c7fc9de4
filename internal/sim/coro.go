//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Coro is a strict-handoff coroutine: a body that runs only while the
// engine has explicitly resumed it, and that must park (or finish) to hand
// control back. At any instant at most one coroutine (or the engine) is
// executing, so the simulation stays deterministic even though simulated
// processes are written in natural blocking style.
//
// Lifecycle:
//
//	c := NewCoro(name, func(c *Coro) { ...; c.Park(); ... })
//	c.Resume()   // runs the body until its first Park or until it returns
//	c.Resume()   // runs from after Park to the next Park / return
//	c.Kill()     // unwinds a parked coroutine (its deferred calls run)
//
// The body must only Park from its own stack, and Resume must only be
// called from outside it (engine/event context).
//
// Control transfers are runtime coroutine switches: the body runs as an
// iter.Pull iterator, Park is its yield and Resume is next. The iterator
// is pulled lazily at the first Resume, so a coroutine that never starts
// owns no goroutine, and one that finishes or is killed releases its own.
type Coro struct {
	name     string
	body     func(*Coro)
	next     func() (struct{}, bool) // nil until the first Resume
	stop     func()
	yield    func(struct{}) bool
	done     bool
	parked   bool
	panicMsg string
}

// coroKilled is the panic value used to unwind a killed coroutine.
type coroKilled struct{ name string }

// NewCoro creates a coroutine around body. The body does not start running
// until the first Resume.
func NewCoro(name string, body func(*Coro)) *Coro {
	return &Coro{name: name, body: body}
}

// Name returns the diagnostic name given at creation.
func (c *Coro) Name() string { return c.name }

// Done reports whether the body has returned (or been killed).
func (c *Coro) Done() bool { return c.done }

// Parked reports whether the coroutine is waiting in Park.
func (c *Coro) Parked() bool { return c.parked }

// Resume transfers control into the coroutine and blocks until it parks or
// finishes. Resuming a finished coroutine panics: it indicates a scheduler
// bookkeeping bug. If the body panicked, the panic resurfaces here — on
// the caller's stack, at the deterministic point in the simulation where
// the coroutine was last given control.
func (c *Coro) Resume() {
	if c.done {
		panic(fmt.Sprintf("sim: resume of finished coroutine %q", c.name))
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.run)
	}
	c.next()
	c.repanic()
}

// Park yields control back to whoever resumed the coroutine and blocks the
// body until the next Resume. It must be called from the coroutine's own
// stack.
func (c *Coro) Park() {
	c.parked = true
	ok := c.yield(struct{}{})
	c.parked = false
	if !ok {
		panic(coroKilled{c.name})
	}
}

// Kill unwinds a parked coroutine: its Park returns into a panic with an
// internal sentinel (running deferred cleanup) and the coroutine is marked
// done. Killing an unstarted or finished coroutine is a no-op. A panic
// raised by the body's deferred cleanup resurfaces here.
func (c *Coro) Kill() {
	if c.done || c.next == nil {
		c.done = true
		return
	}
	if !c.parked {
		panic(fmt.Sprintf("sim: kill of running coroutine %q", c.name))
	}
	c.stop()
	c.repanic()
}

// repanic relays a panic captured inside the body onto the engine side,
// once.
func (c *Coro) repanic() {
	if c.panicMsg != "" {
		msg := c.panicMsg
		c.panicMsg = ""
		panic(msg)
	}
}

// run is the iterator behind the coroutine. Panics never cross it: a
// real panic is recorded for repanic and the kill sentinel is swallowed,
// so the iterator always returns normally and releases its goroutine.
func (c *Coro) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		c.done = true
		if r := recover(); r != nil {
			if _, ok := r.(coroKilled); !ok {
				// Real bug in simulated code: record it and let the
				// engine side re-panic with context, so the failure
				// surfaces synchronously at the Resume that ran it.
				c.panicMsg = fmt.Sprintf("sim: coroutine %q panicked: %v", c.name, r)
			}
		}
	}()
	c.body(c)
}
