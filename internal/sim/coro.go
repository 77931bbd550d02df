//go:build go1.23

// The go1.23 constraint raises this file's language version above the
// module's go 1.22 so it may use iter.Pull. It is a toolchain floor, not a
// variant: the package has no other process implementation.

package sim

import "iter"

// coro is one reusable coroutine that runs simulation processes. It is an
// iter.Pull pair: next switches from the dispatcher into the coroutine and
// yield switches back. Both are direct runtime coroutine switches — the
// running goroutine hands its thread to the other one without going
// through the Go scheduler — so a process switch costs no channel
// operation and no goroutine wake-up.
//
// A coroutine is bound to a process at the process's first resume and
// returns to the engine's idle list when the process body finishes, so an
// engine starts only as many coroutines as it ever has processes running
// at once.
type coro struct {
	e     *engineCore
	proc  *Proc // the process bound to the coroutine; nil while idle
	next  func() (struct{}, bool)
	yield func(struct{}) bool // false once Shutdown has stopped the coroutine
	stop  func()
}

// stopSignal is the panic value that unwinds a parked process when
// Shutdown stops its coroutine, running the body's deferred calls.
type stopSignal struct{}

// bind attaches an idle coroutine, or a new one, to p.
func (e *engineCore) bind(p *Proc) {
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{e: e}
		c.next, c.stop = iter.Pull(c.loop)
		e.coros = append(e.coros, c)
	}
	c.proc = p
	p.co = c
}

// loop is the coroutine body: it runs the bound process to completion,
// parks on the idle list and waits for the next binding.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.proc
		if p.run() {
			return
		}
		p.co, c.proc = nil, nil
		c.e.idle = append(c.e.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// suspend hands the baton back to the dispatcher until the next resume.
// After Shutdown it unwinds the process instead.
func (c *coro) suspend() {
	if !c.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// stopCoros unwinds every parked process and ends every coroutine, one at
// a time on the caller's goroutine.
func (e *engineCore) stopCoros() {
	coros := e.coros
	e.coros, e.idle = nil, nil
	for _, c := range coros {
		c.stop()
	}
}
