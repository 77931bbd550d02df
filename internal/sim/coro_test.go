package sim

import (
	"runtime"
	"testing"
	"time"
)

// engineNames lists both engines: processes run on the same coroutines
// under each.
var engineNames = []string{"serial", "parallel"}

// goroutinesBack reports whether the goroutine count has returned to
// want. The serial engine's coroutines exit inside Shutdown, so its count
// must match at once; the parallel engine's pool workers signal their
// WaitGroup just before they return, so the check allows them a moment.
func goroutinesBack(name string, want int) bool {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || name == "serial" || time.Now().After(deadline) {
			return n == want
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownStopsParkedProcs parks three kinds of process — blocked on
// an event that never fires, a daemon waiting on a queue, and one sleeping
// past the RunUntil limit — and checks that Shutdown unwinds each one,
// running its deferred calls exactly once, and leaves no goroutine behind.
func TestShutdownStopsParkedProcs(t *testing.T) {
	for _, name := range engineNames {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var unwound [3]int
			never := e.NewEvent("never")
			q := NewQueue[int](e, "work")
			e.Spawn("stuck", func(p *Proc) {
				defer func() { unwound[0]++ }()
				p.Wait(never)
			})
			e.SpawnDaemon("server", func(p *Proc) {
				defer func() { unwound[1]++ }()
				for {
					q.Get(p)
				}
			})
			e.Spawn("late", func(p *Proc) {
				defer func() { unwound[2]++ }()
				p.Sleep(100)
			})
			if err := e.RunUntil(50); err != nil {
				t.Fatal(err)
			}
			if unwound != [3]int{} {
				t.Fatalf("deferred calls ran before Shutdown: %v", unwound)
			}
			for i := 0; i < 2; i++ { // the second Shutdown is a no-op
				e.Shutdown()
				if unwound != [3]int{1, 1, 1} {
					t.Errorf("after Shutdown %d: deferred calls ran %v times, want once each", i+1, unwound)
				}
				if !goroutinesBack(name, before) {
					t.Errorf("after Shutdown %d: %d goroutines, want %d as before the engine", i+1, runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestCoroutineReuse runs 10 000 processes one after another and checks
// that a single coroutine served them all, and that the coroutine of a
// process that panicked is still usable once the panic is recovered.
func TestCoroutineReuse(t *testing.T) {
	for _, name := range engineNames {
		t.Run(name, func(t *testing.T) {
			e, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Shutdown()
			const n = 10000
			ran := 0
			for i := 0; i < n; i++ {
				e.SpawnAt(Time(2*i), "seq", func(p *Proc) {
					p.Sleep(1)
					ran++
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if ran != n {
				t.Fatalf("%d of %d processes finished", ran, n)
			}
			if got := len(e.core().coros); got != 1 {
				t.Errorf("%d coroutines started for %d sequential processes, want 1", got, n)
			}

			e.Spawn("boom", func(p *Proc) {
				p.Sleep(1)
				panic("kaboom")
			})
			func() {
				defer func() {
					if r := recover(); r != "kaboom" {
						t.Errorf("recovered %v, want kaboom", r)
					}
				}()
				_ = e.Run()
				t.Error("Run returned instead of panicking")
			}()
			after := false
			e.Spawn("after", func(p *Proc) {
				p.Sleep(1)
				after = true
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !after {
				t.Error("process after the recovered panic did not finish")
			}
			if got := len(e.core().coros); got != 1 {
				t.Errorf("%d coroutines after the panic, want the one reused", got)
			}
		})
	}
}

// TestSpawnAllocs pins the allocations of a steady-state Spawn → Sleep →
// return cycle: with the coroutine and the heap items recycled, only the
// Proc record itself is allocated.
func TestSpawnAllocs(t *testing.T) {
	for _, name := range engineNames {
		t.Run(name, func(t *testing.T) {
			e, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Shutdown()
			body := func(p *Proc) { p.Sleep(1) }
			cycle := func() {
				e.Spawn("w", body)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warmup: start the coroutine, fill the item freelist
			if got := testing.AllocsPerRun(100, cycle); got != 1 {
				t.Errorf("%.1f allocations per Spawn→Sleep→return cycle, want 1", got)
			}
		})
	}
}
