package mem

import (
	"sync"
	"testing"
)

// TestRecyclerClasses checks the power-of-two classes: Get(n) has length
// n and the capacity of n's class, and a released buffer comes back for
// any request in the same class, never for another.
func TestRecyclerClasses(t *testing.T) {
	var r Recycler
	cases := []struct{ n, cap int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048}, {64 << 10, 64 << 10}}
	for _, c := range cases {
		b := r.Get(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
		r.Put(b)
	}
	b := r.Get(600)
	b[0] = 7
	r.Put(b)
	if again := r.Get(1000); &again[0] != &b[0] {
		t.Error("Get(1000) did not reuse the released 1 KiB-class buffer")
	} else {
		r.Put(again)
	}
	if other := r.Get(2000); cap(other) != 2048 {
		t.Errorf("Get(2000) cap %d, want a fresh 2 KiB-class buffer", cap(other))
	} else {
		r.Put(other)
	}
	if got := r.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d after releasing everything, want 0", got)
	}
}

// TestRecyclerOutstanding checks the count the leak gate reads: it rises
// with every non-empty Get, falls with every Put, and ignores empty
// buffers in both directions.
func TestRecyclerOutstanding(t *testing.T) {
	var r Recycler
	if b := r.Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	r.Put(nil)
	a, b := r.Get(10), r.Get(10)
	if got := r.Outstanding(); got != 2 {
		t.Fatalf("Outstanding = %d after two Gets, want 2", got)
	}
	r.Put(a)
	if got := r.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after one Put, want 1", got)
	}
	r.Put(b)
	if got := r.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after both Puts, want 0", got)
	}
}

// TestRecyclerRejectsMisuse checks the two releases the recycler can
// detect: a buffer it never handed out (capacity not a class size) and a
// Put with nothing outstanding.
func TestRecyclerRejectsMisuse(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	var r Recycler
	mustPanic("Put of a foreign buffer", func() { r.Put(make([]byte, 3)) })
	b := r.Get(8)
	r.Put(b)
	mustPanic("second Put of one buffer", func() { r.Put(b) })
}

// TestRecyclerConcurrentPut releases buffers from several goroutines, as
// parallel-engine pool workers do; the race detector watches the free
// list and the count must come out exact.
func TestRecyclerConcurrentPut(t *testing.T) {
	var r Recycler
	const workers, each = 4, 200
	bufs := make([][]byte, workers*each)
	for i := range bufs {
		bufs[i] = r.Get(1 + i%5000)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, b := range bufs[w*each : (w+1)*each] {
				r.Put(b)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d after concurrent release, want 0", got)
	}
}
