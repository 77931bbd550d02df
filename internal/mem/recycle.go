package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Recycler is a size-classed free list of payload byte buffers: the
// simulator's analogue of MVAPICH2's pre-registered vbuf pool, applied to
// the host memory that carries wire snapshots and eager payloads. Classes
// are powers of two; Get(n) hands out a buffer of length n whose capacity
// is n rounded up to its class, and Put files it back under that class.
//
// Get returns a buffer with undefined contents: every caller overwrites
// all n bytes before anything reads them. Buffers are released exactly
// once, by whichever layer owns them last; Outstanding counts buffers
// handed out and not yet returned, so a run that has finished with every
// payload reports zero.
//
// The free list is guarded by a mutex because parallel-engine task bodies
// release buffers from pool workers. The zero value is ready to use.
type Recycler struct {
	mu          sync.Mutex
	free        [bits.UintSize][][]byte
	outstanding int
}

// class returns the power-of-two class holding n bytes (n ≥ 1).
func class(n int) int { return bits.Len(uint(n - 1)) }

// Get returns an n-byte buffer with undefined contents. Get(0) returns nil,
// which Put accepts and ignores.
func (r *Recycler) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := class(n)
	r.mu.Lock()
	r.outstanding++
	if l := r.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		r.free[c] = l[:len(l)-1]
		r.mu.Unlock()
		return b[:n]
	}
	r.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// Put returns a buffer obtained from Get. The caller must not touch b
// afterwards. Putting a nil or empty-capacity buffer is a no-op; a buffer
// whose capacity is not a class size did not come from a Recycler and
// panics, as does a Put with nothing outstanding.
func (r *Recycler) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := class(cap(b))
	if cap(b) != 1<<c {
		panic(fmt.Sprintf("mem: Put of a %d-byte buffer the recycler did not hand out", cap(b)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outstanding == 0 {
		panic("mem: Put with no buffer outstanding (double release)")
	}
	r.outstanding--
	r.free[c] = append(r.free[c], b[:cap(b)])
}

// Outstanding returns the number of buffers handed out by Get and not yet
// returned by Put.
func (r *Recycler) Outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outstanding
}
