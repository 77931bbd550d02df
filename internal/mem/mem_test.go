package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSpaceBasics(t *testing.T) {
	h := NewHostSpace("host0", 1024)
	d := NewDeviceSpace("gpu0", 0, 2048)
	if h.Kind() != Host || d.Kind() != Device {
		t.Error("kind mismatch")
	}
	if h.DeviceID() != -1 || d.DeviceID() != 0 {
		t.Error("device id mismatch")
	}
	if h.Size() != 1024 || d.Size() != 2048 {
		t.Error("size mismatch")
	}
	if Host.String() != "host" || Device.String() != "device" || Kind(9).String() == "" {
		t.Error("Kind.String")
	}
}

func TestPtrClassification(t *testing.T) {
	h := NewHostSpace("h", 16)
	d := NewDeviceSpace("d", 3, 16)
	if h.Base().IsDevice() {
		t.Error("host ptr classified as device")
	}
	if !d.Base().IsDevice() {
		t.Error("device ptr classified as host")
	}
	if d.Base().DeviceID() != 3 {
		t.Error("DeviceID")
	}
	if h.Base().SameSpace(d.Base()) {
		t.Error("different spaces reported same")
	}
	if !h.Base().Add(4).SameSpace(h.Base()) {
		t.Error("same space reported different")
	}
}

func TestNilPtr(t *testing.T) {
	var p Ptr
	if !p.IsNil() {
		t.Error("zero Ptr not nil")
	}
	if p.String() != "nil" {
		t.Errorf("String = %q", p.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("deref of nil ptr did not panic")
		}
	}()
	p.Bytes(1)
}

func TestPtrAddBounds(t *testing.T) {
	s := NewHostSpace("h", 10)
	p := s.Base().Add(10) // one-past-end is legal
	_ = p
	for _, bad := range []int{-1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", bad)
				}
			}()
			s.Base().Add(bad)
		}()
	}
}

func TestBytesBounds(t *testing.T) {
	s := NewHostSpace("h", 10)
	b := s.Base().Add(2).Bytes(3)
	if len(b) != 3 || cap(b) != 3 {
		t.Errorf("len=%d cap=%d", len(b), cap(b))
	}
	b[0] = 7
	if s.Base().Bytes(10)[2] != 7 {
		t.Error("write not visible through space")
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized Bytes did not panic")
		}
	}()
	s.Base().Add(8).Bytes(3)
}

func TestCopy(t *testing.T) {
	a := NewHostSpace("a", 32)
	b := NewDeviceSpace("b", 0, 32)
	Fill(a.Base(), 32, func(i int) byte { return byte(i) })
	Copy(b.Base().Add(4), a.Base().Add(8), 16)
	for i := 0; i < 16; i++ {
		if b.Base().Bytes(32)[4+i] != byte(8+i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if !Equal(b.Base().Add(4), a.Base().Add(8), 16) {
		t.Error("Equal = false after copy")
	}
	if Equal(b.Base(), a.Base(), 32) {
		t.Error("Equal = true on differing ranges")
	}
}

func TestCopyOverlap(t *testing.T) {
	s := NewHostSpace("s", 16)
	Fill(s.Base(), 16, func(i int) byte { return byte(i) })
	// Overlapping forward copy must behave like memmove.
	Copy(s.Base().Add(2), s.Base(), 8)
	want := []byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7}
	got := s.Base().Bytes(10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overlap copy: got %v, want %v", got, want)
		}
	}
}

func TestCopy2D(t *testing.T) {
	// Pack a 3-row × 4-byte column out of an 8-byte-pitch source.
	src := NewDeviceSpace("src", 0, 64)
	dst := NewHostSpace("dst", 64)
	Fill(src.Base(), 64, func(i int) byte { return byte(i) })
	Copy2D(dst.Base(), 4, src.Base().Add(2), 8, 4, 3)
	want := []byte{2, 3, 4, 5, 10, 11, 12, 13, 18, 19, 20, 21}
	got := dst.Base().Bytes(12)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Copy2D: got %v, want %v", got, want)
		}
	}
}

func TestCopy2DPitchValidation(t *testing.T) {
	s := NewHostSpace("s", 64)
	defer func() {
		if recover() == nil {
			t.Error("pitch < width did not panic")
		}
	}()
	Copy2D(s.Base(), 2, s.Base(), 8, 4, 2)
}

func TestCopy2DNegativeDims(t *testing.T) {
	s := NewHostSpace("s", 64)
	defer func() {
		if recover() == nil {
			t.Error("negative height did not panic")
		}
	}()
	Copy2D(s.Base(), 8, s.Base(), 8, 4, -1)
}

// TestCopy2DZeroRows pins that an empty rectangle resolves no memory:
// with height 0 the envelope (height-1)*pitch+width would be negative,
// and with width 0 every row would start past the space's end, yet
// neither touches a byte, so neither may panic.
func TestCopy2DZeroRows(t *testing.T) {
	s := NewHostSpace("s", 8)
	Copy2D(s.Base(), 8, s.Base(), 8, 4, 0)
	end := s.Base().Add(8)
	Copy2D(end, 64, end, 64, 8, 0)
	Copy2D(end, 64, end, 64, 0, 5)
	Copy2D(s.Base(), 4, s.Base().Add(4), 100, 0, 3)
}

// TestCopy2DLastRowBounds pins Copy2D's bounds contract on each side: a
// last row ending exactly at the end of its space moves, one ending a byte
// past it panics with mem's bounds message.
func TestCopy2DLastRowBounds(t *testing.T) {
	const width, pitch, height = 4, 8, 3
	envelope := (height-1)*pitch + width
	s := NewHostSpace("s", 64)
	other := NewHostSpace("o", 64)
	Fill(s.Base(), 64, func(i int) byte { return byte(i) })
	fit := s.Base().Add(64 - envelope)
	Copy2D(other.Base(), pitch, fit, pitch, width, height)
	for r := 0; r < height; r++ {
		if !Equal(other.Base().Add(r*pitch), fit.Add(r*pitch), width) {
			t.Fatalf("row %d not copied", r)
		}
	}
	Copy2D(fit, pitch, other.Base(), pitch, width, height)

	over := s.Base().Add(64 - envelope + 1)
	for name, f := range map[string]func(){
		"source":      func() { Copy2D(other.Base(), pitch, over, pitch, width, height) },
		"destination": func() { Copy2D(over, pitch, other.Base(), pitch, width, height) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of bounds") {
					t.Errorf("%s overhanging by one byte: panic %q, want mem's out-of-bounds message", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestCopyRowsWidths checks the fixed-size 8-byte row move and the general
// path against a byte-by-byte reference.
func TestCopyRowsWidths(t *testing.T) {
	for _, width := range []int{1, 4, 7, 8, 16, 21} {
		const rows, spitch, dpitch = 5, 40, 24
		src := make([]byte, (rows-1)*spitch+width)
		for i := range src {
			src[i] = byte(i*5 + 1)
		}
		dst := make([]byte, (rows-1)*dpitch+width)
		CopyRows(dst, dpitch, src, spitch, width, rows)
		for r := 0; r < rows; r++ {
			for i := 0; i < dpitch && r*dpitch+i < len(dst); i++ {
				want := byte(0)
				if i < width {
					want = src[r*spitch+i]
				}
				if got := dst[r*dpitch+i]; got != want {
					t.Fatalf("width %d row %d byte %d = %d, want %d", width, r, i, got, want)
				}
			}
		}
	}
}

// Property: Copy2D into a contiguous destination followed by Copy2D back
// into a strided buffer restores the original strided contents (the
// pack/unpack identity the whole datatype path relies on).
func TestPropCopy2DRoundTrip(t *testing.T) {
	f := func(widthRaw, heightRaw, padRaw uint8) bool {
		width := 1 + int(widthRaw%16)
		height := 1 + int(heightRaw%16)
		pitch := width + int(padRaw%8)
		src := NewDeviceSpace("src", 0, pitch*height+16)
		packed := NewHostSpace("packed", width*height)
		back := NewDeviceSpace("back", 0, pitch*height+16)
		Fill(src.Base(), src.Size(), func(i int) byte { return byte(i * 31) })
		Copy2D(packed.Base(), width, src.Base(), pitch, width, height)
		Copy2D(back.Base(), pitch, packed.Base(), width, width, height)
		for r := 0; r < height; r++ {
			if !Equal(back.Base().Add(r*pitch), src.Base().Add(r*pitch), width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPtrString(t *testing.T) {
	s := NewHostSpace("hostA", 64)
	if got := s.Base().Add(16).String(); got != "hostA+0x10" {
		t.Errorf("String = %q", got)
	}
}
