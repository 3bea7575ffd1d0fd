package mempool

import (
	"testing"
	"testing/quick"
)

func TestGetPutCycle(t *testing.T) {
	p := New("test", 1024, 4)
	if p.Cap() != 4 || p.Available() != 4 || p.InUse() != 0 {
		t.Fatal("fresh pool state")
	}
	bufs := make([]Buf, 0, 4)
	for i := 0; i < 4; i++ {
		b, ok := p.Get()
		if !ok {
			t.Fatal("unexpected exhaustion")
		}
		if len(b.B) != 1024 {
			t.Fatalf("element size %d", len(b.B))
		}
		bufs = append(bufs, b)
	}
	if _, ok := p.Get(); ok {
		t.Fatal("exhausted pool returned element")
	}
	if p.Exhausted != 1 {
		t.Fatalf("exhausted counter %d", p.Exhausted)
	}
	for _, b := range bufs {
		b.Free()
	}
	if p.Available() != 4 || p.Puts != 4 || p.Gets != 4 {
		t.Fatal("counters after drain")
	}
	if p.PeakInUse() != 4 {
		t.Fatalf("peak %d", p.PeakInUse())
	}
}

func TestElementsAreDisjoint(t *testing.T) {
	p := New("disjoint", 64, 8)
	var bufs []Buf
	for i := 0; i < 8; i++ {
		b, _ := p.Get()
		for j := range b.B {
			b.B[j] = byte(i)
		}
		bufs = append(bufs, b)
	}
	for i, b := range bufs {
		for _, v := range b.B {
			if v != byte(i) {
				t.Fatalf("element %d corrupted: %d", i, v)
			}
		}
	}
}

func TestElementCapacityClamped(t *testing.T) {
	p := New("clamp", 64, 2)
	b, _ := p.Get()
	if cap(b.B) != 64 {
		t.Fatalf("cap %d leaks into neighbor element", cap(b.B))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New("dbl", 8, 1)
	b, _ := p.Get()
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

// A handle kept past its Free must not free the element's next borrower.
func TestStaleFreePanics(t *testing.T) {
	p := New("stale", 8, 1)
	first, _ := p.Get()
	first.Free()
	second, ok := p.Get()
	if !ok || second.idx != first.idx {
		t.Fatal("the freed element was not handed out again")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("free through the stale handle did not panic")
			}
		}()
		first.Free()
	}()
	if p.InUse() != 1 {
		t.Fatalf("the stale free released the live element: in use %d", p.InUse())
	}
	second.Free()
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry did not panic")
		}
	}()
	New("bad", 0, 10)
}

func TestFootprint(t *testing.T) {
	p := New("fp", 512<<10, 128)
	if p.FootprintBytes() != 512<<10*128 {
		t.Fatalf("footprint %d", p.FootprintBytes())
	}
	if p.ElemSize() != 512<<10 || p.Name() != "fp" {
		t.Fatal("accessors")
	}
}

func TestPoolInvariantProperty(t *testing.T) {
	// Property: under any get/free interleaving, Available+InUse == Cap
	// and no element is handed out twice concurrently.
	f := func(ops []bool) bool {
		p := New("prop", 16, 8)
		live := map[int32]Buf{}
		for _, get := range ops {
			if get {
				b, ok := p.Get()
				if !ok {
					if len(live) != 8 {
						return false
					}
					continue
				}
				if _, dup := live[b.idx]; dup {
					return false
				}
				live[b.idx] = b
			} else {
				for idx, b := range live {
					b.Free()
					delete(live, idx)
					break
				}
			}
			if p.Available()+p.InUse() != p.Cap() || p.InUse() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
