package pool

import "testing"

func TestGrowReusesCapacity(t *testing.T) {
	b := Grow(nil, 10)
	if len(b) != 10 || cap(b) != 10 {
		t.Fatalf("Grow(nil, 10): len=%d cap=%d, want 10/10", len(b), cap(b))
	}
	b[0] = 42
	c := Grow(b, 5)
	if len(c) != 5 || &c[0] != &b[0] {
		t.Fatalf("Grow within capacity must reslice the same array")
	}
	d := Grow(c, 10)
	if len(d) != 10 || &d[0] != &b[0] {
		t.Fatalf("Grow to exactly cap must not reallocate")
	}
	e := Grow(d, 11)
	if len(e) != 11 || cap(e) != 11 || &e[0] == &b[0] {
		t.Fatalf("Grow past cap: len=%d cap=%d, want a new array of exactly 11", len(e), cap(e))
	}
}

func TestGrowInts(t *testing.T) {
	b := GrowInts(nil, 3)
	if len(b) != 3 || cap(b) != 3 {
		t.Fatalf("GrowInts(nil, 3): len=%d cap=%d, want 3/3", len(b), cap(b))
	}
	if c := GrowInts(b, 2); &c[0] != &b[0] {
		t.Fatalf("GrowInts within capacity must reuse the array")
	}
	if d := GrowInts(b, 4); len(d) != 4 || cap(d) != 4 {
		t.Fatalf("GrowInts past cap: len=%d cap=%d, want 4/4", len(d), cap(d))
	}
}

func TestPoolRecycles(t *testing.T) {
	var p Pool
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d", len(a), cap(a))
	}
	a[0] = 7
	p.Put(a)
	b := p.Get(120) // same power-of-two bucket
	if cap(b) != 128 || &b[:1][0] != &a[:1][0] {
		t.Fatalf("Get after Put must return the recycled array")
	}
}

func TestPoolDropsOddCapacities(t *testing.T) {
	var p Pool
	odd := make([]float64, 100) // cap 100: not a power of two
	p.Put(odd)
	got := p.Get(100)
	if cap(got) == 100 {
		t.Fatalf("pool must not retain non-power-of-two capacities")
	}
}

func TestPoolGetZero(t *testing.T) {
	var p Pool
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
}
