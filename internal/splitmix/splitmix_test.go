package splitmix

import "testing"

// TestStream pins the generator to the SplitMix64 reference sequence from
// seed 0 and to its definition: the n-th draw is Mix(seed + n·golden).
func TestStream(t *testing.T) {
	s := NewStream(0)
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := s.Next(); got != want {
			t.Fatalf("draw %d from seed 0 = %#x, want %#x", i, got, want)
		}
	}
	const seed = 0xDEADBEEF
	s = NewStream(seed)
	for n := uint64(0); n < 100; n++ {
		if got, want := s.Next(), Mix(seed+n*golden); got != want {
			t.Fatalf("draw %d = %#x, want Mix(seed+n·golden) = %#x", n, got, want)
		}
	}
}

func TestUnit(t *testing.T) {
	if Unit(0) != 0 {
		t.Fatal("Unit(0) != 0")
	}
	if u := Unit(^uint64(0)); u >= 1 || u < 0.999999 {
		t.Fatalf("Unit(max) = %v, want just under 1", u)
	}
}
