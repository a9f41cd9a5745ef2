package bannet

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wiban/internal/units"
)

// sortedP50P99 is the oracle: sort a copy and index it.
func sortedP50P99(a []units.Duration) (p50, p99 units.Duration) {
	s := slices.Clone(a)
	slices.Sort(s)
	return s[len(s)/2], s[len(s)*99/100]
}

// checkP50P99 compares p50p99 with the oracle under cmp.Compare, which
// treats ±0 as equal and NaN as equal to NaN (the sort itself may place
// either member of such a pair), and checks that a is still a
// permutation of its input.
func checkP50P99(t *testing.T, name string, a []units.Duration) {
	t.Helper()
	want50, want99 := sortedP50P99(a)
	before := slices.Clone(a)
	got50, got99 := p50p99(a)
	if cmp.Compare(got50, want50) != 0 || cmp.Compare(got99, want99) != 0 {
		t.Fatalf("%s n=%d: p50p99 = (%v, %v), sort gives (%v, %v)", name, len(a), got50, got99, want50, want99)
	}
	slices.Sort(before)
	slices.Sort(a)
	for i := range a {
		if cmp.Compare(a[i], before[i]) != 0 {
			t.Fatalf("%s n=%d: p50p99 changed the multiset", name, len(a))
		}
	}
}

func TestP50P99MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(i, n int) units.Duration
	}{
		{"random", func(i, n int) units.Duration { return units.Duration(rng.Float64()) }},
		{"duplicates", func(i, n int) units.Duration { return units.Duration(rng.Intn(3)) * 1e-3 }},
		{"all-equal", func(i, n int) units.Duration { return 0.25 }},
		{"sorted", func(i, n int) units.Duration { return units.Duration(i) }},
		{"reverse", func(i, n int) units.Duration { return units.Duration(n - i) }},
		{"organ-pipe", func(i, n int) units.Duration { return units.Duration(min(i, n-i)) }},
		{"half-nan", func(i, n int) units.Duration {
			if i%2 == 0 {
				return units.Duration(math.NaN())
			}
			return units.Duration(rng.Float64())
		}},
		{"specials", func(i, n int) units.Duration {
			switch rng.Intn(8) {
			case 0:
				return units.Duration(math.NaN())
			case 1:
				return units.Duration(math.Copysign(0, -1))
			case 2:
				return units.Duration(math.Inf(1))
			case 3:
				return units.Duration(math.Inf(-1))
			}
			return units.Duration(rng.NormFloat64())
		}},
	}
	for _, sh := range shapes {
		for n := 1; n <= 400; n++ {
			a := make([]units.Duration, n)
			for i := range a {
				a[i] = sh.gen(i, n)
			}
			checkP50P99(t, sh.name, a)
		}
	}
}

// FuzzP50P99 reads the input as little-endian float64 bit patterns, so
// the fuzzer reaches NaN payloads, signed zeros, infinities and
// subnormals as well as ordinary values.
func FuzzP50P99(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), math.Float64bits(-1)))
	seed := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(float64((i*37)%11)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := make([]units.Duration, len(data)/8)
		if len(a) == 0 {
			return
		}
		for i := range a {
			a[i] = units.Duration(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
		}
		checkP50P99(t, "fuzz", a)
	})
}
