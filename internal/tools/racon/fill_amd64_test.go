package racon

import (
	"math"
	"slices"
	"testing"

	"gyan/internal/sim"
)

// checkLanes holds foldRowAVX2 and fillRowAVX2 to foldRow and fillRow on one
// row: every cell, top and at, with the row's own start and fresh (the Go
// pass then starts from a row of negInf, the lanes from a poisoned one). No
// lane pass may write past len(in).
func checkLanes(t testing.TB, in, prev, sb []int32, left, gap int32) {
	t.Helper()
	const canary, poison = int32(0x5eed), int32(1 << 28)
	n := len(in)
	row := func(fill int32) []int32 {
		r := make([]int32, n, n+8)
		if fill == 0 {
			copy(r, in)
		} else {
			for i := range r {
				r[i] = fill
			}
		}
		for i := n; i < n+8; i++ {
			r[:n+8][i] = canary
		}
		return r
	}
	unchanged := func(what string, r []int32) {
		t.Helper()
		for i, v := range r[n : n+8] {
			if v != canary {
				t.Fatalf("%s of %d cells wrote %d at cell %d", what, n, v, n+i)
			}
		}
	}
	for _, fresh := range []bool{false, true} {
		want, got := row(0), row(0)
		if fresh {
			want, got = row(negInf), row(poison)
		}
		foldRow(want, prev, sb, gap)
		foldRowAVX2(got, prev, sb, gap, fresh)
		unchanged("foldRowAVX2", got)
		if !slices.Equal(got, want) {
			t.Fatalf("fold, %d cells, gap %d, fresh %v:\nin   %v\nprev %v\nsb   %v\nlanes %v\nGo    %v",
				n, gap, fresh, in, prev, sb, got, want)
		}

		want, got = row(0), row(0)
		if fresh {
			want, got = row(negInf), row(poison)
		}
		wtop, wat := fillRow(want, prev, sb, left, gap)
		gtop, gat := fillRowAVX2(got, prev, sb, left, gap, fresh)
		unchanged("fillRowAVX2", got)
		if !slices.Equal(got, want) || gtop != wtop || gat != wat {
			t.Fatalf("fill, %d cells, left %d, gap %d, fresh %v:\nin   %v\nprev %v\nsb   %v\nlanes %v top %d at %d\nGo    %v top %d at %d",
				n, left, gap, fresh, in, prev, sb, got, gtop, gat, want, wtop, wat)
		}
	}
}

// TestFillRowLanesMatchScalar: rows of 0 to 70 cells, so every tail of 0 to
// 7 cells follows 0 to 8 full blocks, with gaps from 0 to -6, left negInf or
// not, and a quarter, half or all of the cells negInf. Values come from a
// narrow range, so a row's maximum is often tied and at must be the first.
func TestFillRowLanesMatchScalar(t *testing.T) {
	if !useLanes {
		t.Skip("no AVX2 on this host: the Go passes fill every row")
	}
	rng := sim.NewRNG(47)
	for n := 0; n <= 70; n++ {
		for gap := int32(0); gap >= -6; gap-- {
			for trial := 0; trial < 8; trial++ {
				dense := trial % 4 // negInf in dense of 4 cells, or 0 of 4
				value := func() int32 {
					if rng.Intn(4) < dense {
						return negInf
					}
					return int32(rng.Intn(41)) - 20
				}
				in, prev, sb := make([]int32, n), make([]int32, n+1), make([]int32, n)
				for i := range in {
					in[i], sb[i] = value(), []int32{3, -5}[rng.Intn(2)]
				}
				for i := range prev {
					prev[i] = value()
				}
				left := negInf
				if trial >= 4 {
					left = value()
				}
				checkLanes(t, in, prev, sb, left, gap)
			}
		}
	}
}

// FuzzFillRow holds the lanes to the Go passes over arbitrary rows: each
// cell is three bytes (start, diagonal, substitution score), a byte at or
// above 0xf0 is negInf, and a byte left over is the last cell's up, else
// negInf.
func FuzzFillRow(f *testing.F) {
	f.Add([]byte("\x10\x20\x03\xff\xff\xfb\x00\x30\x03"), int16(0), uint8(4))
	f.Add(make([]byte, 3*17), int16(math.MinInt16), uint8(1))
	f.Fuzz(func(t *testing.T, cells []byte, left int16, gap uint8) {
		if len(cells) > 3*256 {
			t.Skip()
		}
		value := func(b byte) int32 {
			if b >= 0xf0 {
				return negInf
			}
			return int32(b) - 120
		}
		n := len(cells) / 3
		in, prev, sb := make([]int32, n), make([]int32, n+1), make([]int32, n)
		for i := range in {
			in[i], prev[i], sb[i] = value(cells[3*i]), value(cells[3*i+1]), int32(int8(cells[3*i+2]))
		}
		prev[n] = negInf
		if len(cells)%3 != 0 {
			prev[n] = value(cells[len(cells)-1])
		}
		l := int32(left)
		if left == math.MinInt16 {
			l = negInf
		}
		checkLanes(t, in, prev, sb, l, -int32(gap%64))
	})
}

// TestGoPassesMatchOracle runs TestAddSequenceMatchesOracle with the lane
// passes switched off, as on a host without AVX2: every row copied from
// negInf and filled by foldRow and fillRow. The test itself runs the lanes.
func TestGoPassesMatchOracle(t *testing.T) {
	if !useLanes {
		t.Skip("no AVX2 on this host: TestAddSequenceMatchesOracle already runs the Go passes")
	}
	t.Run("go passes", func(t *testing.T) {
		useLanes = false
		defer func() { useLanes = true }()
		TestAddSequenceMatchesOracle(t)
	})
}
