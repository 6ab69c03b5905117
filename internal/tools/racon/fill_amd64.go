package racon

import "gyan/internal/cpuid"

// useLanes is whether the row passes run eight cells at a time in AVX2
// lanes, decided once per process. Elsewhere foldRow and fillRow run them.
var useLanes = cpuid.AVX2

// foldRowAVX2 is foldRow in lanes; with fresh it takes every in[i] as negInf
// without loading it.
//
//go:noescape
func foldRowAVX2(in, prev, sb []int32, gap int32, fresh bool)

// fillRowAVX2 is fillRow in lanes, with the same scores, top and at; with
// fresh it takes every in[i] as negInf without loading it.
//
//go:noescape
func fillRowAVX2(in, prev, sb []int32, left, gap int32, fresh bool) (top int32, at int)

// fold runs the pass over a predecessor row other than the last (foldRow).
// fresh is only ever set with useLanes.
func fold(in, prev, sb []int32, gap int32, fresh bool) {
	if !useLanes {
		foldRow(in, prev, sb, gap)
		return
	}
	foldRowAVX2(in, prev[:len(in)+1], sb[:len(in)], gap, fresh)
}

// fill runs the pass over a row's last predecessor (fillRow). fresh is only
// ever set with useLanes.
func fill(in, prev, sb []int32, left, gap int32, fresh bool) (int32, int) {
	if !useLanes {
		return fillRow(in, prev, sb, left, gap)
	}
	return fillRowAVX2(in, prev[:len(in)+1], sb[:len(in)], left, gap, fresh)
}
