//go:build !amd64

package racon

// useLanes is false off amd64, where there is no lane kernel: every row is
// copied from negInf and filled by the Go passes.
const useLanes = false

// fold is foldRow; fresh is always false here.
func fold(in, prev, sb []int32, gap int32, _ bool) { foldRow(in, prev, sb, gap) }

// fill is fillRow; fresh is always false here.
func fill(in, prev, sb []int32, left, gap int32, _ bool) (int32, int) {
	return fillRow(in, prev, sb, left, gap)
}
