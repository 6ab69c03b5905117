//go:build !amd64

package bonito

// useMasks is false off amd64, where there is no mask kernel.
const useMasks = false

// collapseInto is collapse's pass, collapseGo.
func collapseInto(out []byte, classes []int32) int { return collapseGo(out, classes) }
