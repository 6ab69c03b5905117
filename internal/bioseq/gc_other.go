//go:build !amd64

package bioseq

// gcCount returns the number of G and C bytes in bases; off amd64 there is
// no one-pass count.
func gcCount(bases []byte) int { return gcCountPair(bases) }
