package bonito

import (
	"math/bits"

	"gyan/internal/cpuid"
)

// changeMasks writes the masks collapseMasks walks for each whole block of
// eight timesteps k of classes: byte k of diff (little-endian, so bit i of
// the byte is timestep 8k+i of the word's 64) holds the timesteps whose class
// differs from the one before, prev before the first, and byte k of nonBlank
// those whose class is not blank. The last len(classes) mod 8 timesteps are
// not read; diff and nonBlank must hold len(classes)/8 bytes.
//
//go:noescape
func changeMasks(classes []int32, prev int32, diff, nonBlank []uint64)

// useMasks is whether collapse walks changeMasks' masks, decided once per
// process.
var useMasks = cpuid.AVX2

// collapseInto is collapse's pass: collapseMasks with useMasks, else
// collapseGo.
func collapseInto(out []byte, classes []int32) int {
	if useMasks {
		return collapseMasks(out, classes)
	}
	return collapseGo(out, classes)
}

// maskWords is the number of 64-timestep mask words collapseMasks keeps on
// its stack at a time (TestCollapseMasksAtWordBoundaries straddles its
// 2 048 timesteps).
const maskWords = 32

// collapseMasks is collapse over changeMasks' masks, 64 timesteps a word: it
// visits only the timesteps whose class changes, writes the bases into out
// and returns their count. In a word, D is the changes (the class differs
// from the original one before), NB the non-blanks, and a timestep t of D&NB
// whose next class equals its previous one is a repair candidate. Where the
// timestep before a candidate was repaired, the two now hold the same class,
// so repair_t = candidate_t && !repair_{t-1}, which is the candidates
// themselves unless two are adjacent (a blip run, A C A C A) and which
// carries the last timestep's repair into the next word. A repaired timestep
// and the one after it hold the class before them, and every other change
// keeps its class: the emits are D & NB &^ repair &^ (repair<<1 | carry).
func collapseMasks(out []byte, classes []int32) int {
	var diff, nonBlank [maskWords]uint64
	n := 0
	prev := int32(-1)
	var carry uint64 // whether the timestep before the word was repaired
	for base := 0; base < len(classes); base += 64 * maskWords {
		chunk := classes[base:min(base+64*maskWords, len(classes))]
		words := (len(chunk) + 63) / 64
		// changeMasks writes the whole blocks' bytes; the last
		// len(chunk) mod 8 timesteps are ORed into the last word here.
		diff[words-1], nonBlank[words-1] = 0, 0
		whole := len(chunk) &^ 7
		changeMasks(chunk[:whole], prev, diff[:], nonBlank[:])
		if whole > 0 {
			prev = chunk[whole-1]
		}
		for i := whole; i < len(chunk); i++ {
			c := chunk[i]
			if c != prev {
				diff[i/64] |= 1 << (i % 64)
			}
			if c != classBlank {
				nonBlank[i/64] |= 1 << (i % 64)
			}
			prev = c
		}
		for w, d := range diff[:words] {
			t0 := base + 64*w
			change := d & nonBlank[w]
			// D>>1 drops candidates whose next timestep is no change; the
			// next word's first timestep is left to the class check.
			var repair uint64
			for cand := change & (d>>1 | 1<<63); cand != 0; cand &= cand - 1 {
				i := bits.TrailingZeros64(cand)
				t := t0 + i
				if t == 0 || t+1 == len(classes) || classes[t+1] != classes[t-1] || (repair<<1|carry)>>i&1 != 0 {
					continue
				}
				repair |= 1 << i
			}
			emit := change &^ (repair | repair<<1 | carry)
			carry = repair >> 63
			for ; emit != 0; emit &= emit - 1 {
				out[n] = "ACGT"[classes[t0+bits.TrailingZeros64(emit)]]
				n++
			}
		}
	}
	return n
}
