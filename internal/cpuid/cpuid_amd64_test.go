package cpuid

import "testing"

// TestAVX2ImpliesAVX: the AVX2 lanes need the YMM state AVX's probe checks.
func TestAVX2ImpliesAVX(t *testing.T) {
	if AVX2 && !AVX {
		t.Fatal("AVX2 reported without AVX")
	}
	t.Logf("AVX %v, AVX2 %v", AVX, AVX2)
}
