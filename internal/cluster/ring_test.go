package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringConfigs are the (stripes, handlers) shapes the properties quantify
// over. Stripe counts stay well above handler counts (stripes/handlers >= 8,
// the realistic regime — a 32-stripe ring serving a handful of
// handlers), which is what lets the ±20% balance bound hold through the
// quota rounding.
func ringConfigs() [][2]int {
	var out [][2]int
	for _, stripes := range []int{32, 64, 256} {
		for n := 1; n*8 <= stripes && n <= 8; n++ {
			out = append(out, [2]int{stripes, n})
		}
	}
	return out
}

func randomHandlers(rng *rand.Rand, n int) []string {
	used := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		h := fmt.Sprintf("h%c%d", 'a'+rng.Intn(26), rng.Intn(1000))
		if used[h] {
			continue
		}
		used[h] = true
		out = append(out, h)
	}
	return out
}

// checkInvariants asserts full coverage and the ±20% balance property.
func checkInvariants(t *testing.T, r *Ring, context string) {
	t.Helper()
	counts := r.Counts()
	total := 0
	for s := 0; s < r.stripes; s++ {
		o := r.owner[s]
		if o == "" {
			t.Fatalf("%s: stripe %d unowned", context, s)
		}
		if _, ok := counts[o]; !ok {
			t.Fatalf("%s: stripe %d owned by non-member %q", context, s, o)
		}
	}
	fair := float64(r.stripes) / float64(len(r.members))
	for m, c := range counts {
		total += c
		if dev := float64(c) - fair; dev > 0.2*fair || dev < -0.2*fair {
			t.Fatalf("%s: member %q owns %d stripes, fair share %.1f (> ±20%%); counts=%v",
				context, m, c, fair, counts)
		}
	}
	if total != r.stripes {
		t.Fatalf("%s: counts sum to %d, want %d", context, total, r.stripes)
	}
}

// TestRingBalanceProperty: for many random member sets, every stripe is
// owned and every member's load is within ±20% of stripes/N.
func TestRingBalanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range ringConfigs() {
		stripes, n := cfg[0], cfg[1]
		for trial := 0; trial < 40; trial++ {
			handlers := randomHandlers(rng, n)
			r, err := NewRing(stripes, handlers)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, r, fmt.Sprintf("stripes=%d n=%d trial=%d", stripes, n, trial))
		}
	}
}

// TestRingJoinMovement: when a handler joins, at most 1/N of the keyspace
// moves, everything that moves goes to the joiner, and nothing else moves.
func TestRingJoinMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range ringConfigs() {
		stripes, n := cfg[0], cfg[1]
		if (n+1)*8 > stripes {
			continue // keep the post-join ring in the tested regime
		}
		for trial := 0; trial < 40; trial++ {
			handlers := randomHandlers(rng, n+1)
			joiner := handlers[n]
			r, err := NewRing(stripes, handlers[:n])
			if err != nil {
				t.Fatal(err)
			}
			before := r.Assignment()
			moved := r.Add(joiner)
			ctx := fmt.Sprintf("join stripes=%d n=%d trial=%d", stripes, n, trial)
			if max := stripes / (n + 1); len(moved) > max {
				t.Fatalf("%s: %d stripes moved, want <= %d (1/N of keyspace)", ctx, len(moved), max)
			}
			for s, owner := range moved {
				if owner != joiner {
					t.Fatalf("%s: moved stripe %d went to %q, not the joiner", ctx, s, owner)
				}
			}
			for s := 0; s < stripes; s++ {
				if _, ok := moved[s]; ok {
					continue
				}
				if r.owner[s] != before[s] {
					t.Fatalf("%s: unmoved stripe %d changed owner %q -> %q", ctx, s, before[s], r.owner[s])
				}
			}
			checkInvariants(t, r, ctx)
		}
	}
}

// TestRingLeaveMovement: when a handler leaves, exactly its stripes move
// (≤ ceil(stripes/N), i.e. ~1/N of the keyspace) and the survivors keep
// everything they had.
func TestRingLeaveMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range ringConfigs() {
		stripes, n := cfg[0], cfg[1]
		if n < 2 {
			continue
		}
		for trial := 0; trial < 40; trial++ {
			handlers := randomHandlers(rng, n)
			r, err := NewRing(stripes, handlers)
			if err != nil {
				t.Fatal(err)
			}
			before := r.Assignment()
			departed := handlers[rng.Intn(n)]
			owned := 0
			for _, o := range before {
				if o == departed {
					owned++
				}
			}
			moved := r.Remove(departed)
			ctx := fmt.Sprintf("leave stripes=%d n=%d trial=%d", stripes, n, trial)
			if len(moved) != owned {
				t.Fatalf("%s: %d stripes moved, want exactly the departed's %d", ctx, len(moved), owned)
			}
			if max := (stripes + n - 1) / n; len(moved) > max {
				t.Fatalf("%s: %d stripes moved, want <= ceil(stripes/N)=%d", ctx, len(moved), max)
			}
			for s := 0; s < stripes; s++ {
				if before[s] == departed {
					if _, ok := moved[s]; !ok {
						t.Fatalf("%s: departed stripe %d not reassigned", ctx, s)
					}
					continue
				}
				if r.owner[s] != before[s] {
					t.Fatalf("%s: survivor stripe %d changed owner %q -> %q", ctx, s, before[s], r.owner[s])
				}
			}
			checkInvariants(t, r, ctx)
		}
	}
}

// TestRingDeterministic: the same member set always yields the same
// assignment, regardless of the order handlers are listed in.
func TestRingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	handlers := randomHandlers(rng, 4)
	a, err := NewRing(32, handlers)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), handlers...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b, err := NewRing(32, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 32; s++ {
		if a.owner[s] != b.owner[s] {
			t.Fatalf("stripe %d: %q vs %q for the same member set", s, a.owner[s], b.owner[s])
		}
	}
}

func TestRingKeyMapping(t *testing.T) {
	r, err := NewRing(32, []string{"h0", "h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 100; key++ {
		if got, want := r.OwnerOfKey(key), r.owner[int(key%32)]; got != want {
			t.Fatalf("key %d: OwnerOfKey=%q, Owner(stripe)=%q", key, got, want)
		}
	}
	if _, err := NewRing(32, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate handler accepted")
	}
	if _, err := NewRing(0, nil); err == nil {
		t.Fatal("zero stripes accepted")
	}
	if r.Remove("nobody") != nil {
		t.Fatal("removing a non-member moved stripes")
	}
}
