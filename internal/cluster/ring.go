// Package cluster scales GYAN from one handler to N: job ownership is
// partitioned across handlers by consistent hashing over journal stripes,
// each handler keeps its own write-ahead journal, idle handlers steal queued
// work from backlogged peers, and a dead handler's partition is rebalanced
// across the survivors instead of being adopted wholesale.
//
// A Node is one member — a galaxy.Galaxy plus its own ring view, bindings,
// post-mortem archives and protocol state — whose only route to a peer is a
// transport.Transport; gyan-server -bus tcp hosts one per process. A Sim is
// N Nodes on one simulated bus stepped in lockstep, so failover and stealing
// are testable deterministically without real networking, by the very code
// a deployment runs.
package cluster

import (
	"fmt"
	"sort"
)

// Ring maps journal stripes to handler IDs with rendezvous (highest-random-
// weight) hashing under per-handler quotas. Plain consistent hashing cannot
// statistically promise tight balance at 32 stripes and a handful of
// handlers, so the ring keeps HRW's affinity — each stripe prefers the
// handler it scores highest with — but bounds every handler's load around
// the fair share stripes/N:
//
//   - Add gives the joiner exactly floor(stripes/N) stripes, always taking
//     from the currently most-loaded member, preferring the stripes the
//     joiner scores highest on. No unrelated stripe moves: movement is
//     ≤ 1/N of the keyspace.
//   - Remove reassigns exactly the departed member's stripes, each to the
//     currently least-loaded survivor (HRW score breaks ties). Again nothing
//     else moves, and the departed share is ≤ ceil(stripes/N).
//
// A Ring is a plain value owned by one Node (every member keeps its own
// view); it is not safe for concurrent use.
type Ring struct {
	stripes int
	owner   []string // stripe -> member, "" when the ring is empty
	members []string // sorted
}

// NewRing builds a ring over the given stripe count (conventionally
// DefaultStripes, 32) and adds the handlers in sorted order, so
// the same member set always yields the same assignment.
func NewRing(stripes int, handlers []string) (*Ring, error) {
	if stripes <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one stripe, got %d", stripes)
	}
	r := &Ring{stripes: stripes, owner: make([]string, stripes)}
	sorted := append([]string(nil), handlers...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	for _, h := range sorted {
		if h == "" {
			return nil, fmt.Errorf("cluster: empty handler ID")
		}
		if seen[h] {
			return nil, fmt.Errorf("cluster: duplicate handler ID %q", h)
		}
		seen[h] = true
		r.Add(h)
	}
	return r, nil
}

// StripeOf maps a cluster job key to its stripe: the key modulo the stripe
// count.
func (r *Ring) StripeOf(key uint64) int { return int(key % uint64(r.stripes)) }

// OwnerOfKey returns the handler owning the key's stripe.
func (r *Ring) OwnerOfKey(key uint64) string { return r.owner[r.StripeOf(key)] }

// Assignment returns a copy of the stripe->handler table.
func (r *Ring) Assignment() []string { return append([]string(nil), r.owner...) }

// Counts returns stripes owned per member.
func (r *Ring) Counts() map[string]int {
	out := make(map[string]int, len(r.members))
	for _, m := range r.members {
		out[m] = 0
	}
	for _, o := range r.owner {
		if o != "" {
			out[o]++
		}
	}
	return out
}

func (r *Ring) isMember(h string) bool {
	i := sort.SearchStrings(r.members, h)
	return i < len(r.members) && r.members[i] == h
}

// Add joins a handler and returns the moved stripes (stripe -> new owner).
// Joining an existing member is a no-op returning nil. The joiner receives
// floor(stripes/N) stripes, every one taken from a most-loaded member, so
// at most 1/N of the keyspace moves and all of it moves to the joiner.
func (r *Ring) Add(h string) map[int]string {
	if h == "" || r.isMember(h) {
		return nil
	}
	r.members = append(r.members, h)
	sort.Strings(r.members)
	moved := make(map[int]string)
	if len(r.members) == 1 {
		for s := range r.owner {
			r.owner[s] = h
			moved[s] = h
		}
		return moved
	}
	counts := r.Counts()
	quota := r.stripes / len(r.members)
	pref := r.stripesByScore(h)
	for len(moved) < quota {
		donor := r.pickDonor(counts, h)
		if donor == "" {
			break // fewer stripes than members
		}
		for _, s := range pref {
			if r.owner[s] != donor {
				continue
			}
			r.owner[s] = h
			moved[s] = h
			counts[donor]--
			counts[h]++
			break
		}
	}
	return moved
}

// Remove departs a handler and returns the moved stripes (stripe -> new
// owner). Exactly the departed member's stripes move; each goes to a
// currently least-loaded survivor, HRW score breaking ties. Removing the
// last member empties the ring (owners become "").
func (r *Ring) Remove(h string) map[int]string {
	if !r.isMember(h) {
		return nil
	}
	i := sort.SearchStrings(r.members, h)
	r.members = append(r.members[:i], r.members[i+1:]...)
	moved := make(map[int]string)
	counts := r.Counts()
	delete(counts, h)
	for s := 0; s < r.stripes; s++ {
		if r.owner[s] != h {
			continue
		}
		heir := r.pickHeir(counts, s)
		r.owner[s] = heir
		moved[s] = heir
		if heir != "" {
			counts[heir]++
		}
	}
	return moved
}

// pickDonor returns the most-loaded member other than h (ties: lowest ID),
// or "" when no member can spare a stripe.
func (r *Ring) pickDonor(counts map[string]int, h string) string {
	donor, best := "", 0
	for _, m := range r.members {
		if m == h {
			continue
		}
		if c := counts[m]; c > best {
			donor, best = m, c
		}
	}
	if best <= 0 {
		return ""
	}
	return donor
}

// pickHeir returns the least-loaded member (ties: highest HRW score for the
// stripe, then lowest ID), or "" on an empty ring.
func (r *Ring) pickHeir(counts map[string]int, stripe int) string {
	heir := ""
	bestCount := int(^uint(0) >> 1)
	var bestScore uint64
	for _, m := range r.members {
		c := counts[m]
		sc := hrwScore(m, stripe)
		if c < bestCount || (c == bestCount && sc > bestScore) {
			heir, bestCount, bestScore = m, c, sc
		}
	}
	return heir
}

// stripesByScore returns all stripes ordered by h's HRW score, best first.
func (r *Ring) stripesByScore(h string) []int {
	out := make([]int, r.stripes)
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := hrwScore(h, out[a]), hrwScore(h, out[b])
		if sa != sb {
			return sa > sb
		}
		return out[a] < out[b]
	})
	return out
}

// hrwScore is the rendezvous weight of (handler, stripe): FNV-1a over the
// handler ID, mixed with the stripe through a splitmix64 finalizer.
func hrwScore(handler string, stripe int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(handler); i++ {
		h ^= uint64(handler[i])
		h *= 1099511628211
	}
	h ^= uint64(stripe) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
