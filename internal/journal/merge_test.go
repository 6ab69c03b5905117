package journal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// replayAllSorted is ReplayAll as it was before the merge: each file decoded
// into its own slice, the survivors appended to one more, and the segment
// records put in ticket order by a stable sort of their concatenation. It
// is the oracle mergeByTick is held to.
func replayAllSorted(dir string) ([]Record, []*CorruptRecordError, error) {
	shardDirs, err := listShardDirs(dir)
	if err != nil {
		return nil, nil, err
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, err
	}
	var out []Record
	var corrupt []*CorruptRecordError
	minSnapTick := uint64(0)
	if len(snaps) > 0 {
		name := snapName(snaps[len(snaps)-1])
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: read snapshot: %w", err)
		}
		recs, cerr := decodeStream(nil, b, name, 0)
		out = append(out, recs...)
		if cerr != nil {
			return out, []*CorruptRecordError{cerr}, nil
		}
		for _, r := range recs {
			if minSnapTick == 0 || r.Tick < minSnapTick {
				minSnapTick = r.Tick
			}
		}
	}
	nsnap := len(out)
	for _, label := range append([]string{""}, shardDirs...) {
		sdir := filepath.Join(dir, label)
		segs, err := listSeqs(sdir, segPrefix, segSuffix)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range segs {
			name := segName(s)
			b, err := os.ReadFile(filepath.Join(sdir, name))
			if err != nil {
				return nil, nil, fmt.Errorf("journal: read segment: %w", err)
			}
			recs, cerr := decodeStream(nil, b, filepath.Join(label, name), 0)
			for _, r := range recs {
				if r.Tick >= minSnapTick {
					out = append(out, r)
				}
			}
			if cerr != nil {
				corrupt = append(corrupt, cerr)
			}
		}
	}
	all := out[nsnap:]
	sort.SliceStable(all, func(i, k int) bool { return all[i].Tick < all[k].Tick })
	return out, corrupt, nil
}

// TestReplayMergeMatchesStableSort builds random journal directories — one
// to eight shards with several segments each, an out-of-order flat-layout
// stream, tick-0 ties, a snapshot superseding a prefix of the tickets, torn
// tails in several shards — and requires ReplayAll to return exactly the
// records, order and corruption reports the stable-sort oracle does.
func TestReplayMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		dir := t.TempDir()
		shards := 1 + rng.Intn(8)
		tick := uint64(rng.Intn(3)) << tickEpochShift
		next := func() uint64 {
			if rng.Intn(10) == 0 {
				return 0 // written before tickets existed
			}
			tick += uint64(1 + rng.Intn(3))
			return tick
		}
		job := 0
		rec := func() Record {
			job++
			return Record{Type: TypeSubmit, Job: job, Tick: next(), Tool: "racon", Handler: fmt.Sprint("h", trial)}
		}
		// Deal records round-robin-ish into shard segments, in ticket order
		// as a writer lays them down.
		segs := make([][][]Record, shards)
		for s := range segs {
			segs[s] = make([][]Record, 1+rng.Intn(3))
		}
		for n := rng.Intn(120); n > 0; n-- {
			s := rng.Intn(shards)
			g := rng.Intn(len(segs[s]))
			segs[s][g] = append(segs[s][g], rec())
		}
		for s := range segs {
			for g := range segs[s] {
				// A shard written by an older version is out of order.
				if rng.Intn(6) == 0 {
					rng.Shuffle(len(segs[s][g]), func(i, k int) {
						segs[s][g][i], segs[s][g][k] = segs[s][g][k], segs[s][g][i]
					})
				}
				b := frames(t, segs[s][g])
				if rng.Intn(4) == 0 && len(b) > 3 {
					b = b[:len(b)-1-rng.Intn(3)] // torn tail
				}
				sdir := filepath.Join(dir, shardDirName(s))
				if err := os.MkdirAll(sdir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(sdir, segName(g+1)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(2) == 0 {
			flat := make([]Record, rng.Intn(20))
			for i := range flat {
				flat[i] = rec()
			}
			rng.Shuffle(len(flat), func(i, k int) { flat[i], flat[k] = flat[k], flat[i] })
			writeFlat(t, dir, segName(1+rng.Intn(3)), flat)
		}
		if rng.Intn(2) == 0 {
			// A snapshot stamped mid-history supersedes every ticket below it.
			snap := []Record{rec(), rec()}
			snap[0].Tick, snap[1].Tick = tick/2+1, tick/2+2
			writeFlat(t, dir, snapName(1), snap)
		}

		want, wantCorrupt, werr := replayAllSorted(dir)
		got, gotCorrupt, gerr := ReplayAll(dir)
		if werr != nil || gerr != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, gerr, werr)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d (%d shards): replay order differs from the stable sort\n got %v\nwant %v",
				trial, shards, ticks(got), ticks(want))
		}
		if !reflect.DeepEqual(gotCorrupt, wantCorrupt) {
			t.Fatalf("trial %d: corruption %v, want %v", trial, gotCorrupt, wantCorrupt)
		}
	}
}

func frames(t *testing.T, recs []Record) []byte {
	var b []byte
	for i := range recs {
		var err error
		if b, err = appendFrame(b, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func ticks(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%d/%#x", r.Job, r.Tick)
	}
	return out
}
