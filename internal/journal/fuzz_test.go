package journal

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// FuzzReplay throws arbitrary bytes at the replay decoder. The contract
// under fuzz: never panic, never allocate unboundedly, and classify every
// anomaly as a typed *CorruptRecordError while still returning the valid
// record prefix.
func FuzzReplay(f *testing.F) {
	// Seed corpus: a clean stream, a torn tail, a flipped CRC and some
	// classic troublemakers.
	var clean []byte
	for _, rec := range []Record{
		{Type: TypeSubmit, At: time.Second, Handler: "h1", Job: 1, Tool: "racon",
			Params: map[string]string{"scale": "0.01"}, Dataset: "nfl"},
		{Type: TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1, Devices: []int{0, 1}},
		{Type: TypeComplete, At: 3 * time.Second, Job: 1, State: "ok"},
	} {
		b, err := encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, b...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flipped := append([]byte(nil), clean...)
	flipped[5] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte("not a journal at all"))
	// A record of a kind this version no longer writes, out of trail order.
	f.Add(append(frame(`{"t":"queue","at":5,"job":1,"qop":"grant","devices":[0]}`), clean...))
	// Every file of a mixed directory: a flat-layout segment an older
	// version left, beside the shard segments and the snapshot a writer
	// produces today (real tickets, an incarnation epoch in the high bits).
	mixed := f.TempDir()
	writeFlat(f, mixed, segName(1), testRecords(3))
	j, err := Open(mixed, Options{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range testRecords(2 * shardWindow) {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(testRecords(2)); err != nil {
		f.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeComplete, Job: 1, State: "ok"}); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	err = filepath.WalkDir(mixed, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) == "" { // the LOCK file
			return err
		}
		b, err := os.ReadFile(path)
		f.Add(b)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReplayBytes(data)
		if err != nil {
			var cerr *CorruptRecordError
			if !errors.As(err, &cerr) {
				t.Fatalf("replay error is not a CorruptRecordError: %T %v", err, err)
			}
			if cerr.Reason == "" {
				t.Fatal("CorruptRecordError with empty reason")
			}
		}
		// The decoded prefix must itself re-encode: no half-decoded junk.
		for _, r := range recs {
			if _, eerr := encode(r); eerr != nil {
				t.Fatalf("replayed record does not re-encode: %v", eerr)
			}
		}
		// And whatever decodes must fold: every reader takes its meaning
		// from Fold, so a record sequence that panics it (or yields a trail
		// without its submit) would take recovery and the audit down together.
		h := Fold(recs)
		if !sort.IntsAreSorted(h.Order) || len(h.Order) != len(h.Jobs) {
			t.Fatalf("fold order %v does not list the %d trails ascending", h.Order, len(h.Jobs))
		}
		for _, id := range h.Order {
			if tr := h.Jobs[id]; tr == nil || tr.Submit.Type != TypeSubmit || tr.Submit.Job != id {
				t.Fatalf("job %d: trail %+v has no submit of its own", id, tr)
			}
		}
	})
}
