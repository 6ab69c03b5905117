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
// anomaly as a typed *CorruptRecordError or a refusal wrapping
// ErrLegacyFormat while still returning the valid record prefix.
func FuzzReplay(f *testing.F) {
	// Seed corpus: a clean stream, a torn tail, a flipped CRC, JSON streams
	// that must be refused, and some classic troublemakers.
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
	// The same records as an older version wrote them, alone and around a
	// binary stream.
	var legacy []byte
	for _, rec := range trail() {
		b, err := encodeJSON(rec)
		if err != nil {
			f.Fatal(err)
		}
		legacy = append(legacy, b...)
	}
	f.Add(legacy)
	f.Add(append(append(legacy[:len(legacy):len(legacy)], clean...), legacy...))
	flipped := append([]byte(nil), clean...)
	flipped[5] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte("not a journal at all"))
	// A record of a kind this version no longer writes, out of trail order.
	queue, err := encode(Record{Type: "queue", At: 5, Job: 1, Devices: []int{0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(queue, clean...))
	// A lease record as writers before the kind was retired left it, its
	// retired TTL and wall-clock fields and all.
	f.Add(append(frame(leasePayload(time.Second, "h1", 1, 30*time.Second, 1000)), clean...))
	// Every file of a directory today's writer left: a snapshot, the
	// segments it rotated through after it, and the last one's torn tail.
	dir := f.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	appendAll(f, j, testRecords(10))
	if err := j.writeSnapshot(testRecords(2)); err != nil {
		f.Fatal(err)
	}
	appendAll(f, j, testRecords(20))
	if err := j.CrashTorn(clean[:len(clean)-5]); err != nil {
		f.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
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
		var cerr *CorruptRecordError
		switch {
		case err == nil, errors.Is(err, ErrLegacyFormat):
		case !errors.As(err, &cerr):
			t.Fatalf("replay error is neither a CorruptRecordError nor a refusal: %T %v", err, err)
		case cerr.Reason == "":
			t.Fatal("CorruptRecordError with empty reason")
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
