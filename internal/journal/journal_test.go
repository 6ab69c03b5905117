package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Type: TypeSubmit, At: time.Duration(i) * time.Second, Handler: "h1",
			Job: i + 1, Tool: "racon", User: "u", Dataset: "nfl",
			Params: map[string]string{"scale": "0.01"},
		}
	}
	return out
}

func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFlat writes recs as one top-level file (a wal-*.seg segment or a
// snap-*.json snapshot) of the flat layout older versions wrote and no
// writer produces any more; Replay still has to read it. The records keep
// whatever tickets they carry, and the per-record end offsets are returned
// for tests that corrupt the file at a record boundary.
func writeFlat(t testing.TB, dir, name string, recs []Record) []int64 {
	t.Helper()
	var buf []byte
	offsets := []int64{0}
	for _, r := range recs {
		b, err := encode(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		offsets = append(offsets, int64(len(buf)))
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return offsets
}

// TestFlatLayoutIsReadOnly pins what is left of the flat layout: a
// directory of top-level segments and a snapshot replays to the same records
// through the one replay function, reopening it writes only under shard-NN/,
// and the next WriteSnapshot removes the top-level segments.
func TestFlatLayoutIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(9)
	for i := range recs {
		recs[i].Tick = uint64(i + 1)
	}
	writeFlat(t, dir, snapName(2), recs[:3])
	writeFlat(t, dir, segName(2), recs[3:6])
	writeFlat(t, dir, segName(3), recs[6:])
	check := func(want int) []Record {
		t.Helper()
		got, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) != want {
			t.Fatalf("replayed %d records, want %d", len(got), want)
		}
		for i, r := range got[:len(recs)] {
			if r.Job != recs[i].Job {
				t.Fatalf("record %d: job %d, want %d", i, r.Job, recs[i].Job)
			}
		}
		return got
	}
	check(len(recs))

	j, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, Job: 50, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if top, _ := listSeqs(dir, segPrefix, segSuffix); len(top) != 2 {
		t.Fatalf("top-level segments %v after an append, want the 2 seeded ones untouched", top)
	}
	if got := check(len(recs) + 1); got[len(recs)].Job != 50 {
		t.Fatalf("append after the flat history replays as job %d, want 50", got[len(recs)].Job)
	}
	if err := j.WriteSnapshot(recs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if top, _ := listSeqs(dir, segPrefix, segSuffix); len(top) != 0 {
		t.Fatalf("snapshot left top-level segments %v", top)
	}
	check(len(recs))
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Job != recs[i].Job || got[i].At != recs[i].At || got[i].Params["scale"] != "0.01" {
			t.Fatalf("record %d mismatch: %+v", i, got[i])
		}
	}
}

func TestReplayMissingDir(t *testing.T) {
	recs, err := Replay(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: recs=%d err=%v, want empty, nil", len(recs), err)
	}
}

// TestSegmentRotation drives enough records through a tiny segment limit
// that many segments are produced, and checks order is preserved across the
// interleaved segment boundaries.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(40)
	appendAll(t, j, recs)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations < 5 {
		t.Fatalf("expected many rotations with a 256-byte segment limit, got %d", st.Rotations)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Job != i+1 {
			t.Fatalf("order broken at %d: job %d", i, got[i].Job)
		}
	}
}

// TestReopenAppends checks that reopening a journal picks a fresh segment
// and the combined history replays in order.
func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, testRecords(3))
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Type: TypeComplete, Job: 99, State: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Job != 99 {
		t.Fatalf("want 4 records ending in job 99, got %d: %+v", len(got), got)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(30))
	condensed := []Record{
		{Type: TypeSubmit, Job: 7, Tool: "racon"},
		{Type: TypeComplete, Job: 7, State: "ok"},
	}
	if err := j.WriteSnapshot(condensed); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, Job: 31, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Old segments must be gone, and even a one-stripe journal writes only
	// under its shard directory.
	segs, err := listSeqs(filepath.Join(dir, shardDirName(0)), segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1: %v", len(segs), segs)
	}
	if top, _ := listSeqs(dir, segPrefix, segSuffix); len(top) != 0 {
		t.Fatalf("top-level segments %v: the flat layout must never be written", top)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (2 snapshot + 1 tail)", len(got))
	}
	if got[0].Job != 7 || got[2].Job != 31 {
		t.Fatalf("snapshot/tail order wrong: %+v", got)
	}
}

// TestCrashDropsBufferedRecords checks the durability contract: with
// DurableSubmits, submits survive a crash while non-durable records still
// staged behind the flusher are lost.
func TestCrashDropsBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, Job: 1}); err != nil {
		t.Fatal(err)
	}
	j.HoldFlush(make(chan struct{}))
	if err := j.Append(Record{Type: TypeStart, Job: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeComplete, Job: 1, State: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	if len(got) != 1 || got[0].Type != TypeSubmit {
		t.Fatalf("want only the durable submit to survive, got %d records: %+v", len(got), got)
	}
}

func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(5)
	appendAll(t, j, recs)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Half a header's worth of garbage: a torn in-flight write.
	if err := j.CrashTorn([]byte{0x42, 0x00, 0x13}); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	var cerr *CorruptRecordError
	if !errors.As(err, &cerr) {
		t.Fatalf("want CorruptRecordError for torn tail, got %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("torn tail must not poison the prefix: got %d records, want %d", len(got), len(recs))
	}
}

// corrupt applies a mutation to the bytes of the journal's only segment.
func corruptSegment(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	path := filepath.Join(dir, segName(segs[0]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionTable covers the corruption classes replay must survive:
// truncated tails, bit-flipped CRCs and payloads, oversized length
// prefixes. In every case replay returns the prefix before the corruption
// point and a typed *CorruptRecordError — and never panics.
func TestCorruptionTable(t *testing.T) {
	const n = 6
	build := func(t *testing.T) (string, []int64) {
		dir := t.TempDir()
		return dir, writeFlat(t, dir, segName(1), testRecords(n))
	}

	cases := []struct {
		name string
		// mutate corrupts the segment given per-record offsets; returns
		// how many records must still replay.
		mutate func([]byte, []int64) ([]byte, int)
	}{
		{"truncated mid-payload", func(b []byte, off []int64) ([]byte, int) {
			return b[:off[4]+headerSize+2], 4 // record 5 torn
		}},
		{"truncated mid-header", func(b []byte, off []int64) ([]byte, int) {
			return b[:off[5]+3], 5 // record 6's header torn
		}},
		{"bit-flipped CRC", func(b []byte, off []int64) ([]byte, int) {
			b[off[2]+5] ^= 0x10 // record 3's stored CRC
			return b, 2
		}},
		{"bit-flipped payload", func(b []byte, off []int64) ([]byte, int) {
			b[off[3]+headerSize+4] ^= 0x01 // record 4's payload
			return b, 3
		}},
		{"oversized length prefix", func(b []byte, off []int64) ([]byte, int) {
			binary.LittleEndian.PutUint32(b[off[1]:], uint32(MaxRecord+1))
			return b, 1
		}},
		{"garbage payload bytes", func(b []byte, off []int64) ([]byte, int) {
			// Rewrite record 2 as framed non-JSON garbage of the same length.
			start := off[1] + headerSize
			end := off[2]
			for i := start; i < end; i++ {
				b[i] = 0xFE
			}
			// Fix the CRC so the corruption is semantic, not checksum-level.
			sum := crc32.ChecksumIEEE(b[start:end])
			binary.LittleEndian.PutUint32(b[off[1]+4:], sum)
			return b, 1
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, offsets := build(t)
			var wantPrefix int
			corruptSegment(t, dir, func(b []byte) []byte {
				mutated, keep := tc.mutate(b, offsets)
				wantPrefix = keep
				return mutated
			})
			got, err := Replay(dir)
			var cerr *CorruptRecordError
			if !errors.As(err, &cerr) {
				t.Fatalf("want CorruptRecordError, got %v", err)
			}
			if len(got) != wantPrefix {
				t.Fatalf("recovered %d records before corruption, want %d (reason: %s)",
					len(got), wantPrefix, cerr.Reason)
			}
			for i, r := range got {
				if r.Job != i+1 {
					t.Fatalf("prefix record %d corrupted: job %d", i, r.Job)
				}
			}
		})
	}
}

// TestCorruptMiddleSegment checks that corruption inside a middle segment
// loses only that segment's tail: everything before the corruption point
// and every later segment still replays, with the anomaly reported.
func TestCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(12)
	for i := 0; i < 3; i++ {
		writeFlat(t, dir, segName(i+1), recs[4*i:4*i+4])
	}
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %d", len(segs))
	}
	// Everything except the corrupted middle segment must survive.
	var midCount int
	{
		b, _ := os.ReadFile(filepath.Join(dir, segName(segs[1])))
		recs, _ := decodeStream(b, "")
		midCount = len(recs)
	}
	mid := filepath.Join(dir, segName(segs[1]))
	b, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	b[4] ^= 0xFF // flip the first record's CRC
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	var cerr *CorruptRecordError
	if !errors.As(err, &cerr) {
		t.Fatalf("want CorruptRecordError, got %v", err)
	}
	if cerr.Segment != segName(segs[1]) {
		t.Fatalf("anomaly reported in %q, want %q", cerr.Segment, segName(segs[1]))
	}
	if cerr.IsSnapshot() {
		t.Fatal("segment corruption must not classify as snapshot corruption")
	}
	if want := 12 - midCount; len(got) != want {
		t.Fatalf("want %d records (all but the corrupt segment's), got %d", want, len(got))
	}
	// The later segments' records must be present, in order.
	last := got[len(got)-1]
	if last.Job != 12 {
		t.Fatalf("newest record lost: last job %d, want 12", last.Job)
	}
}

// TestTornTailDoesNotPoisonLaterSegments pins the acknowledged-job loss
// scenario: incarnation 1 crashes with a torn tail in wal-N, incarnation 2
// recovers and appends durable submits to wal-N+1, and a third restart must
// replay BOTH the pre-crash prefix and everything incarnation 2 wrote —
// the torn tail in a sealed segment must never swallow later segments.
func TestTornTailDoesNotPoisonLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, testRecords(3))
	if err := j1.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: recovery succeeded, new acknowledged jobs land in the
	// next segment.
	j2, err := Open(dir, Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Type: TypeSubmit, Job: 100, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Type: TypeComplete, Job: 100, State: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 3: replay must surface the torn tail AND return every
	// record both incarnations persisted.
	got, err := Replay(dir)
	var cerr *CorruptRecordError
	if !errors.As(err, &cerr) {
		t.Fatalf("want the torn tail reported as CorruptRecordError, got %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("want 5 records (3 pre-crash + 2 post-recovery), got %d", len(got))
	}
	if got[3].Job != 100 || got[4].Type != TypeComplete {
		t.Fatalf("post-recovery records lost or reordered: %+v", got[3:])
	}
}

// TestOpenLocksDirectory checks the split-brain guard: a second Open of a
// live journal directory fails with LockedError, and the lock is released
// by Close and by Crash (modeling process death).
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a live journal must fail")
	} else {
		var lerr *LockedError
		if !errors.As(err, &lerr) {
			t.Fatalf("want LockedError, got %v", err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after Close must succeed: %v", err)
	}
	if err := j2.Crash(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after Crash must succeed (kernel drops a dead process's lock): %v", err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSnapshotFailureKeepsJournalAppendable forces the snapshot
// install to fail (its tmp path is occupied by a directory) and checks the
// journal recovers a writable segment: later appends succeed, nothing is
// silently dropped, and the full history still replays.
func TestWriteSnapshotFailureKeepsJournalAppendable(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(4))
	// Occupy the first snapshot's tmp path with a non-empty directory so
	// opening the tmp file fails.
	tmp := filepath.Join(dir, snapName(1)+".tmp")
	if err := os.MkdirAll(filepath.Join(tmp, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot([]Record{{Type: TypeSubmit, Job: 1}}); err == nil {
		t.Fatal("snapshot install should have failed")
	}
	// The journal must still accept and persist appends.
	if err := j.Append(Record{Type: TypeSubmit, Job: 50, Tool: "racon"}); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 5 || got[4].Job != 50 {
		t.Fatalf("want the 4 originals plus job 50, got %d records: %+v", len(got), got)
	}
}

// TestCorruptSnapshotIsFlagged checks that snapshot corruption is
// distinguishable from segment-tail corruption via IsSnapshot.
func TestCorruptSnapshotIsFlagged(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(6))
	if err := j.WriteSnapshot(testRecords(6)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	path := filepath.Join(dir, snapName(snaps[0]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[4] ^= 0xFF // flip the first record's CRC
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := Replay(dir)
	var cerr *CorruptRecordError
	if !errors.As(rerr, &cerr) {
		t.Fatalf("want CorruptRecordError, got %v", rerr)
	}
	if !cerr.IsSnapshot() {
		t.Fatalf("corruption in %q must classify as snapshot corruption", cerr.Segment)
	}
}
