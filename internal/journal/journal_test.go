package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

func appendAll(t testing.TB, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// stageAll is appendAll without the wait: behind a held flusher a durable
// Append would never return.
func stageAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := j.AppendAsync(r); err != nil {
			t.Fatal(err)
		}
	}
}

// writeSnapshot installs recs, and whatever is staged, as the journal's
// snapshot: Compact's install, with records the test chooses in place of the
// journal's own.
func (j *Journal) writeSnapshot(recs []Record) error {
	j.fileMu.Lock()
	defer j.fileMu.Unlock()
	return j.snapshotLocked(recs)
}

// writeSegment writes recs as segment seq of the journal in dir, keeping
// whatever tickets they carry, and returns the per-record end offsets for
// tests that corrupt the file at a record boundary.
func writeSegment(t testing.TB, dir string, seq int, recs []Record) []int64 {
	t.Helper()
	var buf []byte
	offsets := []int64{0}
	for i := range recs {
		var err error
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(len(buf)))
	}
	if err := os.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segDirName, segName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return offsets
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
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(30))
	condensed := []Record{
		{Type: TypeSubmit, Job: 7, Tool: "racon"},
		{Type: TypeComplete, Job: 7, State: "ok"},
	}
	if err := j.writeSnapshot(condensed); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, Job: 31, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Old segments must be gone, and the journal writes only under
	// shard-00/.
	segs, err := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1: %v", len(segs), segs)
	}
	if top, _ := listSeqs(dir, segPrefix, segSuffix); len(top) != 0 {
		t.Fatalf("top-level segments %v: the journal writes only under %s", top, segDirName)
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

// TestSnapshotSupersedesLeftoverSegments models a crash between a
// snapshot's install and its compaction: the segments it superseded are
// still on disk, and replay must drop their records by ticket rather than
// replay them beside the snapshot that condensed them.
func TestSnapshotSupersedesLeftoverSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(12))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, segDirName)
	old := dirFiles(t, sdir)
	if len(old) < 2 {
		t.Fatalf("want rotated segments before the snapshot, got %d", len(old))
	}
	if err := j.writeSnapshot([]Record{{Type: TypeSubmit, Job: 7, Tool: "racon"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, Job: 99, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for path, b := range old {
		if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 2 || got[0].Job != 7 || got[1].Job != 99 {
		t.Fatalf("replayed %+v, want the snapshot's job 7 then job 99", got)
	}
}

// TestCompactCopiesWhatReplayReads compacts a journal holding a snapshot, the
// segments rotated after it, a crashed incarnation's torn tail and records
// still staged behind a held flusher. The compacted journal must replay to
// the same records, field for field but the ticket, in strictly increasing
// ticket order, report no corruption (the torn segment is gone) and keep
// taking appends after the snapshot.
func TestCompactCopiesWhatReplayReads(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(6))
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(12))
	if err := j.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	j, err = Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, testRecords(4))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	want, corrupt, err := ReplayAll(dir)
	if err != nil || len(corrupt) != 1 {
		t.Fatalf("before compaction: %d torn tails (err %v), want 1", len(corrupt), err)
	}
	if len(want) != 22 {
		t.Fatalf("before compaction: %d records, want 22", len(want))
	}
	if st := j.Stats(); st.Segments < 3 {
		t.Fatalf("want rotated segments before compaction, got %+v", st)
	}
	hold := make(chan struct{})
	j.HoldFlush(hold)
	staged := testRecords(3)
	stageAll(t, j, staged)
	want = append(want, staged...)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	close(hold)
	j.HoldFlush(nil)
	if err := j.Append(Record{Type: TypeSubmit, Job: 99, Tool: "bonito"}); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Type: TypeSubmit, Job: 99, Tool: "bonito"})

	got, corrupt, err := ReplayAll(dir)
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("after compaction: corrupt %v (err %v), want none", corrupt, err)
	}
	if segs, _ := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix); len(segs) != 1 {
		t.Errorf("compaction left segments %v, want only the fresh one", segs)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick %#x not above %#x", i, got[i].Tick, got[i-1].Tick)
		}
	}
	for i := range got {
		got[i].Tick = 0
	}
	for i := range want {
		want[i].Tick = 0
	}
	if len(got) != len(want) {
		t.Fatalf("compacted journal replays %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("compacted record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCompactRefusesACorruptSnapshot flips a bit in a snapshot's first
// record. Compact must refuse — the snapshot is the base every later segment
// builds on, and copying what survives would make the loss permanent — and
// leave every file as it was; on a closed journal it must refuse too.
func TestCompactRefusesACorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, testRecords(4))
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(2))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[4] ^= 0xFF // the first record's CRC
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	var cerr *CorruptRecordError
	if err := j.Compact(); !errors.As(err, &cerr) || !cerr.IsSnapshot() {
		t.Fatalf("Compact over a corrupt snapshot = %v, want its snapshot CorruptRecordError", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused Compact changed the directory:\n got %q\nwant %q", after, before)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	before = dirFiles(t, dir)
	if err := j.Compact(); err == nil {
		t.Fatal("Compact on a closed journal succeeded")
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("Compact on a closed journal changed the directory:\n got %q\nwant %q", after, before)
	}
}

// TestCrashDropsBufferedRecords checks the durability contract: a submit
// survives a crash while non-durable records still staged behind the flusher
// are lost.
func TestCrashDropsBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
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

// TestReplayAfterOpenMatchesReplayBefore pins the order recovery reads a
// directory in: Open first — its lock proves every previous holder dead, so
// none can append after the read — then Replay. Over a snapshot, the segments
// rotated after it and a torn tail, the replay after Open returns the same
// records and the same torn-tail error as a replay before it: Open's fresh
// segment adds nothing.
func TestReplayAfterOpenMatchesReplayBefore(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(10))
	if err := j.writeSnapshot(testRecords(2)); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(20))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Segments < 2 {
		t.Fatalf("no rotation after the snapshot: %+v", st)
	}
	if err := j.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	before, berr := Replay(dir)
	var cerr *CorruptRecordError
	if !errors.As(berr, &cerr) || cerr.IsSnapshot() {
		t.Fatalf("replay before Open: want a torn segment tail, got %v", berr)
	}
	if len(before) != 22 {
		t.Fatalf("replay before Open read %d records, want the snapshot's 2 and the 20 after it", len(before))
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	after, aerr := Replay(dir)
	if aerr == nil || aerr.Error() != berr.Error() {
		t.Fatalf("replay after Open: error %v, want %v", aerr, berr)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("replay after Open read %d records, before it %d: they differ", len(after), len(before))
	}
}

// corruptSegment applies a mutation to the bytes of the journal's first
// segment.
func corruptSegment(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	segs, err := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	path := filepath.Join(dir, segDirName, segName(segs[0]))
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
		return dir, writeSegment(t, dir, 1, testRecords(n))
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
			// Rewrite record 2's fields, behind its version byte, as
			// garbage of the same length: a frame of another version is a
			// refusal (TestLegacyFormatIsRefused), not corruption.
			start := off[1] + headerSize + 1
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
		writeSegment(t, dir, i+1, recs[4*i:4*i+4])
	}
	sdir := filepath.Join(dir, segDirName)
	segs, err := listSeqs(sdir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %d", len(segs))
	}
	// Everything except the corrupted middle segment must survive.
	var midCount int
	{
		b, _ := os.ReadFile(filepath.Join(sdir, segName(segs[1])))
		recs, _ := decodeStream(nil, b, "", 0)
		midCount = len(recs)
	}
	mid := filepath.Join(sdir, segName(segs[1]))
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
	if want := filepath.Join(segDirName, segName(segs[1])); cerr.Segment != want {
		t.Fatalf("anomaly reported in %q, want %q", cerr.Segment, want)
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
	j1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, testRecords(3))
	if err := j1.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: recovery succeeded, new acknowledged jobs land in the
	// next segment.
	j2, err := Open(dir, Options{})
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
	if err := j.writeSnapshot([]Record{{Type: TypeSubmit, Job: 1}}); err == nil {
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
	if err := j.writeSnapshot(testRecords(6)); err != nil {
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

// frame wraps a raw payload in the record framing, CRC and all, so tests can
// plant payloads no current writer produces.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyFormatIsRefused plants, beside a journal today's writer left,
// each thing only an older version wrote: a flat-layout segment, a second
// stripe directory, a whole JSON frame and a whole frame of an unknown
// payload version in shard-00/. Open, Replay and ReplayAll must each refuse
// the directory with ErrLegacyFormat — never a *CorruptRecordError, which
// recovery would boot over — and leave every byte of it as it was.
func TestLegacyFormatIsRefused(t *testing.T) {
	js, err := encodeJSON(trail()[0])
	if err != nil {
		t.Fatal(err)
	}
	v1 := frame(appendRecord(nil, &trail()[0]))
	v2 := appendRecord(nil, &trail()[0])
	v2[0] = binaryVersion + 1
	cases := []struct {
		name, file string
		b          []byte
	}{
		{"flat segment", segName(1), v1},
		{"second stripe", filepath.Join(shardPrefix+"03", segName(1)), v1},
		{"JSON frame", filepath.Join(segDirName, segName(9)), js},
		{"payload version 2", filepath.Join(segDirName, segName(9)), frame(v2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, j, testRecords(3))
			if err := j.writeSnapshot(testRecords(2)); err != nil {
				t.Fatal(err)
			}
			appendAll(t, j, testRecords(2))
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.file)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.b, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)

			j, err = Open(dir, Options{})
			if j != nil {
				j.Close()
			}
			_, rerr := Replay(dir)
			_, _, aerr := ReplayAll(dir)
			for name, err := range map[string]error{"Open": err, "Replay": rerr, "ReplayAll": aerr} {
				var cerr *CorruptRecordError
				if !errors.Is(err, ErrLegacyFormat) || errors.As(err, &cerr) {
					t.Errorf("%s: err = %v, want ErrLegacyFormat", name, err)
				}
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("refusal changed the directory:\n got %q\nwant %q", after, before)
			}
		})
	}
}

// TestOpenRefusesAnExhaustedEpoch plants a segment whose sequence number
// leaves no room in the ticket's epoch bits. Open must refuse it and write
// nothing: an incarnation that opened anyway would stamp tickets below the
// snapshot's, and replay would drop the submits it acknowledged.
func TestOpenRefusesAnExhaustedEpoch(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.writeSnapshot([]Record{{Type: TypeSubmit, Job: 1, Tool: "racon"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, dir, 1<<(64-tickEpochShift)-1, nil)
	before := dirFiles(t, dir)
	if j, err := Open(dir, Options{}); err == nil {
		err = j.Append(Record{Type: TypeSubmit, Job: 2, Tool: "racon"})
		j.Close()
		got, rerr := Replay(dir)
		t.Fatalf("Open over an exhausted epoch succeeded; the acked submit (err %v) replays as %d record(s) (err %v)",
			err, len(got), rerr)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused Open changed the directory:\n got %q\nwant %q", after, before)
	}
}
