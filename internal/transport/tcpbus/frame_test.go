package tcpbus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// FuzzFrame holds the wire framing to its three promises. Over arbitrary
// bytes readFrame never panics and returns an envelope only from a stream
// whose length prefix and CRC are right, consuming exactly that frame.
// Whatever writeFrame wrote reads back equal. And one flipped byte anywhere
// in a written frame is an error (or, should a length flip ever land on a
// prefix with the same CRC, the identical envelope) — never a different
// envelope, which is what lets the bus drop the connection instead of
// delivering a corrupted message.
func FuzzFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := writeFrame(&valid, envelope{Type: envHello, From: "h0", Inc: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), "steal_prepare", "h1", "h0", uint64(7), uint64(2), `{"job":4}`, uint32(9))
	f.Add(valid.Bytes()[:valid.Len()-3], "", "", "", uint64(0), uint64(0), "", uint32(0))
	f.Add([]byte{}, envHello, "h\xff0", "", uint64(1), uint64(1), "<&> ", uint32(1<<24|4))

	f.Fuzz(func(t *testing.T, stream []byte, typ, from, to string, seq, inc uint64, body string, flip uint32) {
		r := bytes.NewReader(stream)
		if _, err := readFrame(r); err == nil {
			if len(stream) < frameHeaderSize {
				t.Fatalf("an envelope from a %d-byte stream", len(stream))
			}
			n := int(binary.LittleEndian.Uint32(stream[0:4]))
			if n == 0 || n > maxFrame || len(stream) < frameHeaderSize+n {
				t.Fatalf("an envelope from a stream of %d bytes whose length prefix says %d", len(stream), n)
			}
			if crc32.ChecksumIEEE(stream[frameHeaderSize:frameHeaderSize+n]) != binary.LittleEndian.Uint32(stream[4:8]) {
				t.Fatal("an envelope from a frame whose CRC is wrong")
			}
			if rest := r.Len(); rest != len(stream)-frameHeaderSize-n {
				t.Fatalf("read past the frame: %d bytes left of %d after a %d-byte payload", rest, len(stream), n)
			}
		}

		// JSON carries valid UTF-8 only; the bus's own strings are member IDs
		// and message types, so that is the domain the round trip is owed on.
		clean := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
		env := envelope{Type: clean(typ), From: clean(from), To: clean(to), Seq: seq, Inc: inc}
		if body != "" {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			env.Body = b
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, env); err != nil {
			if buf.Len() != 0 {
				t.Fatalf("writeFrame failed (%v) after writing %d bytes", err, buf.Len())
			}
			return // over maxFrame: refused whole
		}
		frame := buf.Bytes()
		got, err := readFrame(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(got, env) {
			t.Fatalf("wrote %+v, read back %+v (err %v)", env, got, err)
		}

		at := int(flip % uint32(len(frame)))
		frame[at] ^= byte(flip>>24) | 1
		if got, err := readFrame(bytes.NewReader(frame)); err == nil && !reflect.DeepEqual(got, env) {
			t.Fatalf("one flipped byte at %d turned %+v into %+v", at, env, got)
		}
	})
}
