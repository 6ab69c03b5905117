// Package tcpbus is the real-socket implementation of transport.Transport:
// the same Send/Receive surface the cluster protocol runs against in the
// simulator, carried over TCP on loopback or a LAN. Envelopes ride
// length-prefixed CRC-framed JSON — the journal's framing discipline
// (uint32 LE payload length, uint32 LE CRC32 of the payload, payload) —
// so a torn or corrupted stream is detected at the frame boundary and the
// connection is dropped rather than mis-parsed. Delivery stamps are
// receiver-side wall clock: unlike the simulated bus there is no shared
// virtual clock between processes, so SentAt/DeliverAt are the receiver's
// local arrival time, which is exactly the liveness evidence the lease
// table needs ("this peer was alive a network-delay ago").
package tcpbus

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// frameHeaderSize is the length + CRC prefix, matching internal/journal.
const frameHeaderSize = 8

// maxFrame bounds one envelope; the largest body, a steal prepare carrying
// one submit record, is well under a kilobyte, so anything near this is
// corruption, not traffic.
const maxFrame = 1 << 20

// envelope is one message on the wire. The first frame on every connection
// is a hello envelope (Type envHello) carrying the sender's identity and
// incarnation; the receiver fences stale incarnations at that point.
type envelope struct {
	Type string `json:"t"`
	From string `json:"f"`
	To   string `json:"to,omitempty"`
	// Seq is the sender's per-process send sequence (diagnostic; receivers
	// order by local arrival).
	Seq uint64 `json:"s,omitempty"`
	// Inc is the sender's incarnation, fenced receiver-side.
	Inc  uint64          `json:"i"`
	Body json.RawMessage `json:"b,omitempty"`
}

// envHello is the connection-opening envelope type.
const envHello = "tcpbus-hello"

// writeFrame emits one framed envelope.
func writeFrame(w io.Writer, env envelope) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("tcpbus: envelope too large (%d bytes)", len(payload))
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one framed envelope; any framing or CRC violation is an
// error that should drop the connection (the peer will reconnect and the
// protocol retries cover the loss).
func readFrame(r io.Reader) (envelope, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return envelope{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxFrame {
		return envelope{}, fmt.Errorf("tcpbus: bad frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return envelope{}, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return envelope{}, fmt.Errorf("tcpbus: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return envelope{}, fmt.Errorf("tcpbus: decode envelope: %w", err)
	}
	return env, nil
}
