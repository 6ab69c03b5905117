package tcpbus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// The member catalog is the persistent membership ledger: one small
// journaled file per member (ID, incarnation, last advertised address),
// append-only under the same length+CRC framing as the bus envelopes. A
// restarting process bumps its incarnation through the catalog before it
// touches the network, which is what makes incarnation fencing survive
// kill -9: the number lives on disk, not in the process.

// MemberRecord is one catalog entry; the last record in a member's file is
// its current identity.
type MemberRecord struct {
	ID   string `json:"id"`
	Inc  uint64 `json:"inc"`
	Addr string `json:"addr"`
	Wall int64  `json:"wall"` // unix nanos at write time (diagnostic)
}

// Catalog is a directory of member files.
type Catalog struct {
	dir string
}

// OpenCatalog creates/opens a catalog directory.
func OpenCatalog(dir string) (*Catalog, error) {
	if dir == "" {
		return nil, errors.New("tcpbus: catalog dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Catalog{dir: dir}, nil
}

func (c *Catalog) path(id string) string {
	return filepath.Join(c.dir, id+".member")
}

// Last returns the member's newest catalog record, tolerating a torn tail
// (the record mid-write when power went out is discarded).
func (c *Catalog) Last(id string) (MemberRecord, bool, error) {
	raw, err := os.ReadFile(c.path(id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return MemberRecord{}, false, nil
		}
		return MemberRecord{}, false, err
	}
	var last MemberRecord
	found := false
	for off := 0; off+frameHeaderSize <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if n == 0 || n > maxFrame || off+frameHeaderSize+n > len(raw) {
			break // torn tail
		}
		payload := raw[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[off+4:off+8]) {
			break
		}
		var rec MemberRecord
		if json.Unmarshal(payload, &rec) == nil {
			last, found = rec, true
		}
		off += frameHeaderSize + n
	}
	return last, found, nil
}

// Bump appends a fresh record for the member with its incarnation one past
// the newest on disk (1 for a first boot), fsynced before it returns — the
// identity must be durable before the member speaks on the network.
func (c *Catalog) Bump(id, addr string) (uint64, error) {
	last, found, err := c.Last(id)
	if err != nil {
		return 0, err
	}
	inc := uint64(1)
	if found {
		inc = last.Inc + 1
	}
	rec := MemberRecord{ID: id, Inc: inc, Addr: addr, Wall: time.Now().UnixNano()}
	if err := c.append(id, rec); err != nil {
		return 0, err
	}
	return inc, nil
}

// Record appends a catalog entry without bumping (used to note an observed
// peer identity).
func (c *Catalog) Record(rec MemberRecord) error {
	if rec.ID == "" {
		return errors.New("tcpbus: catalog record needs an ID")
	}
	last, found, err := c.Last(rec.ID)
	if err != nil {
		return err
	}
	if found && last.Inc == rec.Inc && last.Addr == rec.Addr {
		return nil // unchanged; don't grow the file
	}
	return c.append(rec.ID, rec)
}

func (c *Catalog) append(id string, rec MemberRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	f, err := os.OpenFile(c.path(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
