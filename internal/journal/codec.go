package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// Record payload codec. A payload is one binary record: a format version
// byte, then every present field as uvarint(number<<3 | wire type) followed
// by its value, in protobuf wire style. Varints (zigzag for signed values)
// carry ints, durations, bools and the ticket; length-prefixed bytes carry
// strings, packed []int, each Params entry (in sorted key order) and each
// workflow step. A zero value is not written, the way encoding/json's
// omitempty dropped it, so an empty collection decodes as nil.
//
// This is the only payload format replay reads. A frame whose payload starts
// with any other version byte — '{', the JSON records of older versions,
// among them — is refused with ErrLegacyFormat, never skipped as corrupt.
//
// Compatibility rules. A field number is never reused: a deleted field
// retires its number here, and the decoder skips field numbers it does not
// know, so an old record carrying the deleted field still decodes. A change
// no skipped field can express takes a new version byte.
const binaryVersion = 1

// Wire types: the two this codec writes.
const (
	wireVarint = 0
	wireBytes  = 2
)

// Field numbers of Record. Never reuse one. Retired: 24 (a lease's TTL) and
// 25 (its wall-clock stamp), skipped like any unknown number.
const (
	fType        = 1
	fAt          = 2
	fHandler     = 3
	fTick        = 4
	fJob         = 5
	fTool        = 6
	fUser        = 7
	fParams      = 8
	fDataset     = 9
	fRuntime     = 10
	fPriority    = 11
	fGPUs        = 12
	fEstRuntime  = 13
	fSubmitted   = 14
	fDestination = 15
	fGPUEnabled  = 16
	fDevices     = 17
	fEpoch       = 18
	fAttempt     = 19
	fOp          = 20
	fClass       = 21
	fMsg         = 22
	fState       = 23
	fFrom        = 26
	fXfer        = 27
	fStripes     = 28
	fWorkflow    = 29
	fStep        = 30
	fWFName      = 31
	fWFSteps     = 32
	fGPURequest  = 33
	fPID         = 34
)

// Field numbers of WFStep. Never reuse one.
const (
	sID         = 1
	sTool       = 2
	sAfter      = 3
	sParams     = 4
	sDataset    = 5
	sHasDataset = 6
	sRuntime    = 7
	sPriority   = 8
	sGPUs       = 9
	sEstRuntime = 10
	sBytes      = 11
	sGPURequest = 12
)

// appendFrame appends rec's frame to dst. On error dst is returned
// unchanged.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendRecord(dst, rec)
	payload := dst[start+headerSize:]
	if len(payload) > MaxRecord {
		return dst[:start], fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecord)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

var framePool sync.Pool // of *[]byte

// encodePooled frames rec for the append hot paths: the frame comes from a
// pool. The caller owns the frame until the record is written (or dropped),
// then returns it with recycleFrame; the flusher copies the frame into the
// segment's buffered writer before recycling.
func encodePooled(rec Record) ([]byte, error) {
	var buf []byte
	if p, ok := framePool.Get().(*[]byte); ok {
		buf = *p
	}
	return appendFrame(buf, &rec)
}

// recycleFrame returns an encodePooled frame once the record is on its way
// to disk (copied into the segment writer) or dropped by a crash. Frames
// above a sane cap are left to the collector so one oversized record does
// not pin memory in the pool.
func recycleFrame(buf []byte) {
	if cap(buf) > 64<<10 {
		return
	}
	b := buf[:0]
	framePool.Put(&b)
}

// appendRecord appends rec's binary payload to b.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, binaryVersion)
	b = appendString(b, fType, string(r.Type))
	b = appendInt(b, fAt, int64(r.At))
	b = appendString(b, fHandler, r.Handler)
	b = appendUint(b, fTick, r.Tick)
	b = appendInt(b, fJob, int64(r.Job))
	b = appendString(b, fTool, r.Tool)
	b = appendString(b, fUser, r.User)
	b = appendParams(b, fParams, r.Params)
	b = appendString(b, fDataset, r.Dataset)
	b = appendString(b, fRuntime, r.Runtime)
	b = appendInt(b, fPriority, int64(r.Priority))
	b = appendInt(b, fGPUs, int64(r.GPUs))
	b = appendInt(b, fEstRuntime, int64(r.EstRuntime))
	b = appendInt(b, fSubmitted, int64(r.Submitted))
	b = appendString(b, fDestination, r.Destination)
	b = appendBool(b, fGPUEnabled, r.GPUEnabled)
	b = appendInts(b, fDevices, r.Devices)
	b = appendInt(b, fEpoch, int64(r.Epoch))
	b = appendInt(b, fAttempt, int64(r.Attempt))
	b = appendString(b, fOp, r.Op)
	b = appendString(b, fClass, r.Class)
	b = appendString(b, fMsg, r.Msg)
	b = appendString(b, fState, r.State)
	b = appendString(b, fFrom, r.From)
	b = appendUint(b, fXfer, r.Xfer)
	b = appendInts(b, fStripes, r.Stripes)
	b = appendInt(b, fWorkflow, int64(r.Workflow))
	b = appendString(b, fStep, r.Step)
	b = appendString(b, fWFName, r.WFName)
	b = appendString(b, fGPURequest, r.GPURequest)
	b = appendInt(b, fPID, int64(r.PID))
	for i := range r.WFSteps {
		b = appendTag(b, fWFSteps, wireBytes)
		start := len(b)
		b = prefixLen(appendStep(b, &r.WFSteps[i]), start)
	}
	return b
}

// appendStep appends one workflow step's fields (without a version byte).
func appendStep(b []byte, s *WFStep) []byte {
	b = appendString(b, sID, s.ID)
	b = appendString(b, sTool, s.Tool)
	for _, a := range s.After {
		b = appendTag(b, sAfter, wireBytes)
		b = appendBytes(b, a)
	}
	b = appendParams(b, sParams, s.Params)
	b = appendString(b, sDataset, s.Dataset)
	b = appendBool(b, sHasDataset, s.HasDataset)
	b = appendString(b, sRuntime, s.Runtime)
	b = appendInt(b, sPriority, int64(s.Priority))
	b = appendInt(b, sGPUs, int64(s.GPUs))
	b = appendInt(b, sEstRuntime, int64(s.EstRuntime))
	b = appendInt(b, sBytes, s.Bytes)
	b = appendString(b, sGPURequest, s.GPURequest)
	return b
}

func appendTag(b []byte, num, wire int) []byte {
	return binary.AppendUvarint(b, key(num, wire))
}

func appendBytes(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendString(b []byte, num int, s string) []byte {
	if s == "" {
		return b
	}
	return appendBytes(appendTag(b, num, wireBytes), s)
}

func appendInt(b []byte, num int, v int64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendVarint(appendTag(b, num, wireVarint), v)
}

func appendUint(b []byte, num int, v uint64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendUvarint(appendTag(b, num, wireVarint), v)
}

func appendBool(b []byte, num int, v bool) []byte {
	if !v {
		return b
	}
	return append(appendTag(b, num, wireVarint), 1)
}

// appendInts writes vs packed: one length-prefixed run of zigzag varints.
func appendInts(b []byte, num int, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	n := 0
	for _, v := range vs {
		n += uvarintLen(zigzag(int64(v)))
	}
	b = binary.AppendUvarint(appendTag(b, num, wireBytes), uint64(n))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendParams writes one length-prefixed entry per key, in sorted key
// order so equal maps encode to equal bytes: uvarint(len(key)) key value.
func appendParams(b []byte, num int, m map[string]string) []byte {
	if len(m) == 0 {
		return b
	}
	var small [8]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := m[k]
		b = appendTag(b, num, wireBytes)
		b = binary.AppendUvarint(b, uint64(uvarintLen(uint64(len(k)))+len(k)+len(v)))
		b = appendBytes(b, k)
		b = append(b, v...)
	}
	return b
}

// prefixLen inserts the length of b[start:] in front of it.
func prefixLen(b []byte, start int) []byte {
	n := len(b) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	b = append(b, hdr[:h]...)
	copy(b[start+h:], b[start:start+n])
	copy(b[start:], hdr[:h])
	return b
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// decodePayload decodes one binary record payload into rec, which must be
// zero. A payload of another format version (a JSON object, whose '{' no
// version byte is, among them) is an error wrapping ErrLegacyFormat.
func decodePayload(p []byte, rec *Record) error {
	if len(p) == 0 {
		return errors.New("empty payload")
	}
	if p[0] != binaryVersion {
		return fmt.Errorf("%w: payload version %d", ErrLegacyFormat, p[0])
	}
	return decodeRecord(p[1:], rec)
}

var (
	errTruncated = errors.New("truncated field")
	errOverflow  = errors.New("varint overflows 64 bits")
)

// reader walks one message's fields. Every length is checked against the
// bytes that remain, so no input makes it read past its end or allocate
// more than the input could describe.
type reader struct {
	b   []byte
	err error
}

func (d *reader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		if n == 0 {
			d.err = errTruncated
		} else {
			d.err = errOverflow
		}
		d.b = nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *reader) varint() int64 { return unzigzag(d.uvarint()) }

// bytes reads one length-prefixed value.
func (d *reader) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		if d.err == nil {
			d.err = errTruncated
		}
		d.b = nil
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// next reads a field key, returning false at the end of the message or on
// an error.
func (d *reader) next() (k uint64, ok bool) {
	if len(d.b) == 0 || d.err != nil {
		return 0, false
	}
	k = d.uvarint()
	return k, d.err == nil
}

// skip consumes the value of a field the decoder does not know.
func (d *reader) skip(wire int) {
	switch wire {
	case wireVarint:
		d.uvarint()
	case wireBytes:
		d.bytes()
	default:
		d.err = fmt.Errorf("unsupported wire type %d", wire)
	}
}

// key is a field's key as it appears on the wire.
func key(num, wire int) uint64 { return uint64(num)<<3 | uint64(wire) }

func decodeRecord(p []byte, r *Record) error {
	d := reader{b: p}
	for {
		k, ok := d.next()
		if !ok {
			break
		}
		switch k {
		case key(fType, wireBytes):
			r.Type = typeOf(d.bytes())
		case key(fAt, wireVarint):
			r.At = time.Duration(d.varint())
		case key(fHandler, wireBytes):
			r.Handler = string(d.bytes())
		case key(fTick, wireVarint):
			r.Tick = d.uvarint()
		case key(fJob, wireVarint):
			r.Job = int(d.varint())
		case key(fTool, wireBytes):
			r.Tool = string(d.bytes())
		case key(fUser, wireBytes):
			r.User = string(d.bytes())
		case key(fParams, wireBytes):
			r.Params = d.param(r.Params)
		case key(fDataset, wireBytes):
			r.Dataset = string(d.bytes())
		case key(fRuntime, wireBytes):
			r.Runtime = string(d.bytes())
		case key(fPriority, wireVarint):
			r.Priority = int(d.varint())
		case key(fGPUs, wireVarint):
			r.GPUs = int(d.varint())
		case key(fEstRuntime, wireVarint):
			r.EstRuntime = time.Duration(d.varint())
		case key(fSubmitted, wireVarint):
			r.Submitted = time.Duration(d.varint())
		case key(fDestination, wireBytes):
			r.Destination = string(d.bytes())
		case key(fGPUEnabled, wireVarint):
			r.GPUEnabled = d.uvarint() != 0
		case key(fDevices, wireBytes):
			r.Devices = d.ints(r.Devices)
		case key(fEpoch, wireVarint):
			r.Epoch = int(d.varint())
		case key(fAttempt, wireVarint):
			r.Attempt = int(d.varint())
		case key(fOp, wireBytes):
			r.Op = string(d.bytes())
		case key(fClass, wireBytes):
			r.Class = string(d.bytes())
		case key(fMsg, wireBytes):
			r.Msg = string(d.bytes())
		case key(fState, wireBytes):
			r.State = string(d.bytes())
		case key(fFrom, wireBytes):
			r.From = string(d.bytes())
		case key(fXfer, wireVarint):
			r.Xfer = d.uvarint()
		case key(fStripes, wireBytes):
			r.Stripes = d.ints(r.Stripes)
		case key(fWorkflow, wireVarint):
			r.Workflow = int(d.varint())
		case key(fStep, wireBytes):
			r.Step = string(d.bytes())
		case key(fWFName, wireBytes):
			r.WFName = string(d.bytes())
		case key(fWFSteps, wireBytes):
			var s WFStep
			if err := decodeStep(d.bytes(), &s); err != nil && d.err == nil {
				d.err = err
			}
			r.WFSteps = append(r.WFSteps, s)
		case key(fGPURequest, wireBytes):
			r.GPURequest = string(d.bytes())
		case key(fPID, wireVarint):
			r.PID = int(d.varint())
		default:
			d.skip(int(k & 7))
		}
	}
	return d.err
}

func decodeStep(p []byte, s *WFStep) error {
	d := reader{b: p}
	for {
		k, ok := d.next()
		if !ok {
			break
		}
		switch k {
		case key(sID, wireBytes):
			s.ID = string(d.bytes())
		case key(sTool, wireBytes):
			s.Tool = string(d.bytes())
		case key(sAfter, wireBytes):
			s.After = append(s.After, string(d.bytes()))
		case key(sParams, wireBytes):
			s.Params = d.param(s.Params)
		case key(sDataset, wireBytes):
			s.Dataset = string(d.bytes())
		case key(sHasDataset, wireVarint):
			s.HasDataset = d.uvarint() != 0
		case key(sRuntime, wireBytes):
			s.Runtime = string(d.bytes())
		case key(sPriority, wireVarint):
			s.Priority = int(d.varint())
		case key(sGPUs, wireVarint):
			s.GPUs = int(d.varint())
		case key(sEstRuntime, wireVarint):
			s.EstRuntime = time.Duration(d.varint())
		case key(sBytes, wireVarint):
			s.Bytes = d.varint()
		case key(sGPURequest, wireBytes):
			s.GPURequest = string(d.bytes())
		default:
			d.skip(int(k & 7))
		}
	}
	return d.err
}

// param decodes one Params entry into m, allocating m on the first entry.
func (d *reader) param(m map[string]string) map[string]string {
	e := reader{b: d.bytes()}
	k := e.bytes()
	if d.err == nil && e.err != nil {
		d.err = e.err
	}
	if d.err != nil {
		return m
	}
	if m == nil {
		m = make(map[string]string, 1)
	}
	m[string(k)] = string(e.b)
	return m
}

// ints decodes one packed run of zigzag varints onto vs. The run's varint
// count is its number of terminal bytes, so vs grows exactly once.
func (d *reader) ints(vs []int) []int {
	e := reader{b: d.bytes()}
	if d.err != nil || len(e.b) == 0 {
		return vs
	}
	n := 0
	for _, c := range e.b {
		if c < 0x80 {
			n++
		}
	}
	vs = slices.Grow(vs, n)
	for len(e.b) > 0 && e.err == nil {
		vs = append(vs, int(unzigzag(e.uvarint())))
	}
	d.err = e.err
	return vs
}

// typeOf maps a decoded kind onto its constant, so the common kinds cost no
// allocation.
func typeOf(b []byte) Type {
	switch string(b) {
	case string(TypeSubmit):
		return TypeSubmit
	case string(TypeStart):
		return TypeStart
	case string(TypeComplete):
		return TypeComplete
	case string(TypeAttempt):
		return TypeAttempt
	}
	return Type(b)
}
