package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// encode frames one record on its own.
func encode(rec Record) ([]byte, error) {
	return appendFrame(nil, &rec)
}

// encodeJSON is the record writer older versions shipped, kept verbatim as
// the oracle the binary codec is held to. Nothing outside tests writes JSON,
// and replay refuses it.
func encodeJSON(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecord)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf, nil
}

// randRecord draws a record of any kind with every field independently set
// or unset: negative durations, tickets with epoch bits, empty and nil
// collections, workflow steps with and without edges and params.
func randRecord(rng *rand.Rand) Record {
	str := func() string {
		return []string{"", "h1", "racon", "alzheimers_nfl", "gpu_local", "ok", "naïve ✓ \"q\" <&>", "\x00\n"}[rng.Intn(8)]
	}
	num := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -rng.Int63()
		case 2:
			return rng.Int63()
		}
		return rng.Int63n(300) - 100
	}
	params := func() map[string]string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return map[string]string{}
		}
		m := map[string]string{}
		for n := rng.Intn(5); n >= 0; n-- {
			m[str()] = str()
		}
		return m
	}
	ints := func() []int {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, 1+rng.Intn(6))
		for i := range v {
			v[i] = int(num())
		}
		return v
	}
	types := []Type{TypeSubmit, TypeStart, TypeAttempt, TypeComplete, TypeDeadLetter,
		TypeAdopt, TypeStealPrepare, TypeStealRetire, TypeStealAbort, TypeClaim, TypeResubmit,
		TypeWorkflow, TypeMap, "", "some_future_kind"}
	r := Record{
		Type: types[rng.Intn(len(types))], At: time.Duration(num()), Handler: str(),
		Job: int(num()), Tool: str(), User: str(), Params: params(), Dataset: str(), Runtime: str(),
		Priority: int(num()), GPUs: int(num()), EstRuntime: time.Duration(num()),
		Submitted: time.Duration(num()), Destination: str(), GPUEnabled: rng.Intn(2) == 0,
		Devices: ints(), Epoch: int(num()), Attempt: int(num()), Op: str(), Class: str(),
		Msg: str(), State: str(), From: str(),
		Stripes: ints(), Workflow: int(num()), Step: str(), WFName: str(),
	}
	switch rng.Intn(3) {
	case 0:
		r.Tick = uint64(rng.Intn(1<<24))<<tickEpochShift | uint64(rng.Int63n(1<<tickEpochShift))
	case 1:
		r.Tick = rng.Uint64()
	}
	switch rng.Intn(3) {
	case 0:
		r.Xfer = rng.Uint64()
	case 1:
		r.Xfer = uint64(rng.Intn(100))
	}
	if rng.Intn(3) == 0 {
		r.WFSteps = []WFStep{}
		for n := rng.Intn(4); n > 0; n-- {
			s := WFStep{ID: str(), Tool: str(), Params: params(), Dataset: str(),
				HasDataset: rng.Intn(2) == 0, Runtime: str(), Priority: int(num()),
				GPUs: int(num()), EstRuntime: time.Duration(num()), Bytes: num()}
			if k := rng.Intn(3); k > 0 {
				for ; k > 0; k-- {
					s.After = append(s.After, str())
				}
			} else if rng.Intn(2) == 0 {
				s.After = []string{}
			}
			r.WFSteps = append(r.WFSteps, s)
		}
	}
	return r
}

// normalize drops empty collections to nil, which is what omitempty (and the
// binary codec, which writes no zero value) makes of them.
func normalize(r Record) Record {
	if len(r.Params) == 0 {
		r.Params = nil
	}
	if len(r.Devices) == 0 {
		r.Devices = nil
	}
	if len(r.Stripes) == 0 {
		r.Stripes = nil
	}
	if len(r.WFSteps) == 0 {
		r.WFSteps = nil
	}
	steps := r.WFSteps
	r.WFSteps = nil
	for _, s := range steps {
		if len(s.After) == 0 {
			s.After = nil
		}
		if len(s.Params) == 0 {
			s.Params = nil
		}
		r.WFSteps = append(r.WFSteps, s)
	}
	return r
}

// TestCodecMatchesJSON holds the binary codec to the JSON writer it
// replaced: for random records of every kind, the binary round trip, the
// JSON round trip and the normalized original are one and the same record.
func TestCodecMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 5000; i++ {
		rec := randRecord(rng)
		want := normalize(rec)
		b, err := encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReplayBytes(b)
		if err != nil || len(recs) != 1 {
			t.Fatalf("replay: %d records, %v", len(recs), err)
		}
		viaBinary := recs[0]
		if b, err = encodeJSON(rec); err != nil {
			t.Fatal(err)
		}
		var viaJSON Record
		if err := json.Unmarshal(b[headerSize:], &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaBinary, want) {
			t.Fatalf("record %d: binary round trip\n got %#v\nwant %#v", i, viaBinary, want)
		}
		if !reflect.DeepEqual(viaJSON, want) {
			t.Fatalf("record %d: JSON round trip\n got %#v\nwant %#v", i, viaJSON, want)
		}
	}
}

// TestCodecIsSmaller pins what the codec is for: a submit/start/complete
// trail encodes in well under the bytes the JSON writer spent on it.
func TestCodecIsSmaller(t *testing.T) {
	var bin, js int
	for _, r := range trail() {
		b, _ := encode(r)
		j, _ := encodeJSON(r)
		bin += len(b)
		js += len(j)
	}
	if bin*2 > js {
		t.Fatalf("binary trail is %d bytes, JSON %d: want under half", bin, js)
	}
}

// trail is a clean job's records as the engine writes them.
func trail() []Record {
	tick := uint64(3) << tickEpochShift
	return []Record{
		{Type: TypeSubmit, At: 1500 * time.Millisecond, Handler: "h0", Tick: tick + 1, Job: 4711, Tool: "racon",
			User: "alice", Params: map[string]string{"scale": "0.01"}, Dataset: "alzheimers_nfl",
			Priority: 1, GPUs: 1, EstRuntime: 90 * time.Second, Submitted: 1500 * time.Millisecond},
		{Type: TypeStart, At: 2 * time.Second, Handler: "h0", Tick: tick + 7, Job: 4711,
			Destination: "gpu_local", GPUEnabled: true, Devices: []int{0}, Epoch: 1},
		{Type: TypeComplete, At: 92 * time.Second, Handler: "h0", Tick: tick + 19, Job: 4711, Epoch: 1, State: "ok"},
	}
}

// TestCodecSkipsUnknownFields is the compatibility rule a deleted field
// relies on: a record carrying field numbers this version does not know —
// the retired lease fields 24 and 25 among them — still decodes to the
// fields it does know.
func TestCodecSkipsUnknownFields(t *testing.T) {
	rec := trail()[0]
	p := appendRecord(nil, &rec)
	p = appendInt(p, 24, int64(30*time.Second))
	p = appendInt(p, 25, 1_700_000_000_000_000_000)
	p = appendInt(p, 99, -7)
	p = appendString(p, 100, "retired")
	p = appendInts(p, 101, []int{1, -2})
	var got Record
	if err := decodePayload(p, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("got %#v\nwant %#v", got, rec)
	}
	for _, bad := range [][]byte{{}, {binaryVersion + 1}, {binaryVersion, byte(key(fJob, wireVarint)), 0x80}, {binaryVersion, 0x7}} {
		if err := decodePayload(bad, new(Record)); err == nil {
			t.Errorf("payload %x decoded without error", bad)
		}
	}
}

// leasePayload is a lease record's payload as writers before the kind was
// retired laid it down: the fields every record carries, then its TTL
// (field 24) and wall-clock stamp (field 25), both retired since.
func leasePayload(at time.Duration, handler string, tick uint64, ttl time.Duration, wall int64) []byte {
	p := appendRecord(nil, &Record{Type: "lease", At: at, Handler: handler, Tick: tick})
	p = appendInt(p, 24, int64(ttl))
	return appendInt(p, 25, wall)
}

// FuzzRecordCodec throws arbitrary bytes after the version byte at the
// binary decoder: they decode, and then re-encode to a payload that decodes
// to an equal record, or they are an error. They never panic.
func FuzzRecordCodec(f *testing.F) {
	for _, r := range append(trail(), randRecord(rand.New(rand.NewSource(1))), Record{Type: TypeWorkflow,
		WFSteps: []WFStep{{ID: "a", Tool: "racon"}, {ID: "b", After: []string{"a"}, Params: map[string]string{"k": "v"}}}}) {
		f.Add(appendRecord(nil, &r)[1:])
	}
	f.Add([]byte{byte(key(fDevices, wireBytes)), 3, 0x80, 0x80, 0x80})
	f.Add([]byte{byte(key(fParams, wireBytes)), 2, 5, 'k'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if err := decodePayload(append([]byte{binaryVersion}, data...), &rec); err != nil {
			return
		}
		var again Record
		if err := decodePayload(appendRecord(nil, &rec), &again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoded record differs\n got %#v\nwant %#v", again, rec)
		}
	})
}
