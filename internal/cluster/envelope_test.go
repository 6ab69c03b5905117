package cluster

import (
	"reflect"
	"testing"
	"time"

	"gyan/internal/sched"
	"gyan/internal/transport"
)

// TestThiefWithoutDatasetRefusesSteal registers the dataset on the victim
// only. The idle thief is offered the victim's backlog, cannot resolve the
// job's dataset by name, and refuses every prepare: each job stays on the
// victim and completes there, and the journals hold no lost or doubled key.
func TestThiefWithoutDatasetRefusesSteal(t *testing.T) {
	c, err := NewSim(SimConfig{
		Handlers: 2, Tick: 250 * time.Millisecond,
		Sched: sched.Config{Backfill: true}, stealThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Node("h0").RegisterDataset("reads", tinyReads(t))
	owned := stripesOf(c, "h0")
	var keys []uint64
	for i := 0; i < 6; i++ {
		key := uint64(owned[i%len(owned)]) + uint64(DefaultStripes*(i/len(owned)))
		keys = append(keys, key)
		if _, err := c.Submit("racon", map[string]string{"scale": "0.01"}, "reads",
			SubmitOptions{User: "u", Key: &key, Delay: time.Duration(i) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Hour)

	for _, key := range keys {
		ref, job, ok := c.Lookup(key)
		if !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete: %+v", key, job)
		}
		if ref.Handler != "h0" {
			t.Errorf("key %d ran on %s, want the victim h0", key, ref.Handler)
		}
	}
	thief := c.Node("h1")
	thief.mu.Lock()
	refused := 0
	for _, verdict := range thief.proto.inSeen {
		if verdict == "refused" {
			refused++
		}
	}
	thief.mu.Unlock()
	if refused == 0 {
		t.Error("the thief refused no prepare")
	}
	if st := c.Status(); st.Steals != 0 {
		t.Errorf("%d steals completed without the dataset on the thief", st.Steals)
	}
	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	if lost, dbl := audit.Lost(), audit.Doubles(); len(lost) != 0 || len(dbl) != 0 {
		t.Fatalf("lost keys %v, double executions %v", lost, dbl)
	}
}

// TestEveryBodySurvivesTheWire sends every message body the protocol
// registers, with every field set, through the codec a serializing transport
// uses. The simulated bus hands bodies over as live values, so a field the
// codec drops (an unexported or json:"-" one) works under a Sim and is lost
// over tcpbus; here it fails.
func TestEveryBodySurvivesTheWire(t *testing.T) {
	for _, typ := range []string{
		transport.MsgStealPrepare, transport.MsgStealAccept, transport.MsgStealRetire,
		transport.MsgStealAbort, transport.MsgAbortAck, transport.MsgLeaseRenew,
		transport.MsgClaim, transport.MsgAEDigest, transport.MsgAEReply, transport.MsgRejoinAck,
	} {
		zero, err := transport.DecodeBody(typ, nil)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		fillEvery(t, typ, v)
		sent := v.Interface()
		raw, err := transport.EncodeBody(sent)
		if err != nil {
			t.Fatalf("%s: encode: %v", typ, err)
		}
		got, err := transport.DecodeBody(typ, raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if !reflect.DeepEqual(got, sent) {
			t.Errorf("%s changed on the wire:\nsent     %+v\nreceived %+v", typ, sent, got)
		}
	}
}

// fillEvery sets every field reachable from v to a non-zero value: one
// element per slice and map, a string in an interface. An unexported struct
// field cannot be set, and no codec carries it either, so it fails the test.
func fillEvery(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: no serializing transport carries it", path, f.Name)
				continue
			}
			fillEvery(t, path+"."+f.Name, v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEvery(t, path, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillEvery(t, path+"[0]", v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillEvery(t, path, v.Index(i))
		}
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fillEvery(t, path+"{key}", k)
		fillEvery(t, path+"{value}", e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Interface:
		v.Set(reflect.ValueOf("payload"))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	default:
		t.Errorf("%s: cannot fill a %s", path, v.Kind())
	}
}
