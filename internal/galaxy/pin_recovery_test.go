package galaxy

import (
	"reflect"
	"testing"
	"time"

	"gyan/internal/journal"
)

// TestRecoverKeepsDevicePin crashes a handler before a job pinned by the
// user's version tag (SubmitOptions.GPURequest) has started, and requires the
// recovered job to run on the pin. Unpinned, the mapper hands racon both
// GPUs and the scheduler a gang of one; the pins ask for GPU 1 alone and for
// a gang of two. The workflow case pins a step that had not been released
// when the handler died, so the pin can only come from the journaled
// definition.
func TestRecoverKeepsDevicePin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*testing.T, *journal.Journal) *Galaxy
		submit func(*testing.T, *Galaxy, any, string)
		pin    string
		want   []int
	}{
		{"direct", directPath, submitPinned, "1", []int{1}},
		{"scheduler", schedulerPath, submitPinned, "0,1", []int{0, 1}},
		{"workflow", directPath, submitPinnedStep, "1", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openTestJournal(t, dir)
			rs := smallReadSet(t)
			g := tc.build(t, j)
			g.RegisterDataset("nfl", rs)
			tc.submit(t, g, rs, tc.pin)
			// Every submit waited for its fsync; the crash lands before
			// anything has started.
			if err := j.CrashTorn([]byte{0xde, 0xad}); err != nil {
				t.Fatal(err)
			}

			recs, rerr := replayDir(t, dir)
			j2 := openTestJournal(t, dir)
			defer j2.Close()
			g2 := tc.build(t, j2)
			g2.RegisterDataset("nfl", rs)
			if _, err := g2.Recover(recs, rerr, RecoverOptions{RestartDelay: time.Second}); err != nil {
				t.Fatal(err)
			}
			g2.Run()
			jobs := g2.Jobs()
			pinned := jobs[len(jobs)-1]
			if pinned.State != StateOK {
				t.Fatalf("pinned job %d finished %s: %s", pinned.ID, pinned.State, pinned.Info)
			}
			if !reflect.DeepEqual(pinned.Devices, tc.want) {
				t.Errorf("recovered job pinned to %q ran on %v, want %v", tc.pin, pinned.Devices, tc.want)
			}
		})
	}
}

// submitPinned submits one racon job pinned to pin, a minute out.
func submitPinned(t *testing.T, g *Galaxy, rs any, pin string) {
	t.Helper()
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{
		DatasetName: "nfl", GPURequest: pin, Delay: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
}

// submitPinnedStep submits a two-step workflow whose second step is pinned
// to pin; its root waits a minute, so the pinned step is still unreleased.
func submitPinnedStep(t *testing.T, g *Galaxy, rs any, pin string) {
	t.Helper()
	if _, err := g.SubmitDAG("pinned", []DAGStep{
		{ID: "a", ToolID: "racon", Params: fastParams(), Dataset: rs, DatasetName: "nfl",
			Options: SubmitOptions{Delay: time.Minute}},
		{ID: "b", ToolID: "racon", After: []string{"a"}, Params: fastParams(), Dataset: rs,
			DatasetName: "nfl", Options: SubmitOptions{GPURequest: pin}},
	}, DAGOptions{}); err != nil {
		t.Fatal(err)
	}
}
