package gpu

import (
	"errors"
	"testing"
)

// TestOpenClosesWhatItOpenedWhenADeviceIsFull: a run placed on two devices
// whose second has no room for a CUDA context gets the OOM, and its process
// leaves the first device too instead of holding a context there forever.
func TestOpenClosesWhatItOpenedWhenADeviceIsFull(t *testing.T) {
	c := testCluster(t)
	d1, _ := c.Device(1)
	hog := c.NextPID()
	d1.Attach(hog, "hog")
	if err := d1.Alloc(hog, d1.Spec().MemoryBytes-(63+32)<<20); err != nil {
		t.Fatal(err)
	}
	env := c.Placement("tool", 0, 1)
	var oom *ErrOutOfMemory
	if _, _, err := env.Open(0); !errors.As(err, &oom) || oom.Device != 1 {
		t.Fatalf("Open = %v, want an OOM on device 1", err)
	}
	for _, minor := range []int{0, 1} {
		d, _ := c.Device(minor)
		for _, p := range d.Processes() {
			if p.PID == env.PID {
				t.Errorf("device %d still holds the failed run's process (%d MiB)", minor, p.MemoryMiB())
			}
		}
	}
	d0, _ := c.Device(0)
	if got := d0.UsedMemoryBytes() >> 20; got != 63 {
		t.Errorf("device 0 used = %d MiB after the failed Open, want 63", got)
	}
}

// TestReleaseKeepsOnlyWhatASucceededRunHandsOver: with KeepOpen a run that
// succeeded hands its streams to the caller; a failed run, or one without
// KeepOpen, closes them and hands over nothing.
func TestReleaseKeepsOnlyWhatASucceededRunHandsOver(t *testing.T) {
	c := testCluster(t)
	d0, _ := c.Device(0)
	for _, tc := range []struct {
		keepOpen bool
		err      error
		kept     int
	}{
		{true, nil, 1},
		{true, errors.New("kernel failed"), 0},
		{false, nil, 0},
	} {
		env := c.Placement("tool", 0)
		env.KeepOpen = tc.keepOpen
		_, streams, err := env.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		kept := env.Release(streams, tc.err)
		if len(kept) != tc.kept {
			t.Errorf("KeepOpen %v, error %v: Release kept %d streams, want %d", tc.keepOpen, tc.err, len(kept), tc.kept)
		}
		if attached := len(d0.Processes()); attached != tc.kept {
			t.Errorf("KeepOpen %v, error %v: %d processes attached after Release, want %d", tc.keepOpen, tc.err, attached, tc.kept)
		}
		for _, s := range kept {
			s.Close()
		}
	}
}
