package smi

import (
	"testing"
	"time"

	"gyan/internal/gpu"
)

// occupyGPU attaches a memory-holding process to the given device so the
// next survey classifies it busy.
func occupyGPU(t *testing.T, c *gpu.Cluster, minor int) {
	t.Helper()
	d, err := c.Device(minor)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewStream(c.NextPID(), "/usr/bin/racon_gpu", 0, nil)
	if err := s.Malloc(1 << 30); err != nil {
		t.Fatal(err)
	}
}

// TestCacheLostInvalidation pins the invalidation contract: a device-state
// mutation followed by Invalidate must reach the next survey even at the same
// virtual instant. A hit there would serve the pre-mutation survey and report
// the occupied device as still available.
func TestCacheLostInvalidation(t *testing.T) {
	cluster := gpu.NewPaperTestbed(nil)
	cache := NewCache(nil)
	now := 5 * time.Second

	first, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Available(1) {
		t.Fatalf("first survey should predate the mutation; got available=%v", first.AvailableGPUs)
	}
	// Device state mutates and the owner invalidates — the session-open path.
	occupyGPU(t, cluster, 1)
	cache.Invalidate()

	second, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	if second.Available(1) {
		t.Fatalf("lost invalidation: survey taken before the device-state mutation was served after Invalidate; available=%v",
			second.AvailableGPUs)
	}
	if len(second.ProcsByGPU[1]) == 0 {
		t.Fatalf("post-invalidation survey should see the new process on GPU 1")
	}

	hits, misses, invalidations := cache.Stats()
	if hits != 0 || misses != 2 || invalidations != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d invalidations; want 0, 2, 1", hits, misses, invalidations)
	}
}

// TestCacheHitServesSameInstant pins the baseline contract: two surveys at
// the same instant with no intervening mutation share one parse, and only
// that one parse is reported to the miss observer.
func TestCacheHitServesSameInstant(t *testing.T) {
	cluster := gpu.NewPaperTestbed(nil)
	var observed []time.Duration
	cache := NewCache(func(took time.Duration) { observed = append(observed, took) })
	now := 2 * time.Second

	a, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.AllGPUs) != len(b.AllGPUs) {
		t.Fatalf("hit returned a different survey")
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if len(observed) != 1 || observed[0] <= 0 {
		t.Fatalf("miss observer saw %v; want the one miss's positive duration", observed)
	}
}
