package smi

import (
	"math/rand"
	"reflect"
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

// TestCacheSeesUnannouncedMutation pins the cache's contract: a device-state
// mutation reaches the next survey even at the same virtual instant, with
// nobody telling the cache. A hit there would serve the pre-mutation survey
// and report the occupied device as still available.
func TestCacheSeesUnannouncedMutation(t *testing.T) {
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
	// Device state mutates — the session-open path — and nothing says so.
	occupyGPU(t, cluster, 1)

	second, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	if second.Available(1) {
		t.Fatalf("stale hit: survey taken before the device-state mutation was served after it; available=%v",
			second.AvailableGPUs)
	}
	if len(second.ProcsByGPU[1]) == 0 {
		t.Fatalf("post-mutation survey should see the new process on GPU 1")
	}

	if hits, misses := cache.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 2", hits, misses)
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
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if len(observed) != 1 || observed[0] <= 0 {
		t.Fatalf("miss observer saw %v; want the one miss's positive duration", observed)
	}
}

// TestCacheHitsAcrossInstants: an idle testbed reports the same devices at
// every instant, so surveys at different times share one parse.
func TestCacheHitsAcrossInstants(t *testing.T) {
	cluster := gpu.NewPaperTestbed(nil)
	cache := NewCache(nil)
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		if _, err := cache.Usage(cluster, at); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
}

// TestCacheMissesWhenOnlyUtilizationMoves: a kernel that ended half a
// second before now still counts in now's trailing utilization window but
// not in the window a second later. Nothing else about the device changed,
// and the later survey must still miss and carry the fresh reading.
func TestCacheMissesWhenOnlyUtilizationMoves(t *testing.T) {
	cluster := gpu.NewPaperTestbed(nil)
	d, err := cluster.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	k := gpu.Kernel{Name: "busy", Ops: 2e12, Blocks: 13, ThreadsPerBlock: 256}
	s := d.NewStream(cluster.NextPID(), "/usr/bin/racon_gpu", 0, nil)
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	now := s.Now() + 500*time.Millisecond

	cache := NewCache(nil)
	busy, err := cache.Usage(cluster, now)
	if err != nil {
		t.Fatal(err)
	}
	if busy.UtilPctByGPU[0] == 0 {
		t.Fatalf("survey at now should see the kernel's last half second; util=%v", busy.UtilPctByGPU)
	}
	idle, err := cache.Usage(cluster, now+time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if idle.UtilPctByGPU[0] != 0 {
		t.Fatalf("survey a second later served a stale utilization: %v", idle.UtilPctByGPU)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

// deviceProgram drives random device-state programs against a cluster and
// checks every cached survey against the uncached round trip at the same
// instant. pick(n) returns a choice in [0, n); a seeded generator and the
// fuzzer's bytes both feed it.
type deviceProgram struct {
	t       testing.TB
	cluster *gpu.Cluster
	cache   *Cache
	streams []*gpu.Stream
	now     time.Duration
	pick    func(n int) int
}

func newDeviceProgram(t testing.TB, pick func(n int) int) *deviceProgram {
	return &deviceProgram{t: t, cluster: gpu.NewPaperTestbed(nil), cache: NewCache(nil), pick: pick}
}

func (p *deviceProgram) step() {
	switch op := p.pick(8); {
	case op == 0 || len(p.streams) == 0:
		d, err := p.cluster.Device(p.pick(p.cluster.DeviceCount()))
		if err != nil {
			p.t.Fatal(err)
		}
		p.streams = append(p.streams, d.NewStream(p.cluster.NextPID(), "/usr/bin/tool", p.now, nil))
	case op == 1:
		// Out of memory leaves the device as it was; either outcome is a
		// device report the survey must match.
		_ = p.stream().Malloc(int64(1+p.pick(2048)) << 20)
	case op == 2 || op == 3:
		k := gpu.Kernel{
			Name:            "k",
			Ops:             float64(1+p.pick(600)) * 1e9,
			Blocks:          1 + p.pick(13),
			ThreadsPerBlock: 32 * (1 + p.pick(8)),
		}
		if err := p.stream().Launch(k); err != nil {
			p.t.Fatal(err)
		}
	case op == 4:
		i := p.pick(len(p.streams))
		p.streams[i].Close()
		p.streams = append(p.streams[:i], p.streams[i+1:]...)
	case op == 5:
		i := p.pick(len(p.streams))
		p.streams[i].Abort(p.now)
		p.streams = append(p.streams[:i], p.streams[i+1:]...)
	default:
		// Advance the clock: not at all, inside the one-second utilization
		// window, or beyond it.
		switch p.pick(3) {
		case 1:
			p.now += time.Duration(1+p.pick(999)) * time.Millisecond
		case 2:
			p.now += time.Second + time.Duration(p.pick(4000))*time.Millisecond
		}
	}
}

func (p *deviceProgram) stream() *gpu.Stream { return p.streams[p.pick(len(p.streams))] }

// check surveys through the cache and through Query+UsageFromXML at the
// same instant; the two must agree exactly.
func (p *deviceProgram) check() {
	p.t.Helper()
	got, err := p.cache.Usage(p.cluster, p.now)
	if err != nil {
		p.t.Fatal(err)
	}
	doc, err := Query(p.cluster, p.now)
	if err != nil {
		p.t.Fatal(err)
	}
	want, err := UsageFromXML(doc)
	if err != nil {
		p.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("at %v the cache served\n%+v\nthe round trip gives\n%+v", p.now, got, want)
	}
}

// TestCacheMatchesUncachedSurvey is the cache's differential oracle: over
// seeded programs of session opens, allocations, launches (queued behind the
// stream's own work and contended by other processes), closes and mid-kernel
// aborts, every survey the cache serves equals the uncached round trip.
func TestCacheMatchesUncachedSurvey(t *testing.T) {
	var hits, misses int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newDeviceProgram(t, rng.Intn)
		for range 200 {
			p.step()
			p.check()
		}
		h, m := p.cache.Stats()
		hits, misses = hits+h, misses+m
	}
	// Both paths must have been exercised for the comparison to mean much.
	if hits == 0 || misses == 0 {
		t.Fatalf("programs gave %d hits, %d misses; want both", hits, misses)
	}
}

// FuzzSurveyCache drives the oracle's program generator from fuzz bytes.
func FuzzSurveyCache(f *testing.F) {
	f.Add([]byte{0, 2, 7, 1, 3, 6, 2, 4, 0, 5})
	f.Add([]byte{0, 1, 0, 0, 1, 200, 2, 3, 1, 7, 1, 9, 5, 0, 6, 2, 6, 0, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		pos := 0
		pick := func(n int) int {
			if pos >= len(prog) {
				return 0
			}
			b := int(prog[pos])
			pos++
			return b % n
		}
		p := newDeviceProgram(t, pick)
		for pos < len(prog) {
			p.step()
			p.check()
		}
	})
}
