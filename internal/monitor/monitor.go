// Package monitor reimplements GYAN's GPU hardware usage script (Sections
// IV-C3 and V-C): a sampler that records GPU utilization, memory utilization
// and PCIe link information every (virtual) second while jobs execute, plus
// the post-processing step that aggregates minima, maxima and averages and
// emits CSV — "executed when a job is submitted and stopped when a job is
// either killed or stops".
package monitor

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/sim"
)

// Sample is one per-device observation (one row of the paper's Code 4
// query: utilization.gpu, utilization.memory, memory.total/free/used,
// pcie.link.gen).
type Sample struct {
	At           time.Duration
	Device       int
	UtilPct      float64
	MemUtilPct   float64
	MemUsedMiB   int64
	MemTotalMiB  int64
	PCIeGen      int
	ProcessCount int
}

// ringTicks is how many ticks of the chronological log are retained: one
// hour at 1 Hz. Older samples are dropped; the aggregates are not.
const ringTicks = 3600

// Monitor samples a cluster. It is safe for concurrent use.
//
// Every observation is folded into per-device running aggregates, so Stats
// and LastByDevice cost O(devices) and cover the monitor's whole life; the
// chronological log behind Samples and WriteCSV is a drop-oldest ring of
// constant capacity.
type Monitor struct {
	cluster *gpu.Cluster

	mu sync.Mutex
	// ring holds the newest samples; once full, head is the oldest entry
	// and the next one to be overwritten.
	ring []Sample
	head int
	// devs is indexed by minor ID, like cluster.Devices().
	devs []deviceAgg
	// armed: a tick is scheduled. live: work was live at the previous tick
	// (or at the Watch since), so the next tick's window may cover some.
	armed, live bool
}

// deviceAgg is one device's running fold: DeviceStats with the two averages
// still held as sums, plus the newest sample.
type deviceAgg struct {
	stats DeviceStats
	last  Sample
}

// New returns a monitor over the cluster.
func New(cluster *gpu.Cluster) *Monitor {
	n := len(cluster.Devices())
	return &Monitor{
		cluster: cluster,
		ring:    make([]Sample, 0, ringTicks*n),
		devs:    make([]deviceAgg, n),
	}
}

// SampleNow records one observation of every device at virtual time `at`,
// with utilization averaged over the trailing second (the sampler's period).
func (m *Monitor) SampleNow(at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	from := at - time.Second
	if from < 0 {
		from = 0
	}
	for _, d := range m.cluster.Devices() {
		spec := d.Spec()
		used := d.UsedMemoryBytes() / (1 << 20)
		total := spec.MemoryMiB()
		m.record(Sample{
			At:           at,
			Device:       d.Minor(),
			UtilPct:      d.UtilizationOver(from, at),
			MemUtilPct:   100 * float64(used) / float64(total),
			MemUsedMiB:   used,
			MemTotalMiB:  total,
			PCIeGen:      spec.PCIeGen,
			ProcessCount: d.ProcessCount(),
		})
	}
}

// record appends s to the ring, dropping the oldest sample once it is full,
// and folds it into its device's aggregate.
func (m *Monitor) record(s Sample) {
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, s)
	} else {
		m.ring[m.head] = s
		m.head = (m.head + 1) % len(m.ring)
	}
	a := &m.devs[s.Device]
	st := &a.stats
	if st.Samples == 0 {
		*st = DeviceStats{
			Device: s.Device, UtilMin: s.UtilPct, UtilMax: s.UtilPct,
			MemMinMiB: s.MemUsedMiB, MemMaxMiB: s.MemUsedMiB,
			FirstSample: s.At, LastSample: s.At,
		}
	}
	st.Samples++
	st.UtilAvg += s.UtilPct
	st.MemAvgMiB += float64(s.MemUsedMiB)
	st.UtilMin = min(st.UtilMin, s.UtilPct)
	st.UtilMax = max(st.UtilMax, s.UtilPct)
	st.MemMinMiB = min(st.MemMinMiB, s.MemUsedMiB)
	st.MemMaxMiB = max(st.MemMaxMiB, s.MemUsedMiB)
	st.PeakProcesses = max(st.PeakProcesses, s.ProcessCount)
	st.FirstSample = min(st.FirstSample, s.At)
	st.LastSample = max(st.LastSample, s.At)
	a.last = s
}

// Watch samples every `period` of the engine's virtual time for as long as
// work is live: it arms the monitor's one ticker unless it is already armed,
// and each tick re-arms while the engine has other events pending (every
// engine event is planted by unfinished work: a job, retry, timeout or
// workflow step) and for one tick after that. Utilization is a trailing
// average, so that closing sample is the first whose window covers no work:
// the gauges come to rest at idle instead of freezing on a partial second.
// Call it after each submit; a non-positive period panics, as time.NewTicker
// does.
func (m *Monitor) Watch(engine *sim.Engine, period time.Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("monitor: non-positive period %v", period))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Arming an armed monitor still says work was just submitted, which the
	// pending tick's window will cover: that tick must not be the last.
	m.live = m.armed || engine.Pending() > 0
	if m.armed {
		return
	}
	m.armed = true
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		m.SampleNow(now)
		live := engine.Pending() > 0
		m.mu.Lock()
		defer m.mu.Unlock()
		rearm := live || m.live
		m.armed, m.live = rearm, live
		if rearm {
			engine.After(period, tick)
		}
	}
	engine.After(period, tick)
}

// Samples returns the retained chronological record, oldest first.
func (m *Monitor) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, 0, len(m.ring))
	out = append(out, m.ring[m.head:]...)
	return append(out, m.ring[:m.head]...)
}

// LastByDevice returns each device's most recent sample, keyed by minor ID —
// the scrape-time view a metrics gauge wants (current state, not history).
// Devices never sampled are absent.
func (m *Monitor) LastByDevice() map[int]Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]Sample, len(m.devs))
	for i := range m.devs {
		if a := &m.devs[i]; a.stats.Samples > 0 {
			out[a.last.Device] = a.last
		}
	}
	return out
}

// DeviceStats is the per-device aggregate of the post-processing step.
type DeviceStats struct {
	Device                    int
	Samples                   int
	UtilMin, UtilMax, UtilAvg float64
	MemMinMiB, MemMaxMiB      int64
	MemAvgMiB                 float64
	PeakProcesses             int
	FirstSample, LastSample   time.Duration
}

// Stats aggregates every sample ever taken per device, ordered by minor ID.
// Devices never sampled are absent.
func (m *Monitor) Stats() []DeviceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DeviceStats, 0, len(m.devs))
	for i := range m.devs {
		st := m.devs[i].stats
		if st.Samples == 0 {
			continue
		}
		st.UtilAvg /= float64(st.Samples)
		st.MemAvgMiB /= float64(st.Samples)
		out = append(out, st)
	}
	return out
}

// WriteCSV emits the chronological samples in the format the paper's
// post-processing function generates.
func (m *Monitor) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"timestamp_s", "gpu", "utilization.gpu_pct", "utilization.memory_pct",
		"memory.used_mib", "memory.total_mib", "pcie.link.gen", "processes",
	}); err != nil {
		return err
	}
	for _, s := range m.Samples() {
		rec := []string{
			strconv.FormatFloat(s.At.Seconds(), 'f', 3, 64),
			strconv.Itoa(s.Device),
			strconv.FormatFloat(s.UtilPct, 'f', 1, 64),
			strconv.FormatFloat(s.MemUtilPct, 'f', 1, 64),
			strconv.FormatInt(s.MemUsedMiB, 10),
			strconv.FormatInt(s.MemTotalMiB, 10),
			strconv.Itoa(s.PCIeGen),
			strconv.Itoa(s.ProcessCount),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
