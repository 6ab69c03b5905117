package faults

import (
	"sort"
	"sync"
	"time"
)

// QuarantineSpan is one device's stay in quarantine. Open spans (still
// quarantined) have To == -1.
type QuarantineSpan struct {
	Device   int
	From, To time.Duration
}

// Open reports whether the span has not ended.
func (s QuarantineSpan) Open() bool { return s.To < 0 }

// Quarantine tracks per-device fault counts and blacklists devices that
// fault repeatedly, so the mapper and scheduler stop allocating a bad GPU.
// It is safe for concurrent use.
type Quarantine struct {
	// Threshold is how many faults a device absorbs before quarantine;
	// values below 1 mean 1.
	Threshold int
	// Cooldown releases a quarantined device after this long; zero keeps
	// it quarantined forever. A device released by cooldown re-enters
	// quarantine after a single further fault (its count is not reset —
	// repeat offenders get no grace).
	Cooldown time.Duration

	mu     sync.Mutex
	counts map[int]int
	until  map[int]time.Duration // quarantined until; forever when Cooldown == 0
	spans  []QuarantineSpan
}

// forever marks a permanent quarantine in the until map.
const forever = time.Duration(1<<63 - 1)

// NewQuarantine returns a quarantine with the given threshold and cooldown.
func NewQuarantine(threshold int, cooldown time.Duration) *Quarantine {
	return &Quarantine{Threshold: threshold, Cooldown: cooldown}
}

func (q *Quarantine) threshold() int {
	if q.Threshold < 1 {
		return 1
	}
	return q.Threshold
}

// RecordFault charges one fault to the device at virtual time now and
// reports whether this fault tipped it into quarantine.
func (q *Quarantine) RecordFault(device int, now time.Duration) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.counts == nil {
		q.counts = make(map[int]int)
		q.until = make(map[int]time.Duration)
	}
	q.counts[device]++
	if q.active(device, now) {
		return false // already serving time
	}
	if q.counts[device] < q.threshold() {
		return false
	}
	deadline := forever
	if q.Cooldown > 0 {
		deadline = now + q.Cooldown
	}
	q.until[device] = deadline
	to := time.Duration(-1)
	if q.Cooldown > 0 {
		to = deadline
	}
	q.spans = append(q.spans, QuarantineSpan{Device: device, From: now, To: to})
	return true
}

// active reports quarantine status with q.mu held.
func (q *Quarantine) active(device int, now time.Duration) bool {
	deadline, ok := q.until[device]
	return ok && now < deadline
}

// IsQuarantined reports whether the device is quarantined at virtual time
// now.
func (q *Quarantine) IsQuarantined(device int, now time.Duration) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active(device, now)
}

// Quarantined lists the devices quarantined at virtual time now, ascending.
func (q *Quarantine) Quarantined(now time.Duration) []int {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int
	for d := range q.until {
		if q.active(d, now) {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// Spans returns a copy of every quarantine interval recorded so far.
func (q *Quarantine) Spans() []QuarantineSpan {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]QuarantineSpan(nil), q.spans...)
}
