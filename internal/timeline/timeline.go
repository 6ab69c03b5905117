// Package timeline renders virtual-time activity as ASCII Gantt charts:
// which job ran when, and when each GPU was executing kernels. The
// multi-GPU case experiments use it to make the placement interleavings of
// Figs. 8 and 9 visible at a glance.
package timeline

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/gpu"
)

// Span is one labeled interval on a lane.
type Span struct {
	Lane       string
	Label      string
	Start, End time.Duration
}

// Chart collects spans grouped by lane. The zero value is ready to use.
type Chart struct {
	spans []Span
}

// Add appends one span. Spans with End <= Start are ignored (zero-length
// activity renders as nothing).
func (c *Chart) Add(lane, label string, start, end time.Duration) {
	if end <= start {
		return
	}
	c.spans = append(c.spans, Span{Lane: lane, Label: label, Start: start, End: end})
}

// AddJobs adds one lane per job, labeled with tool and device placement.
func (c *Chart) AddJobs(jobs []*galaxy.Job) {
	for _, j := range jobs {
		if !j.Done() || j.State != galaxy.StateOK {
			continue
		}
		lane := fmt.Sprintf("job %d %s", j.ID, j.ToolID)
		label := j.VisibleDevices
		if label == "" {
			label = "cpu"
		} else {
			label = "gpu " + label
		}
		c.Add(lane, label, j.Started, j.Finished)
	}
}

// AddRecovery adds the crash-recovery lanes from a journal replay: one lane
// per handler's lease trail (heartbeat window up to its deadline, labeled
// live or expired) and a "recovery" lane spanning the downtime between the
// newest journal record and the resumed engine, labeled with what the replay
// requeued. Replayed history routinely predates the new engine's start, so
// these spans extend the chart's axis backwards rather than being clipped.
// A nil report is a no-op.
func (c *Chart) AddRecovery(rep *galaxy.RecoveryReport, end time.Duration) {
	if rep == nil {
		return
	}
	handlers := make([]string, 0, len(rep.Leases))
	for h := range rep.Leases {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	for _, h := range handlers {
		li := rep.Leases[h]
		state := "lease live"
		if li.Expired {
			state = "lease expired"
		}
		to := li.Deadline
		if to > end {
			to = end
		}
		c.Add(fmt.Sprintf("handler %s", h), state, li.First, to)
	}
	label := fmt.Sprintf("replayed %d records: %d requeued, %d adopted, %d orphaned",
		rep.Records, rep.Requeued, rep.Adopted, rep.Orphaned)
	c.Add("recovery", label, rep.LastRecordAt, rep.ResumedAt)
}

// AddDevices adds one lane per device with its kernel-residency spans.
func (c *Chart) AddDevices(cluster *gpu.Cluster) {
	for _, d := range cluster.Devices() {
		lane := fmt.Sprintf("GPU %d", d.Minor())
		for _, s := range d.BusySpans() {
			c.Add(lane, "busy", s.Start, s.End)
		}
	}
}

// Render draws the chart with the time axis scaled to `width` columns.
// Lanes appear in first-appearance order; each row shows its spans as
// #-blocks. An empty chart renders an explanatory line.
func (c *Chart) Render(width int) string {
	if width < 20 {
		width = 20
	}
	if len(c.spans) == 0 {
		return "(no activity)\n"
	}
	start, end := c.spans[0].Start, c.spans[0].End
	laneOrder := []string{}
	seen := map[string]bool{}
	for _, s := range c.spans {
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
		if !seen[s.Lane] {
			seen[s.Lane] = true
			laneOrder = append(laneOrder, s.Lane)
		}
	}
	span := end - start
	if span <= 0 {
		span = time.Nanosecond
	}
	col := func(t time.Duration) int {
		c := int(float64(t-start) / float64(span) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}

	labelW := 0
	for _, lane := range laneOrder {
		if len(lane) > labelW {
			labelW = len(lane)
		}
	}

	var b strings.Builder
	for _, lane := range laneOrder {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		labels := []string{}
		for _, s := range c.spans {
			if s.Lane != lane {
				continue
			}
			from, to := col(s.Start), col(s.End)
			for i := from; i <= to; i++ {
				row[i] = '#'
			}
			if s.Label != "" && !contains(labels, s.Label) {
				labels = append(labels, s.Label)
			}
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "%-*s |%s| %s\n", labelW, lane, row, strings.Join(labels, ", "))
	}
	fmt.Fprintf(&b, "%-*s  %s\n", labelW, "", axis(start, end, width))
	return b.String()
}

// axis renders the time scale with endpoint seconds.
func axis(start, end time.Duration, width int) string {
	left := fmt.Sprintf("%.2fs", start.Seconds())
	right := fmt.Sprintf("%.2fs", end.Seconds())
	gap := width - len(left) - len(right)
	if gap < 1 {
		gap = 1
	}
	return left + strings.Repeat(" ", gap) + right
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
