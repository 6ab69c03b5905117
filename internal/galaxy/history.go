package galaxy

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"gyan/internal/tools/bonito"
	"gyan/internal/tools/racon"
)

// Histories. Galaxy "allows users to access tools, manage workflows,
// reproduce, store and share experimental results with the community"
// (paper, Section I). This file implements the storable/sharable record of
// a job. Everything in the stack is deterministic, so re-running a record
// against the same dataset yields the same output digest.

// HistoryRecord is the exported form of a completed job.
type HistoryRecord struct {
	JobID          int               `json:"job_id"`
	Tool           string            `json:"tool"`
	Params         map[string]string `json:"params"`
	Runtime        string            `json:"runtime,omitempty"`
	State          string            `json:"state"`
	Destination    string            `json:"destination"`
	GPUEnabled     bool              `json:"gpu_enabled"`
	VisibleDevices string            `json:"cuda_visible_devices,omitempty"`
	Command        string            `json:"command"`
	WallSeconds    float64           `json:"wall_seconds"`
	Output         string            `json:"output,omitempty"`
	// OutputDigest is the SHA-256 of the job's scientific output (the
	// consensus bases, the basecalls, or the stats line).
	OutputDigest string `json:"output_digest,omitempty"`
}

// OutputDigest computes the digest of a completed job's scientific output.
// Jobs without a result digest to the empty string.
func OutputDigest(j *Job) string {
	if j.Result == nil {
		return ""
	}
	h := sha256.New()
	switch d := j.Result.Detail.(type) {
	case *racon.Result:
		h.Write(d.Consensus.Bases)
	case *bonito.Result:
		for _, call := range d.Calls {
			h.Write(call.Bases)
			h.Write([]byte{0})
		}
	default:
		h.Write([]byte(j.Result.Output))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Record exports one job.
func Record(j *Job) HistoryRecord {
	rec := HistoryRecord{
		JobID:          j.ID,
		Tool:           j.ToolID,
		Params:         j.Params,
		Runtime:        j.Runtime,
		State:          string(j.State),
		Destination:    j.Destination,
		GPUEnabled:     j.GPUEnabled,
		VisibleDevices: j.VisibleDevices,
		Command:        j.CommandLine,
		WallSeconds:    j.WallTime().Seconds(),
		OutputDigest:   OutputDigest(j),
	}
	if j.Result != nil {
		rec.Output = j.Result.Output
	}
	return rec
}

// ExportHistory writes every job as one JSON line (the shareable history).
func (g *Galaxy) ExportHistory(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, j := range g.Jobs() {
		if err := enc.Encode(Record(j)); err != nil {
			return fmt.Errorf("galaxy: export history: %w", err)
		}
	}
	return bw.Flush()
}
