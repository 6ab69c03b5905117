package galaxy

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/paswas"
	"gyan/internal/tools/racon"
	"gyan/internal/toolxml"
	"gyan/internal/workload"
)

// ExecRequest is everything an executor needs to run a tool.
type ExecRequest struct {
	// Cluster is nil (or Devices empty) for CPU placements.
	Cluster *gpu.Cluster
	// Devices are the GPU minor IDs from CUDA_VISIBLE_DEVICES.
	Devices []int
	// PID is the simulated host process ID.
	PID int
	// GPUEnabled mirrors GALAXY_GPU_ENABLED.
	GPUEnabled bool
	// Containerized applies the container execution model.
	Containerized bool
	// Start is the run's origin on the virtual timeline.
	Start time.Duration
	// Params is the evaluated param dict; Dataset the job input.
	Params  map[string]string
	Dataset any
}

// ExecResult is an executor's outcome.
type ExecResult struct {
	// Output is a human-readable run summary.
	Output string
	// Total is the run's virtual duration.
	Total time.Duration
	// Sessions are open device streams to close at job completion.
	Sessions []*gpu.Stream
	// Detail is the tool-specific result (*racon.Result, *bonito.Result).
	Detail any
}

// Executor runs one tool invocation.
type Executor func(ExecRequest) (*ExecResult, error)

// ToolBinding couples a wrapper with its executable implementation.
type ToolBinding struct {
	XML *toolxml.Tool
	// Exec runs the tool.
	Exec Executor
	// ProcNameGPU and ProcNameCPU are the executable paths nvidia-smi
	// shows, matching the wrapper's #if branches.
	ProcNameGPU, ProcNameCPU string
}

func paramFloat(params map[string]string, key string, def float64) (float64, error) {
	v, ok := params[key]
	if !ok || strings.TrimSpace(v) == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("galaxy: param %s=%q: %w", key, v, err)
	}
	return f, nil
}

func paramInt(params map[string]string, key string, def int) (int, error) {
	v, ok := params[key]
	if !ok || strings.TrimSpace(v) == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("galaxy: param %s=%q: %w", key, v, err)
	}
	return n, nil
}

// RaconExecutor adapts the racon tool to the Galaxy executor interface. The
// recognized params mirror the wrapper inputs: threads, batches,
// banding_flag (non-empty enables the banding approximation) and the
// harness-level scale.
func RaconExecutor(req ExecRequest) (*ExecResult, error) {
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: racon needs a *workload.ReadSet, got %T", req.Dataset)
	}
	p := racon.DefaultParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Batches, err = paramInt(req.Params, "batches", p.Batches); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	p.Banding = strings.TrimSpace(req.Params["banding_flag"]) != ""
	p.Containerized = req.Containerized

	env := racon.Env{
		PID:      req.PID,
		Start:    req.Start,
		KeepOpen: true,
	}
	if req.GPUEnabled && len(req.Devices) > 0 {
		env.Cluster = req.Cluster
		env.Devices = req.Devices
		env.ProcName = "/usr/bin/racon_gpu"
	} else {
		env.ProcName = "/usr/bin/racon"
	}
	res, err := racon.Run(rs, p, env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output: fmt.Sprintf("polished %d windows: identity %.4f -> %.4f",
			res.Windows, res.DraftIdentity, res.PolishedIdentity),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}

// BonitoExecutor adapts the bonito basecaller.
func BonitoExecutor(req ExecRequest) (*ExecResult, error) {
	set, ok := req.Dataset.(*workload.SquiggleSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: bonito needs a *workload.SquiggleSet, got %T", req.Dataset)
	}
	p := bonito.DefaultParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	p.Containerized = req.Containerized
	if d := strings.TrimSpace(req.Params["decoder"]); d != "" {
		p.Decoder = bonito.Decoder(d)
	}

	env := bonito.Env{
		PID:      req.PID,
		ProcName: "/usr/bin/bonito",
		Start:    req.Start,
		KeepOpen: true,
	}
	if req.GPUEnabled && len(req.Devices) > 0 {
		env.Cluster = req.Cluster
		env.Devices = req.Devices
	}
	res, err := bonito.Run(set, p, env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output:   fmt.Sprintf("basecalled %d reads: mean identity %.4f", len(res.Calls), res.MeanIdentity),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}

// PaswasExecutor adapts the pyPaSWAS-style Smith-Waterman aligner.
func PaswasExecutor(req ExecRequest) (*ExecResult, error) {
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: pypaswas needs a *workload.ReadSet, got %T", req.Dataset)
	}
	p := paswas.DefaultParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	env := paswas.Env{
		PID:      req.PID,
		Start:    req.Start,
		KeepOpen: true,
	}
	env.ProcName = "/usr/bin/pypaswas"
	if req.GPUEnabled && len(req.Devices) > 0 {
		env.Cluster = req.Cluster
		env.Devices = req.Devices
	}
	res, err := paswas.Run(rs, p, env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output: fmt.Sprintf("aligned %d reads: mean identity %.4f",
			len(res.Hits), res.MeanIdentity),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}

// SeqStatsExecutor is a CPU-only tool computing real summary statistics
// over a read set; it exercises the CPU-destination path.
func SeqStatsExecutor(req ExecRequest) (*ExecResult, error) {
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: seqstats needs a *workload.ReadSet, got %T", req.Dataset)
	}
	st := bioseq.Stats(rs.Reads)
	return &ExecResult{
		Output: fmt.Sprintf("%d reads, %d bases, len %d-%d (mean %.0f), N50 %d, GC %.3f",
			st.Count, st.TotalBases, st.MinLen, st.MaxLen, st.MeanLen, st.N50, st.GC),
		Total:  time.Duration(float64(st.TotalBases) * float64(time.Microsecond)),
		Detail: st,
	}, nil
}
