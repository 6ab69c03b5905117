package galaxy

import (
	"fmt"
	"strings"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/genomics"
	"gyan/internal/tools/paswas"
	"gyan/internal/tools/racon"
	"gyan/internal/toolxml"
	"gyan/internal/workload"
)

// ExecRequest is everything an executor needs to run a tool.
type ExecRequest struct {
	// Env is the run's placement, built by the engine with the binding's
	// process name for it; the engine owns the sessions (KeepOpen).
	gpu.Env
	// Containerized applies the container execution model.
	Containerized bool
	// Params is the evaluated param dict, checked against the wrapper at
	// submit (read it with intParam and scaleOr); Dataset the job input.
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

// Executor runs one tool invocation. It reads its params before it looks at
// its dataset.
type Executor func(ExecRequest) (*ExecResult, error)

// ToolBinding couples a wrapper with its executable implementation.
type ToolBinding struct {
	XML *toolxml.Tool
	// Exec runs the tool.
	Exec Executor
	// ProcNameGPU and ProcNameCPU are the executable paths nvidia-smi
	// shows, matching the wrapper's #if branches; the engine puts the one
	// for the run's placement in ExecRequest.Env.
	ProcNameGPU, ProcNameCPU string

	// spec is the wrapper's typed <inputs>, derived by RegisterTool.
	spec *toolxml.Spec
}

// RaconExecutor adapts the racon tool to the Galaxy executor interface. The
// recognized params mirror the wrapper inputs: threads, batches,
// banding_flag (non-empty enables the banding approximation) and the
// engine's scale.
func RaconExecutor(req ExecRequest) (*ExecResult, error) {
	p := racon.DefaultParams()
	p.Threads = intParam(req.Params, "threads")
	p.Batches = intParam(req.Params, "batches")
	p.Scale = scaleOr(req.Params, p.Scale)
	p.Banding = strings.TrimSpace(req.Params["banding_flag"]) != ""
	p.Containerized = req.Containerized
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: racon needs a *workload.ReadSet, got %T", req.Dataset)
	}
	res, err := racon.Run(rs, p, req.Env)
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
	p := bonito.DefaultParams()
	p.Threads = intParam(req.Params, "threads")
	p.Scale = scaleOr(req.Params, p.Scale)
	p.Decoder = bonito.Decoder(req.Params["decoder"])
	p.Containerized = req.Containerized
	set, ok := req.Dataset.(*workload.SquiggleSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: bonito needs a *workload.SquiggleSet, got %T", req.Dataset)
	}
	res, err := bonito.Run(set, p, req.Env)
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
	p := paswas.DefaultParams()
	p.Threads = intParam(req.Params, "threads")
	p.Scale = scaleOr(req.Params, p.Scale)
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: pypaswas needs a *workload.ReadSet, got %T", req.Dataset)
	}
	res, err := paswas.Run(rs, p, req.Env)
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

// Executors for the three-stage short-variant pipeline. Each downstream
// stage accepts either the upstream stage's result (the Transform dataflow
// of a DAG run) or a plain *workload.ReadSet — the pass-through input a
// recovered step falls back to when the upstream in-memory result did not
// survive a crash; the stage then reruns the upstream computation
// internally, trading repeated work for a journal that never has to encode
// tool results.

// BwaMemExecutor adapts the BWA-MEM-style aligner.
func BwaMemExecutor(req ExecRequest) (*ExecResult, error) {
	p := genomics.DefaultAlignParams()
	p.Threads = intParam(req.Params, "threads")
	p.Scale = scaleOr(req.Params, p.Scale)
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: bwa-mem needs a *workload.ReadSet, got %T", req.Dataset)
	}
	res, err := genomics.Align(rs, p, req.Env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output: fmt.Sprintf("aligned %d reads: mean identity %.4f",
			len(res.Alignments), res.MeanIdentity),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}

// VariantCallExecutor adapts the variant caller. Its input is the
// aligner's result or a raw read set (post-recovery pass-through).
func VariantCallExecutor(req ExecRequest) (*ExecResult, error) {
	p := genomics.DefaultCallParams()
	p.Threads = intParam(req.Params, "threads")
	p.Scale = scaleOr(req.Params, p.Scale)
	p.MinDepth = intParam(req.Params, "min_depth")
	var aligned *genomics.AlignResult
	var rs *workload.ReadSet
	switch in := req.Dataset.(type) {
	case *genomics.AlignResult:
		aligned = in
	case *workload.ReadSet:
		rs = in
	default:
		return nil, fmt.Errorf("galaxy: variant-caller needs a *genomics.AlignResult or *workload.ReadSet, got %T", req.Dataset)
	}
	res, err := genomics.Call(aligned, rs, p, req.Env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output: fmt.Sprintf("genotyped %d sites: %d variants called",
			res.Sites, len(res.Variants)),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}

// BQSRExecutor adapts the base-quality recalibrator. Its input is the
// caller's result or a raw read set (post-recovery pass-through).
func BQSRExecutor(req ExecRequest) (*ExecResult, error) {
	p := genomics.DefaultBQSRParams()
	p.Threads = intParam(req.Params, "threads")
	p.Scale = scaleOr(req.Params, p.Scale)
	var called *genomics.CallResult
	var rs *workload.ReadSet
	switch in := req.Dataset.(type) {
	case *genomics.CallResult:
		called = in
	case *workload.ReadSet:
		rs = in
	default:
		return nil, fmt.Errorf("galaxy: bqsr needs a *genomics.CallResult or *workload.ReadSet, got %T", req.Dataset)
	}
	res, err := genomics.Recalibrate(called, rs, p, req.Env)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Output: fmt.Sprintf("recalibrated %d cycle buckets: mean quality Q%.1f",
			len(res.Table), res.MeanQuality),
		Total:    res.Timing.Total(),
		Sessions: res.Sessions,
		Detail:   res,
	}, nil
}
