package galaxy

import (
	"fmt"

	"gyan/internal/tools/genomics"
	"gyan/internal/toolxml"
	"gyan/internal/workload"
)

// Executors for the three-stage short-variant pipeline. Each downstream
// stage accepts either the upstream stage's result (the Transform dataflow
// of a DAG run) or a plain *workload.ReadSet — the pass-through input a
// recovered step falls back to when the upstream in-memory result did not
// survive a crash; the stage then reruns the upstream computation
// internally, trading repeated work for a journal that never has to encode
// tool results.

func genomicsEnv(req ExecRequest, gpuProc, cpuProc string) genomics.Env {
	env := genomics.Env{
		PID:      req.PID,
		Start:    req.Start,
		KeepOpen: true,
		ProcName: cpuProc,
	}
	if req.GPUEnabled && len(req.Devices) > 0 {
		env.Cluster = req.Cluster
		env.Devices = req.Devices
		env.ProcName = gpuProc
	}
	return env
}

// BwaMemExecutor adapts the BWA-MEM-style aligner.
func BwaMemExecutor(req ExecRequest) (*ExecResult, error) {
	rs, ok := req.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("galaxy: bwa-mem needs a *workload.ReadSet, got %T", req.Dataset)
	}
	p := genomics.DefaultAlignParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	res, err := genomics.Align(rs, p, genomicsEnv(req, "/usr/bin/bwa-mem-gpu", "/usr/bin/bwa-mem2"))
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
	p := genomics.DefaultCallParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	if p.MinDepth, err = paramInt(req.Params, "min_depth", p.MinDepth); err != nil {
		return nil, err
	}
	res, err := genomics.Call(aligned, rs, p, genomicsEnv(req, "/usr/bin/vcall-gpu", "/usr/bin/gatk"))
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
	p := genomics.DefaultBQSRParams()
	var err error
	if p.Threads, err = paramInt(req.Params, "threads", p.Threads); err != nil {
		return nil, err
	}
	if p.Scale, err = paramFloat(req.Params, "scale", p.Scale); err != nil {
		return nil, err
	}
	res, err := genomics.Recalibrate(called, rs, p, genomicsEnv(req, "/usr/bin/bqsr-gpu", "/usr/bin/gatk"))
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

// RegisterGenomicsTools installs the short-variant pipeline tools
// (bwa-mem, variant-caller, bqsr) alongside whatever is already
// registered.
func (g *Galaxy) RegisterGenomicsTools() error {
	bwaXML, err := toolxml.BwaMemTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&ToolBinding{
		XML: bwaXML, Exec: BwaMemExecutor,
		ProcNameGPU: "/usr/bin/bwa-mem-gpu", ProcNameCPU: "/usr/bin/bwa-mem2",
	}); err != nil {
		return err
	}
	vcXML, err := toolxml.VariantCallerTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&ToolBinding{
		XML: vcXML, Exec: VariantCallExecutor,
		ProcNameGPU: "/usr/bin/vcall-gpu", ProcNameCPU: "/usr/bin/gatk",
	}); err != nil {
		return err
	}
	bqsrXML, err := toolxml.BQSRTool()
	if err != nil {
		return err
	}
	return g.RegisterTool(&ToolBinding{
		XML: bqsrXML, Exec: BQSRExecutor,
		ProcNameGPU: "/usr/bin/bqsr-gpu", ProcNameCPU: "/usr/bin/gatk",
	})
}
