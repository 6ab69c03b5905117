// Package gyan is a Go reproduction of "GYAN: Accelerating Bioinformatics
// Tools in Galaxy with GPU-Aware Computation Mapping" (IPPS 2021).
//
// The repository rebuilds, from scratch, every system the paper describes or
// depends on: a device-level GPU cluster simulator standing in for the 2x
// Tesla K80 testbed (internal/gpu), an nvidia-smi emulator with the XML
// query interface GYAN's allocators parse (internal/smi), an NVProf-style
// profiler (internal/nvprof), Docker/Singularity container runtimes
// (internal/container), the Galaxy tool-wrapper XML and job_conf.xml formats
// (internal/toolxml, internal/jobconf), the Galaxy job lifecycle and runners
// (internal/galaxy), GYAN's GPU-aware destination mapping and multi-GPU
// allocation policies (internal/core), the GPU hardware usage monitor
// (internal/monitor), conda-style dependency resolution (internal/depres),
// and real reimplementations of the evaluated tools: the Racon POA consensus
// polisher (internal/tools/racon), the Bonito CNN basecaller with SGD
// training and CTC beam-search decoding (internal/tools/bonito), and the
// pyPaSWAS Smith-Waterman aligner of the paper's motivation section
// (internal/tools/paswas).
//
// Around that core sit the pieces a production handler needs and the paper
// leaves out: a batch scheduler (internal/sched), fault injection
// (internal/faults), a crash-safe job-state journal with one staged write
// path (internal/journal), metrics and traces (internal/obs),
// and a multi-handler cluster over a simulated or TCP bus (internal/cluster,
// internal/transport).
//
// cmd/gyanbench regenerates every figure of the paper's evaluation in
// deterministic virtual time; `go run ./bench` is the one source of
// wall-clock performance numbers (bench_test.go in this directory holds only
// kernel micro-benchmarks). See README.md, DESIGN.md and EXPERIMENTS.md.
package gyan
