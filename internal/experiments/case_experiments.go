package experiments

import (
	"fmt"
	"time"

	"gyan/internal/core"
	"gyan/internal/galaxy"
	"gyan/internal/gpu"
	"gyan/internal/report"
	"gyan/internal/smi"
	"gyan/internal/timeline"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

func init() {
	register("case1", "Multi-GPU Case 1: two tools pinned to distinct GPUs (Fig. 8)", runCase1)
	register("case2", "Multi-GPU Case 2: second instance diverted from busy GPU (Fig. 8)", runCase2)
	register("case3", "Multi-GPU Case 3: four instances scattered by PID policy (Fig. 9)", runCase3)
	register("case4", "Multi-GPU Case 4: memory policy places job on min-memory GPU (Fig. 9)", runCase4)
	register("fig10", "nvidia-smi console output during a Racon-GPU run (Fig. 10)", runFig10)
	register("fig11", "nvidia-smi process table with four scattered Racon instances (Fig. 11)", runFig11)
	register("fig8", "Multi-GPU support Cases 1 and 2 combined (Fig. 8)", runFig8)
	register("fig9", "Multi-GPU support Cases 3 and 4 combined (Fig. 9)", runFig9)
}

// combine merges several case results into one figure-level result.
func combine(id, caption string, opt Options, parts ...string) (*Result, error) {
	res := newResult(id, caption)
	correct := 1.0
	for _, part := range parts {
		pr, err := Run(part, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", part, err)
		}
		res.Tables = append(res.Tables, pr.Tables...)
		res.Text = append(res.Text, pr.Text...)
		if pr.Metrics["placements_correct"] != 1 {
			correct = 0
		}
	}
	res.Metrics["placements_correct"] = correct
	return res, nil
}

func runFig8(opt Options) (*Result, error) {
	return combine("fig8", "Cases 1 and 2 (Fig. 8)", opt, "case1", "case2")
}

func runFig9(opt Options) (*Result, error) {
	return combine("fig9", "Cases 3 and 4 (Fig. 9)", opt, "case3", "case4")
}

// caseGalaxy builds a Galaxy over a fresh paper testbed with the given
// allocation policy and registers the default tools.
func caseGalaxy(policy core.Policy) (*galaxy.Galaxy, error) {
	g := galaxy.New(nil, galaxy.WithPolicy(policy))
	if err := g.RegisterDefaultTools(); err != nil {
		return nil, err
	}
	return g, nil
}

// caseScale keeps case-experiment jobs small; their point is placement, not
// duration. At this scale racon's device pool is a few MiB, so nvidia-smi
// shows each process near its 60 MiB CUDA-context footprint, as in Fig. 11.
const caseScale = "0.0001"

func caseReadSet(opt Options) (*workload.ReadSet, error) { return nflReadSet(opt) }

func caseSquiggles(opt Options) (*workload.SquiggleSet, error) {
	set, _, err := squiggleSets(Options{Seed: opt.Seed, Quick: true})
	return set, err
}

// caseJob is a case job beside the GPU minor IDs its user requested.
type caseJob struct {
	*galaxy.Job
	request string
}

// placementTable renders job placements.
func placementTable(title string, jobs []caseJob) *report.Table {
	tb := report.NewTable(title, "job", "tool", "requested", "CUDA_VISIBLE_DEVICES", "state", "reason")
	for _, j := range jobs {
		tb.AddRow(fmt.Sprintf("%d (pid %d)", j.ID, j.PID), j.ToolID, j.request,
			j.VisibleDevices, string(j.State), j.Info)
	}
	return tb
}

// submitCase submits a case job at scale and keeps its GPU request beside
// it for the report.
func submitCase(g *galaxy.Galaxy, tool, scale string, dataset any, opts galaxy.SubmitOptions) (caseJob, error) {
	job, err := g.Submit(tool, map[string]string{"scale": scale}, dataset, opts)
	return caseJob{job, opts.GPURequest}, err
}

func runCase1(opt Options) (*Result, error) {
	g, err := caseGalaxy(core.PolicyPID)
	if err != nil {
		return nil, err
	}
	rs, err := caseReadSet(opt)
	if err != nil {
		return nil, err
	}
	sq, err := caseSquiggles(opt)
	if err != nil {
		return nil, err
	}
	j1, err := submitCase(g, "racon", caseScale, rs, galaxy.SubmitOptions{GPURequest: "0"})
	if err != nil {
		return nil, err
	}
	j2, err := submitCase(g, "bonito", caseScale, sq, galaxy.SubmitOptions{GPURequest: "1", Delay: time.Millisecond})
	if err != nil {
		return nil, err
	}
	g.Engine.RunUntil(100 * time.Millisecond)
	console := smi.Console(smi.Snapshot(g.Cluster, g.Engine.Clock().Now()))
	g.Run()

	res := newResult("case1", "Two different tools on their requested GPUs")
	res.Tables = append(res.Tables, placementTable("Case 1 placements", []caseJob{j1, j2}))
	res.Text = append(res.Text,
		"paper: racon runs on GPU 0 and bonito on GPU 1, in parallel, in their original execution times.",
		console)
	res.Metrics["racon_devices"] = float64(len(j1.Devices))
	if j1.VisibleDevices == "0" && j2.VisibleDevices == "1" {
		res.Metrics["placements_correct"] = 1
	}
	return res, nil
}

func runCase2(opt Options) (*Result, error) {
	g, err := caseGalaxy(core.PolicyPID)
	if err != nil {
		return nil, err
	}
	sq, err := caseSquiggles(opt)
	if err != nil {
		return nil, err
	}
	j1, err := submitCase(g, "bonito", caseScale, sq, galaxy.SubmitOptions{GPURequest: "1"})
	if err != nil {
		return nil, err
	}
	j2, err := submitCase(g, "bonito", caseScale, sq, galaxy.SubmitOptions{GPURequest: "1", Delay: time.Second})
	if err != nil {
		return nil, err
	}
	g.Run()
	res := newResult("case2", "Second instance of the same tool diverted to the free GPU")
	res.Tables = append(res.Tables, placementTable("Case 2 placements", []caseJob{j1, j2}))
	res.Text = append(res.Text,
		"paper: the first bonito takes its requested GPU 1; the second, requesting the same busy device, is scheduled to GPU 0.")
	if j1.VisibleDevices == "1" && j2.VisibleDevices == "0" {
		res.Metrics["placements_correct"] = 1
	}
	return res, nil
}

func runCase3(opt Options) (*Result, error) {
	g, err := caseGalaxy(core.PolicyPID)
	if err != nil {
		return nil, err
	}
	rs, err := caseReadSet(opt)
	if err != nil {
		return nil, err
	}
	jobs := make([]caseJob, 4)
	lanes := make([]*galaxy.Job, len(jobs))
	for i := range jobs {
		var err error
		jobs[i], err = submitCase(g, "racon", caseScale, rs, galaxy.SubmitOptions{
			GPURequest: "0",
			Delay:      time.Duration(i) * time.Millisecond,
			Runtime:    "docker",
		})
		if err != nil {
			return nil, err
		}
		lanes[i] = jobs[i].Job
	}
	g.Engine.RunUntil(300 * time.Millisecond)
	console := smi.Console(smi.Snapshot(g.Cluster, g.Engine.Clock().Now()))
	g.Run()

	var chart timeline.Chart
	chart.AddJobs(lanes)
	chart.AddDevices(g.Cluster)

	res := newResult("case3", "Four containerized Racon instances, PID allocation")
	res.Tables = append(res.Tables, placementTable("Case 3 placements", jobs))
	res.Text = append(res.Text,
		"paper: the first instance goes to GPU 0, the second to GPU 1, and with both GPUs busy the remaining two are scattered to both devices.",
		console,
		"timeline:\n"+chart.Render(64))
	if jobs[0].VisibleDevices == "0" && jobs[1].VisibleDevices == "1" &&
		jobs[2].VisibleDevices == "0,1" && jobs[3].VisibleDevices == "0,1" {
		res.Metrics["placements_correct"] = 1
	}
	return res, nil
}

func runCase4(opt Options) (*Result, error) {
	g, err := caseGalaxy(core.PolicyMemory)
	if err != nil {
		return nil, err
	}
	rs, err := caseReadSet(opt)
	if err != nil {
		return nil, err
	}
	sq, err := caseSquiggles(opt)
	if err != nil {
		return nil, err
	}
	// Racon at a larger scale so it is still resident (with a small
	// footprint) when the second bonito is mapped.
	j1, err := submitCase(g, "racon", "0.01", rs, galaxy.SubmitOptions{GPURequest: "0"})
	if err != nil {
		return nil, err
	}
	j2, err := submitCase(g, "bonito", caseScale, sq, galaxy.SubmitOptions{GPURequest: "1", Delay: time.Second})
	if err != nil {
		return nil, err
	}
	j3, err := submitCase(g, "bonito", caseScale, sq, galaxy.SubmitOptions{GPURequest: "1", Delay: 2 * time.Second})
	if err != nil {
		return nil, err
	}
	g.Run()
	res := newResult("case4", "Memory policy routes the third job to the min-memory GPU")
	res.Tables = append(res.Tables, placementTable("Case 4 placements", []caseJob{j1, j2, j3}))
	res.Text = append(res.Text,
		"paper: racon (GPU 0) holds ~60 MiB while bonito (GPU 1) holds its model workspace; the second bonito is placed on GPU 0, the device with minimum memory usage.")
	if j1.VisibleDevices == "0" && j2.VisibleDevices == "1" && j3.VisibleDevices == "0" {
		res.Metrics["placements_correct"] = 1
	}
	return res, nil
}

// fig10Scale sizes racon's device pool so nvidia-smi shows the 2734 MiB the
// paper's Fig. 10 console lists for the busy GPU 1 (63 MiB driver + 60 MiB
// context + ~2611 MiB pool).
const fig10Scale = 0.075

func runFig10(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	c := gpu.NewPaperTestbed(nil)
	p := racon.DefaultParams()
	p.Scale = fig10Scale
	env := c.Placement("/usr/bin/racon_gpu", 1)
	env.KeepOpen = true
	r, err := racon.Run(rs, p, env)
	if err != nil {
		return nil, err
	}
	// Snapshot mid-kernel: after IO/prep, inside the alignment kernels.
	// Memory readings reflect live allocations, so snapshot before the
	// sessions are closed.
	at := r.Timing.IO + r.Timing.HostPrep + r.Timing.Overlap/2
	snap := smi.Snapshot(c, at)
	console := smi.Console(snap)
	for _, s := range r.Sessions {
		s.Close()
	}
	res := newResult("fig10", "nvidia-smi console during a Racon-GPU run on GPU 1")
	res.Text = append(res.Text,
		"paper: GPU 0 idle at 63 MiB; GPU 1 at 2734 MiB and ~95% utilization running /usr/bin/racon_gpu.",
		console)
	res.Metrics["gpu1_mem_mib"] = float64(snap.GPUs[1].MemoryUsedMiB)
	res.Metrics["gpu1_util_pct"] = float64(snap.GPUs[1].UtilizationPct)
	res.Metrics["gpu0_mem_mib"] = float64(snap.GPUs[0].MemoryUsedMiB)
	return res, nil
}

func runFig11(opt Options) (*Result, error) {
	caseRes, err := runCase3(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("fig11", "nvidia-smi process table, Case 3")
	res.Text = append(res.Text,
		"paper: six process rows — the scattered instances appear on both GPUs, each holding ~60 MiB.")
	res.Text = append(res.Text, caseRes.Text[1])
	res.Metrics = caseRes.Metrics
	return res, nil
}
