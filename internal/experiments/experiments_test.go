package experiments

import (
	"strings"
	"testing"
)

func quick() Options { return Options{Seed: 42, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation-banding", "ablation-energy", "ablation-hardware",
		"ablation-load", "ablation-multigpu", "ablation-policy", "ablation-window",
		"case1", "case2", "case3", "case4", "chaos-dispatch", "cluster-scaling",
		"crash-recovery",
		"fig10", "fig11", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "genomics-pipeline", "polish", "related-pypaswas",
		"sched-backfill"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range got {
		if c, err := Caption(id); err != nil || c == "" {
			t.Errorf("caption(%s) = %q, %v", id, c, err)
		}
	}
	if _, err := Caption("nope"); err == nil {
		t.Error("unknown caption lookup succeeded")
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown experiment ran")
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig3", quick())
	if err != nil {
		t.Fatal(err)
	}
	cpu4 := res.Metrics["cpu_4thr_s"]
	gpu4 := res.Metrics["gpu_4thr_s"]
	banded4 := res.Metrics["gpu_banded_4thr_s"]
	// Paper: 3.22 s CPU, 1.72 s GPU, 1.67 s banded; ~2x.
	if cpu4 < 2.9 || cpu4 > 3.7 {
		t.Errorf("CPU 4 threads = %.2f s, paper 3.22 s", cpu4)
	}
	if gpu4 < 1.3 || gpu4 > 2.1 {
		t.Errorf("GPU 4 threads = %.2f s, paper 1.72 s", gpu4)
	}
	if banded4 >= gpu4 {
		t.Errorf("banded best (%.2f) not faster than unbanded (%.2f); paper has 1.67 < 1.72", banded4, gpu4)
	}
	if sp := res.Metrics["speedup_4thr"]; sp < 1.6 || sp > 2.6 {
		t.Errorf("speedup = %.2fx, paper ~2x", sp)
	}
	// Title, header, separator and the five thread counts.
	if len(res.Tables) == 0 || len(strings.Split(strings.TrimSpace(res.Tables[0].String()), "\n")) != 8 {
		t.Fatalf("fig3 table malformed")
	}
}

func TestPolishShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("polish", quick())
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		key      string
		lo, hi   float64
		paperVal string
	}{
		{"cpu_polish_s", 110, 125, "117 s"},
		{"gpu_alloc_s", 1.5, 2.5, "2 s"},
		{"gpu_kernels_s", 11, 17, "13 s"},
		{"gpu_api_overhead_s", 20, 45, "~40 s"},
		{"cpu_e2e_s", 390, 430, "~410 s"},
		{"gpu_e2e_s", 185, 215, "~200 s"},
		{"e2e_speedup", 1.8, 2.4, "~2x"},
	}
	for _, c := range checks {
		v := res.Metrics[c.key]
		if v < c.lo || v > c.hi {
			t.Errorf("%s = %.2f outside [%v, %v] (paper: %s)", c.key, v, c.lo, c.hi, c.paperVal)
		}
	}
}

func TestFig4StallsMatchPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig4", quick())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["mem_dep_pct"]; v < 60 || v > 80 {
		t.Errorf("memory dependency = %.1f%%, paper ~70%%", v)
	}
	if v := res.Metrics["exec_dep_pct"]; v < 12 || v > 28 {
		t.Errorf("execution dependency = %.1f%%, paper ~20%%", v)
	}
	// The hotspot table must include the ClaraGenomics kernels the paper
	// names.
	var found int
	joined := res.Tables[0].String()
	for _, name := range []string{"generatePOAKernel", "generateConsensusKernel", "cudaStreamSynchronize", "cudaMemcpy"} {
		if strings.Contains(joined, name) {
			found++
		}
	}
	if found < 4 {
		t.Errorf("hotspot table missing paper's functions:\n%s", joined)
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig5", quick())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["small_cpu_h"]; v < 210 {
		t.Errorf("small dataset CPU = %.0f h, paper reports >210 h", v)
	}
	if v := res.Metrics["small_speedup"]; v < 50 {
		t.Errorf("small dataset speedup = %.0fx, paper reports >50x", v)
	}
	if v := res.Metrics["large_speedup"]; v < 50 {
		t.Errorf("large dataset speedup = %.0fx, paper reports >50x", v)
	}
	if res.Metrics["large_cpu_h"] <= res.Metrics["small_cpu_h"] {
		t.Error("larger dataset not slower than smaller one")
	}
}

func TestFig6HotspotsMatchPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig6", quick())
	if err != nil {
		t.Fatal(err)
	}
	// The launcher's aggregate time is tiny next to the multi-hour GEMM
	// total, so it may fall below the table's share cutoff; the full
	// profile render must list all three of the paper's hotspots.
	joined := res.Tables[0].String() + res.Text[1]
	for _, name := range []string{"sgemm", "cudaStreamSynchronize", "cudaLaunchKernel"} {
		if !strings.Contains(joined, name) {
			t.Errorf("bonito hotspots missing %q:\n%s", name, joined)
		}
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig7", quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["best_threads"]; got != 2 {
		t.Errorf("best containerized thread count = %v, paper reports 2", got)
	}
	if got := res.Metrics["best_batches"]; got < 8 {
		t.Errorf("best containerized batch count = %v, paper reports 8", got)
	}
	if v := res.Metrics["container_overhead_s"]; v < 0.4 || v > 1.2 {
		t.Errorf("container overhead = %.2f s, paper reports ~0.6 s", v)
	}
}

func TestCasesPlaceCorrectly(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"case1", "case2", "case3", "case4", "fig8", "fig9"} {
		res, err := Run(id, quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Metrics["placements_correct"] != 1 {
			t.Errorf("%s: placements do not match the paper:\n%s", id, res.Tables[0])
		}
	}
}

func TestFig10ConsoleMatchesPaper(t *testing.T) {
	t.Parallel()
	res, err := Run("fig10", quick())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["gpu0_mem_mib"]; v != 63 {
		t.Errorf("idle GPU0 memory = %v MiB, paper shows 63", v)
	}
	if v := res.Metrics["gpu1_mem_mib"]; v < 2650 || v > 2800 {
		t.Errorf("busy GPU1 memory = %v MiB, paper shows 2734", v)
	}
	if v := res.Metrics["gpu1_util_pct"]; v < 90 {
		t.Errorf("busy GPU1 utilization = %v%%, paper shows 95%%", v)
	}
	console := res.Text[1]
	for _, want := range []string{"NVIDIA-SMI 455.45.01", "racon_gpu", "Tesla K80"} {
		if !strings.Contains(console, want) {
			t.Errorf("console missing %q", want)
		}
	}
}

func TestAblationBandingSaturates(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-banding", quick())
	if err != nil {
		t.Fatal(err)
	}
	b1 := res.Metrics["banded_1"]
	b16 := res.Metrics["banded_16"]
	b32 := res.Metrics["banded_32"]
	if b16 >= b1 {
		t.Errorf("banded at 16 batches (%.2f) not faster than at 1 (%.2f)", b16, b1)
	}
	// Past saturation, more batches only add overhead.
	if b32 <= b16 {
		t.Errorf("banded at 32 batches (%.2f) still faster than at 16 (%.2f); saturation missing", b32, b16)
	}
}

func TestAblationMultiGPUSpeedsKernels(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-multigpu", quick())
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Metrics["kernel_speedup"]; sp < 1.5 || sp > 2.5 {
		t.Errorf("2-GPU kernel speedup = %.2fx, want ~2x", sp)
	}
}

func TestAblationEnergyFavorsGPU(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-energy", quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["cpu_kj"] <= 0 || res.Metrics["gpu_kj"] <= 0 {
		t.Fatalf("degenerate energies: %+v", res.Metrics)
	}
	ratio := res.Metrics["energy_ratio"]
	if ratio <= 1 {
		t.Errorf("GPU run not energy-favorable: ratio %.2f", ratio)
	}
	if ratio > 4 {
		t.Errorf("energy ratio %.2f implausibly high for a ~2x speedup", ratio)
	}
}

func TestAblationHardwareProjection(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-hardware", quick())
	if err != nil {
		t.Fatal(err)
	}
	k80 := res.Metrics["e2e_Tesla K80"]
	v100 := res.Metrics["e2e_Tesla V100-SXM2"]
	a100 := res.Metrics["e2e_A100-SXM4"]
	if !(a100 < v100 && v100 < k80) {
		t.Fatalf("generations not ordered: K80 %.0f, V100 %.0f, A100 %.0f", k80, v100, a100)
	}
	// Host-side stages bound the gain well below the raw FLOP ratio.
	if ratio := res.Metrics["a100_vs_k80"]; ratio < 1.2 || ratio > 3 {
		t.Errorf("A100/K80 end-to-end gain = %.2fx, expected Amdahl-limited 1.2-3x", ratio)
	}
}

func TestAblationPolicyContrast(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-policy", quick())
	if err != nil {
		t.Fatal(err)
	}
	// All policies finish the burst.
	for _, p := range []string{"pid", "memory", "utilization"} {
		if res.Metrics["makespan_"+p] <= 0 {
			t.Errorf("policy %s reported no makespan", p)
		}
	}
	// Only the PID policy scatters jobs across multiple devices.
	if res.Metrics["scattered_pid"] == 0 {
		t.Error("PID policy scattered no jobs in a 6-job burst")
	}
	if res.Metrics["scattered_memory"] != 0 || res.Metrics["scattered_utilization"] != 0 {
		t.Error("single-device policies scattered jobs")
	}
}

func TestFig11ShowsScatteredProcesses(t *testing.T) {
	t.Parallel()
	res, err := Run("fig11", quick())
	if err != nil {
		t.Fatal(err)
	}
	console := res.Text[1]
	if got := strings.Count(console, "racon_gpu"); got != 6 {
		t.Errorf("process table lists racon_gpu %d times, paper's Fig. 11 shows 6 rows:\n%s", got, console)
	}
}

func TestAblationLoadQueueingDelay(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-load", quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["mean_delay_slots2"] <= 0 {
		t.Error("2-slot destination showed no queueing delay under Poisson load")
	}
	if res.Metrics["mean_delay_unlimited"] != 0 {
		t.Errorf("unlimited destination queued jobs: mean delay %.2f s",
			res.Metrics["mean_delay_unlimited"])
	}
	// Both configurations complete the stream. (Makespans are not
	// ordered a priori: the slot limit trades queueing delay for reduced
	// GPU co-residency contention.)
	if res.Metrics["makespan_slots2"] <= 0 || res.Metrics["makespan_unlimited"] <= 0 {
		t.Error("degenerate makespans")
	}
}

func TestRelatedPyPaSWASSpeedup(t *testing.T) {
	t.Parallel()
	res, err := Run("related-pypaswas", quick())
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Metrics["speedup"]; sp < 25 || sp > 40 {
		t.Errorf("PyPaSWAS speedup = %.1fx, paper cites 33x", sp)
	}
}

func TestAblationWindowRealQuality(t *testing.T) {
	t.Parallel()
	res, err := Run("ablation-window", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"identity_w100", "identity_w250", "identity_w500", "identity_w1000"} {
		id := res.Metrics[w]
		if id < 0.95 || id > 1 {
			t.Errorf("%s = %.4f", w, id)
		}
	}
	// DP work grows with window length (quadratic per window, fewer
	// windows: net super-linear growth in cells per window dominates).
	if res.Metrics["cells_w1000"] <= res.Metrics["cells_w100"] {
		t.Errorf("DP cells did not grow with window length: %v vs %v",
			res.Metrics["cells_w1000"], res.Metrics["cells_w100"])
	}
}
