package container

import (
	"strings"
	"testing"
	"time"
)

func raconSpec() LaunchSpec {
	return LaunchSpec{
		Runtime: Docker,
		Image:   "gulsumgudukbay/racon_dockerfile",
		Command: "racon_gpu -t 2 reads.fa ovl.paf draft.fa",
		Env: map[string]string{
			"GALAXY_GPU_ENABLED":   "true",
			"CUDA_VISIBLE_DEVICES": "0,1",
		},
		Volumes: []VolumeMount{{Host: "/galaxy/data", Container: "/data", Mode: "rw"}},
		GPU:     true,
	}
}

func TestAssembleDockerGPUCommand(t *testing.T) {
	cmd, err := AssembleCommand(raconSpec())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(cmd, " ")
	// The exact GYAN additions from Section IV-B.
	if !strings.Contains(joined, "--gpus all") {
		t.Errorf("docker GPU launch missing '--gpus all': %s", joined)
	}
	if !strings.Contains(joined, "-e CUDA_VISIBLE_DEVICES=0,1") {
		t.Errorf("CUDA_VISIBLE_DEVICES not exported: %s", joined)
	}
	if !strings.Contains(joined, "-v /galaxy/data:/data:rw") {
		t.Errorf("volume bind wrong: %s", joined)
	}
	if cmd[0] != "docker" || cmd[1] != "run" {
		t.Errorf("command prefix = %v", cmd[:2])
	}
	// Image must precede the tool command.
	img := indexOf(cmd, "gulsumgudukbay/racon_dockerfile")
	tool := indexOf(cmd, "racon_gpu")
	if img < 0 || tool < 0 || img > tool {
		t.Errorf("image/tool ordering wrong: %s", joined)
	}
}

func TestAssembleDockerCPUCommandHasNoGPUFlag(t *testing.T) {
	s := raconSpec()
	s.GPU = false
	s.Env = map[string]string{"GALAXY_GPU_ENABLED": "false"}
	cmd, err := AssembleCommand(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(cmd, " "), "--gpus") {
		t.Error("CPU launch contains --gpus")
	}
}

func TestAssembleSingularityGPUDropsMountModes(t *testing.T) {
	s := raconSpec()
	s.Runtime = Singularity
	s.Image = "docker://gulsumgudukbay/racon_dockerfile"
	cmd, err := AssembleCommand(s)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(cmd, " ")
	if !strings.Contains(joined, "--nv") {
		t.Errorf("singularity GPU launch missing --nv: %s", joined)
	}
	// Paper: Singularity 3.1 does not support rw/ro together with --nv;
	// GYAN removes them.
	if strings.Contains(joined, ":rw") || strings.Contains(joined, ":ro") {
		t.Errorf("mount modes not stripped under --nv: %s", joined)
	}
	if !strings.Contains(joined, "-B /galaxy/data:/data") {
		t.Errorf("bind missing: %s", joined)
	}
}

func TestAssembleSingularityCPUKeepsMountModes(t *testing.T) {
	s := raconSpec()
	s.Runtime = Singularity
	s.Image = "docker://gulsumgudukbay/racon_dockerfile"
	s.GPU = false
	cmd, err := AssembleCommand(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(cmd, " "), "/galaxy/data:/data:rw") {
		t.Errorf("CPU singularity launch lost mount mode: %v", cmd)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*LaunchSpec){
		func(s *LaunchSpec) { s.Runtime = "podman" },
		func(s *LaunchSpec) { s.Image = "" },
		func(s *LaunchSpec) { s.Command = "" },
		func(s *LaunchSpec) { s.Volumes[0].Mode = "rwx" },
	}
	for i, mutate := range bad {
		s := raconSpec()
		mutate(&s)
		if _, err := AssembleCommand(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestPullCachesImages(t *testing.T) {
	r := NewRegistry()
	_, first, err := r.Pull("gulsumgudukbay/racon_dockerfile")
	if err != nil {
		t.Fatal(err)
	}
	if first == 0 {
		t.Error("first pull was free")
	}
	_, second, err := r.Pull("gulsumgudukbay/racon_dockerfile")
	if err != nil {
		t.Fatal(err)
	}
	if second != 0 {
		t.Errorf("cached pull cost %v", second)
	}
	if !r.cached["gulsumgudukbay/racon_dockerfile"] {
		t.Error("image not marked cached")
	}
}

func TestPullUnknownImage(t *testing.T) {
	if _, _, err := NewRegistry().Pull("nosuch/image"); err == nil {
		t.Fatal("unknown image pulled successfully")
	}
}

func TestLaunchStartupCost(t *testing.T) {
	e := NewEngine()
	run1, err := e.Launch(raconSpec())
	if err != nil {
		t.Fatal(err)
	}
	// First launch: pull + cold start.
	if run1.StartupCost <= 600*time.Millisecond {
		t.Errorf("first launch cost %v, expected pull + cold start", run1.StartupCost)
	}
	run2, err := e.Launch(raconSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Cached: exactly the ~0.6 s cold start the paper measures.
	if run2.StartupCost != 600*time.Millisecond {
		t.Errorf("cached launch cost %v, paper reports ~0.6 s", run2.StartupCost)
	}
	if run1.ID == run2.ID {
		t.Error("duplicate container IDs")
	}
}

func TestLaunchWithoutNvidiaDockerFails(t *testing.T) {
	e := NewEngine()
	e.NvidiaDocker = false
	if _, err := e.Launch(raconSpec()); err == nil {
		t.Fatal("GPU launch without NVIDIA-Docker succeeded")
	}
	s := raconSpec()
	s.GPU = false
	if _, err := e.Launch(s); err != nil {
		t.Fatalf("CPU launch without NVIDIA-Docker failed: %v", err)
	}
}

func TestVisibleDevicesParsed(t *testing.T) {
	e := NewEngine()
	run, err := e.Launch(raconSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.VisibleDevices) != 2 || run.VisibleDevices[0] != 0 || run.VisibleDevices[1] != 1 {
		t.Fatalf("VisibleDevices = %v", run.VisibleDevices)
	}

	s := raconSpec()
	delete(s.Env, "CUDA_VISIBLE_DEVICES")
	run, err = e.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	if run.VisibleDevices != nil {
		t.Fatalf("unset CUDA_VISIBLE_DEVICES should expose all devices, got %v", run.VisibleDevices)
	}

	s.Env["CUDA_VISIBLE_DEVICES"] = "zero"
	if _, err := e.Launch(s); err == nil {
		t.Error("garbage CUDA_VISIBLE_DEVICES accepted")
	}
}

func TestEnvOrderingDeterministic(t *testing.T) {
	s := raconSpec()
	a, _ := AssembleCommand(s)
	b, _ := AssembleCommand(s)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatal("command assembly not deterministic")
	}
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}
