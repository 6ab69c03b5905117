package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// repoRoot is where the benchmark must run: it compiles ./cmd/gyan-server
// and reads BENCHMARK.json there.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Fatalf("no BENCHMARK.json above the bench package: %v", err)
	}
	return root
}

func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// leftovers lists what a finished benchmark may not leave behind: scratch
// directories it created, and processes whose command line names one.
func leftovers(t *testing.T, root string, before map[string]bool) []string {
	t.Helper()
	var left []string
	runs, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	for _, dir := range runs {
		if before[dir] {
			continue
		}
		left = append(left, "scratch directory "+dir)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		cmdline, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		args := strings.ReplaceAll(string(cmdline), "\x00", " ")
		if !strings.Contains(args, filepath.Join(root, ".bench_build", "run-")) {
			continue
		}
		named := false
		for dir := range before {
			named = named || strings.Contains(args, dir)
		}
		if !named {
			left = append(left, "process "+args)
		}
	}
	return left
}

func scratchDirs(root string) map[string]bool {
	out := map[string]bool{}
	runs, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	for _, dir := range runs {
		out[dir] = true
	}
	return out
}

func checkMetrics(t *testing.T, what string, declared []metricSpec, got map[string]metric, nonZero bool) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(declared))
	}
	for _, d := range declared {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is not finite: %v", what, d.Name, m.Value)
		case nonZero && !(m.Value > 0):
			t.Errorf("%s: end-to-end metric %s reads %v", what, d.Name, m.Value)
		}
	}
}

// lastLine parses the driver's result object off the end of standard output.
func lastLine(t *testing.T, out []byte) (res struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}) {
	t.Helper()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	return res
}

// TestSmoke runs the real benchmark binary at toy size: all five workloads
// untraced, a traced pass, a failing run and an interrupted one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots gyan-server processes")
	}
	root := repoRoot(t)
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildBench(t)
	before := scratchDirs(root)
	run := func(args ...string) ([]byte, []byte, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.Bytes(), stderr.Bytes(), err
	}

	t.Run("all five workloads emit every end-to-end metric", func(t *testing.T) {
		outPath := filepath.Join(t.TempDir(), "smoke.json")
		stdout, stderr, err := run("-scale", "smoke", "-out", outPath)
		if err != nil {
			t.Fatalf("bench -scale smoke: %v\n%s\n%s", err, stdout, stderr)
		}
		file, err := readOut(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(file.Runs) != len(workloads) {
			t.Fatalf("%d runs for %d workloads", len(file.Runs), len(workloads))
		}
		ran := map[string]bool{}
		for i, r := range file.Runs {
			if r.Workload != workloads[i].name {
				t.Errorf("run %d is %s, want %s", i, r.Workload, workloads[i].name)
			}
			ran[r.Workload] = true
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
			}
			checkMetrics(t, r.Workload, spec.EndToEnd, r.Metrics, true)
		}
		for _, w := range spec.Workloads {
			if !ran[w.Name] {
				t.Errorf("BENCHMARK.json declares workload %s, which did not run", w.Name)
			}
		}
		if file.Provenance.NProc < 1 || file.Provenance.GoVersion == "" || file.Provenance.JournalFS == "" || !(file.Provenance.FsyncUS > 0) {
			t.Errorf("provenance stamp incomplete: %+v", file.Provenance)
		}
		if left := leftovers(t, root, before); len(left) > 0 {
			t.Errorf("left behind after success: %v", left)
		}
	})

	t.Run("the traced pass emits every per-layer metric", func(t *testing.T) {
		stdout, stderr, err := run("-scale", "smoke", "-workload", "dispatch_burst", "-seed", "3", "-trace", "1")
		if err != nil {
			t.Fatalf("bench -trace 1: %v\n%s\n%s", err, stdout, stderr)
		}
		res := lastLine(t, stdout)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, "dispatch_burst traced", spec.PerLayer, res.Metrics, false)
		for _, name := range []string{"galaxy.submit_us", "journal.fsync_us", "sched.cycles_per_job", "smi.survey_us", "tcpbus.rtt_us"} {
			if !(res.Metrics[name].Value > 0) {
				t.Errorf("%s reads %v on a workload that exercises it", name, res.Metrics[name].Value)
			}
		}
		if !bytes.Contains(stdout, []byte("layer table: dispatch_burst")) || !bytes.Contains(stdout, []byte("unattributed")) {
			t.Errorf("no layer table printed:\n%s", stdout)
		}
		if left := leftovers(t, root, before); len(left) > 0 {
			t.Errorf("left behind after the traced pass: %v", left)
		}
	})

	t.Run("a failed gate exits non-zero without a result and cleans up", func(t *testing.T) {
		// A contract that declares a metric the benchmark cannot measure
		// fails the run after the server has been booted and driven.
		bad := *spec
		bad.EndToEnd = append(append([]metricSpec(nil), spec.EndToEnd...), metricSpec{Name: "no_such_metric", Unit: "s", Better: "lower", Bound: 0.1})
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		badPath := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(badPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, err := run("-scale", "smoke", "-workload", "http_jobs", "-spec", badPath)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("exit %v, want non-zero\n%s", err, stdout)
		}
		if !bytes.Contains(stderr, []byte("no_such_metric")) {
			t.Errorf("the failure does not name its cause:\n%s", stderr)
		}
		if bytes.Contains(stdout, []byte(`"correct"`)) {
			t.Errorf("a failed run printed a result:\n%s", stdout)
		}
		if left := leftovers(t, root, before); len(left) > 0 {
			t.Errorf("left behind after a failure: %v", left)
		}
	})

	t.Run("SIGINT reaps the servers and removes the scratch directory", func(t *testing.T) {
		cmd := exec.Command(bin, "-workload", "tcp_cluster", "-seconds", "60")
		cmd.Dir = root
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waited := make(chan error, 1)
		go func() { waited <- cmd.Wait() }()
		// Interrupt once both members are up: two processes whose command
		// lines name this run's journal root.
		deadline := time.Now().Add(30 * time.Second)
		for len(leftovers(t, root, before)) < 3 { // the scratch directory and two servers
			select {
			case err := <-waited:
				t.Fatalf("benchmark ended before it could be interrupted: %v\n%s", err, stdout.String())
			default:
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				t.Fatalf("servers did not come up:\n%s", stdout.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-waited:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 130 {
				t.Errorf("exit %v after SIGINT, want 130", err)
			}
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("benchmark did not exit on SIGINT")
		}
		if left := leftovers(t, root, before); len(left) > 0 {
			t.Errorf("left behind after SIGINT: %v", left)
		}
	})
}
