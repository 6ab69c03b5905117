package toolxml

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRaconWrapper(t *testing.T) {
	tool, err := Parse(RaconToolXML)
	if err != nil {
		t.Fatal(err)
	}
	if tool.ID != "racon" || tool.Name != "Racon" || tool.Version != "1.4.20" {
		t.Fatalf("tool header = %s/%s/%s", tool.ID, tool.Name, tool.Version)
	}
	if len(tool.Requirements.Expand) != 2 {
		t.Fatalf("expected 2 macro expansions, got %d", len(tool.Requirements.Expand))
	}
	if tool.RequiresGPU() {
		t.Fatal("GPU requirement visible before macro expansion")
	}
	if len(tool.Inputs.Params) != 6 {
		t.Fatalf("param count = %d", len(tool.Inputs.Params))
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	if _, err := Parse("<tool>no id</tool>"); err == nil {
		t.Error("tool without id accepted")
	}
	if _, err := Parse("not xml"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMacroExpansionAddsGPURequirement(t *testing.T) {
	tool, err := RaconGPUTool()
	if err != nil {
		t.Fatal(err)
	}
	req, ok := tool.GPURequirement()
	if !ok {
		t.Fatal("expanded racon wrapper has no GPU requirement (paper Code 1)")
	}
	if !req.IsGPU() {
		t.Fatal("GPU requirement misclassified")
	}
	if c, ok := tool.ContainerFor("docker"); !ok || c.Image != "gulsumgudukbay/racon_dockerfile" {
		t.Fatalf("docker container = %+v, %v", c, ok)
	}
	if _, ok := tool.ContainerFor("singularity"); !ok {
		t.Fatal("singularity container missing after expansion")
	}
}

func TestMacroExpansionIdempotent(t *testing.T) {
	tool, err := RaconGPUTool()
	if err != nil {
		t.Fatal(err)
	}
	before := len(tool.Requirements.Items)
	macros, _ := ParseMacros(RaconMacrosXML)
	if err := tool.ExpandMacros(map[string]*MacroFile{"macros.xml": macros}); err != nil {
		t.Fatal(err)
	}
	if got := len(tool.Requirements.Items); got != before {
		t.Fatalf("second expansion changed requirements: %d -> %d", before, got)
	}
}

func TestMacroExpansionMissingMacro(t *testing.T) {
	tool, err := Parse(RaconToolXML)
	if err != nil {
		t.Fatal(err)
	}
	err = tool.ExpandMacros(map[string]*MacroFile{})
	if err == nil {
		t.Fatal("expansion with no macro files succeeded")
	}
}

func TestGPUIDsFromVersionAttribute(t *testing.T) {
	// Section IV-C: the version tag carries GPU minor IDs.
	r := Requirement{Type: "compute", Name: "gpu", Version: "0,1"}
	ids, err := r.GPUIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("GPUIDs = %v, want [0 1]", ids)
	}

	r.Version = " 1 "
	ids, err = r.GPUIDs()
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("GPUIDs(\" 1 \") = %v, %v", ids, err)
	}

	r.Version = ""
	ids, err = r.GPUIDs()
	if err != nil || ids != nil {
		t.Fatalf("empty version => %v, %v; want nil preference", ids, err)
	}

	r.Version = "zero"
	if _, err := r.GPUIDs(); err == nil {
		t.Error("non-numeric GPU id accepted")
	}
	r.Version = "-1"
	if _, err := r.GPUIDs(); err == nil {
		t.Error("negative GPU id accepted")
	}
}

func TestBonitoWrapper(t *testing.T) {
	tool, err := BonitoTool()
	if err != nil {
		t.Fatal(err)
	}
	if !tool.RequiresGPU() {
		t.Fatal("bonito wrapper lacks GPU requirement")
	}
	if tool.Version != "0.3.2" {
		t.Errorf("bonito version = %s, paper uses pip package 0.3.2", tool.Version)
	}
}

func TestCPUOnlyWrapper(t *testing.T) {
	tool, err := Parse(CPUOnlyToolXML)
	if err != nil {
		t.Fatal(err)
	}
	if tool.RequiresGPU() {
		t.Fatal("CPU-only wrapper reports GPU requirement")
	}
}

func TestRenderCommandGPUBranch(t *testing.T) {
	tool, err := RaconGPUTool()
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]string{
		"__galaxy_gpu_enabled__": "true",
		"threads":                "4",
		"batches":                "1",
		"banding_flag":           "",
		"reads":                  "reads.fa",
		"overlaps":               "ovl.paf",
		"target":                 "draft.fa",
	}
	cmd, err := RenderCommand(tool.Command.Text, params)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cmd, "racon_gpu") {
		t.Fatalf("GPU-enabled render chose wrong executable: %q", cmd)
	}
	if !strings.Contains(cmd, "--cudapoa-batches 1") {
		t.Fatalf("batches not substituted: %q", cmd)
	}

	params["__galaxy_gpu_enabled__"] = "false"
	cmd, err = RenderCommand(tool.Command.Text, params)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cmd, "racon_gpu") || !strings.Contains(cmd, "racon ") {
		t.Fatalf("CPU render chose wrong executable: %q", cmd)
	}
}

func TestRenderCommandUndefinedVariable(t *testing.T) {
	if _, err := RenderCommand("tool $missing", map[string]string{}); err == nil {
		t.Fatal("undefined variable expanded silently")
	}
}

func TestRenderCommandNestedConditionals(t *testing.T) {
	tmpl := `
#if $gpu == "true":
  #if $multi == "true":
multi-gpu
  #else
single-gpu
  #end if
#else
cpu
#end if
`
	cases := []struct {
		gpu, multi, want string
	}{
		{"true", "true", "multi-gpu"},
		{"true", "false", "single-gpu"},
		{"false", "false", "cpu"},
	}
	for _, tc := range cases {
		got, err := RenderCommand(tmpl, map[string]string{"gpu": tc.gpu, "multi": tc.multi})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("gpu=%s multi=%s: got %q, want %q", tc.gpu, tc.multi, got, tc.want)
		}
	}
}

func TestRenderCommandElseIf(t *testing.T) {
	tmpl := `
#if $n == "1":
one
#else if $n == "2":
two
#else
many
#end if
`
	for n, want := range map[string]string{"1": "one", "2": "two", "7": "many"} {
		got, err := RenderCommand(tmpl, map[string]string{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%s: got %q want %q", n, got, want)
		}
	}
}

func TestRenderCommandTruthiness(t *testing.T) {
	tmpl := "#if $flag:\nyes\n#else\nno\n#end if"
	for val, want := range map[string]string{
		"true": "yes", "x": "yes", "1": "yes",
		"": "no", "false": "no", "0": "no", "False": "no",
	} {
		got, err := RenderCommand(tmpl, map[string]string{"flag": val})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("flag=%q: got %q want %q", val, got, want)
		}
	}
}

func TestRenderCommandStructuralErrors(t *testing.T) {
	cases := []string{
		"#if $x == \"1\":\nbody",      // unterminated
		"#else\nbody\n#end if",        // else without if
		"#end if",                     // end without if
		"#else if $x == \"1\":\nbody", // else-if without if
	}
	for _, tmpl := range cases {
		if _, err := RenderCommand(tmpl, map[string]string{"x": "1"}); err == nil {
			t.Errorf("malformed template accepted: %q", tmpl)
		}
	}
}

func TestRenderCommandBracedVariables(t *testing.T) {
	got, err := RenderCommand("run ${a}${b}", map[string]string{"a": "x", "b": "y"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "run xy" {
		t.Fatalf("braced substitution = %q", got)
	}
	if _, err := RenderCommand("run ${a", map[string]string{"a": "x"}); err == nil {
		t.Error("unterminated brace accepted")
	}
	if _, err := RenderCommand("run $ now", map[string]string{}); err == nil {
		t.Error("stray $ accepted")
	}
}

// Property: RenderCommand never panics and is deterministic on arbitrary
// parameter values for the real wrappers.
func TestRenderCommandRobustness(t *testing.T) {
	tool, err := RaconGPUTool()
	if err != nil {
		t.Fatal(err)
	}
	f := func(gpuVal, threads, batches, banding, reads, overlaps, target string) bool {
		params := map[string]string{
			"__galaxy_gpu_enabled__": gpuVal,
			"threads":                threads,
			"batches":                batches,
			"banding_flag":           banding,
			"reads":                  reads,
			"overlaps":               overlaps,
			"target":                 target,
		}
		out1, err1 := RenderCommand(tool.Command.Text, params)
		out2, err2 := RenderCommand(tool.Command.Text, params)
		// Errors are acceptable (weird values); panics and
		// nondeterminism are not.
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return out1 == out2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
