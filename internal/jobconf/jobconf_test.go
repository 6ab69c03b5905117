package jobconf

import (
	"strings"
	"testing"
)

func TestDefaultConfigParses(t *testing.T) {
	c := Default()
	if c.Destinations.Default != "dynamic" {
		t.Fatalf("default destination = %q", c.Destinations.Default)
	}
	d, err := c.Destination("dynamic")
	if err != nil {
		t.Fatal(err)
	}
	if d.Runner != "dynamic" {
		t.Fatal("dynamic destination not flagged dynamic")
	}
	if fn, ok := d.Param("function"); !ok || fn != "gpu_dynamic_destination" {
		t.Fatalf("dynamic rule function = %q, %v (paper Code 2)", fn, ok)
	}
	if mod, _ := d.Param("rules_module"); !strings.Contains(mod, "dynamic_destination") {
		t.Fatalf("rules_module = %q", mod)
	}
}

func TestDestinationParams(t *testing.T) {
	c := Default()
	gpu, err := c.Destination("local_gpu")
	if err != nil {
		t.Fatal(err)
	}
	if !gpu.BoolParam("gpu_enabled") {
		t.Error("local_gpu missing gpu_enabled=true")
	}
	cpu, err := c.Destination("local_cpu")
	if err != nil {
		t.Fatal(err)
	}
	if cpu.BoolParam("gpu_enabled") {
		t.Error("local_cpu reports gpu_enabled")
	}
	docker, err := c.Destination("docker")
	if err != nil {
		t.Fatal(err)
	}
	if !docker.BoolParam("docker_enabled") {
		t.Error("docker destination missing docker_enabled (Galaxy's container trigger)")
	}
	if _, ok := cpu.Param("nonexistent"); ok {
		t.Error("absent param reported present")
	}
}

func TestParseValidation(t *testing.T) {
	cases := map[string]string{
		"no destinations": `<job_conf><plugins/></job_conf>`,
		"unknown runner": `<job_conf><destinations>
			<destination id="x" runner="slurm"/></destinations></job_conf>`,
		"duplicate destination": `<job_conf>
			<plugins><plugin id="local" type="runner"/></plugins>
			<destinations>
			<destination id="x" runner="local"/>
			<destination id="x" runner="local"/></destinations></job_conf>`,
		"bad default": `<job_conf>
			<plugins><plugin id="local" type="runner"/></plugins>
			<destinations default="nope">
			<destination id="x" runner="local"/></destinations></job_conf>`,
		"tool to unknown destination": `<job_conf>
			<plugins><plugin id="local" type="runner"/></plugins>
			<destinations><destination id="x" runner="local"/></destinations>
			<tools><tool id="racon" destination="nope"/></tools></job_conf>`,
		"destination without id": `<job_conf>
			<plugins><plugin id="local" type="runner"/></plugins>
			<destinations><destination runner="local"/></destinations></job_conf>`,
		"plugin without id": `<job_conf>
			<plugins><plugin type="runner"/></plugins>
			<destinations><destination id="x" runner="local"/></destinations></job_conf>`,
		"garbage": `not xml`,
	}
	for name, doc := range cases {
		if _, err := Parse(doc); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestDynamicRunnerIsBuiltIn(t *testing.T) {
	// A destination may use runner="dynamic" without a plugin entry.
	doc := `<job_conf>
  <destinations default="d">
    <destination id="d" runner="dynamic"/>
  </destinations>
</job_conf>`
	if _, err := Parse(doc); err != nil {
		t.Fatalf("dynamic-only config rejected: %v", err)
	}
}

func TestMissingDestinationLookup(t *testing.T) {
	c := Default()
	if _, err := c.Destination("nope"); err == nil {
		t.Error("unknown destination lookup succeeded")
	}
}
