// Package jobconf models Galaxy's job_conf.xml — the file cluster
// administrators use to wire job runners to execution destinations (paper,
// Section IV-A, Code 2). GYAN plugs in as a dynamic destination whose rule
// function decides between GPU and CPU destinations at submission time.
package jobconf

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// Plugin is a job runner implementation registration.
type Plugin struct {
	ID      string `xml:"id,attr"`
	Type    string `xml:"type,attr"`
	Load    string `xml:"load,attr"`
	Workers int    `xml:"workers,attr"`
}

// DestParam is one <param id="...">value</param> of a destination.
type DestParam struct {
	ID    string `xml:"id,attr"`
	Value string `xml:",chardata"`
}

// Destination is one execution target.
type Destination struct {
	ID     string      `xml:"id,attr"`
	Runner string      `xml:"runner,attr"`
	Params []DestParam `xml:"param"`
}

// Param returns the named destination parameter value, with a presence flag.
func (d Destination) Param(id string) (string, bool) {
	for _, p := range d.Params {
		if p.ID == id {
			return strings.TrimSpace(p.Value), true
		}
	}
	return "", false
}

// BoolParam returns a boolean destination parameter; absent params are
// false, matching Galaxy's treatment of docker_enabled and friends.
func (d Destination) BoolParam(id string) bool {
	v, ok := d.Param(id)
	return ok && strings.EqualFold(v, "true")
}

// Slots returns the destination's concurrency limit from its "slots" param;
// 0 means unlimited. Malformed values read as 0 (unlimited), matching
// Galaxy's lenient handling of unknown destination params.
func (d Destination) Slots() int {
	v, ok := d.Param("slots")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// ToolMapping pins one tool to a destination.
type ToolMapping struct {
	ID          string `xml:"id,attr"`
	Destination string `xml:"destination,attr"`
}

// Config is a parsed job_conf.xml.
type Config struct {
	XMLName xml.Name `xml:"job_conf"`
	Plugins struct {
		Items []Plugin `xml:"plugin"`
	} `xml:"plugins"`
	Destinations struct {
		Default string        `xml:"default,attr"`
		Items   []Destination `xml:"destination"`
	} `xml:"destinations"`
	Tools struct {
		Items []ToolMapping `xml:"tool"`
	} `xml:"tools"`
}

// Parse decodes and validates a job_conf.xml document.
func Parse(doc string) (*Config, error) {
	var c Config
	if err := xml.Unmarshal([]byte(doc), &c); err != nil {
		return nil, fmt.Errorf("jobconf: parse: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

func (c *Config) validate() error {
	if len(c.Destinations.Items) == 0 {
		return fmt.Errorf("jobconf: no destinations configured")
	}
	plugins := map[string]bool{"dynamic": true} // dynamic is built in
	for _, p := range c.Plugins.Items {
		if p.ID == "" {
			return fmt.Errorf("jobconf: plugin without id")
		}
		plugins[p.ID] = true
	}
	seen := map[string]bool{}
	for _, d := range c.Destinations.Items {
		if d.ID == "" {
			return fmt.Errorf("jobconf: destination without id")
		}
		if seen[d.ID] {
			return fmt.Errorf("jobconf: duplicate destination %q", d.ID)
		}
		seen[d.ID] = true
		if !plugins[d.Runner] {
			return fmt.Errorf("jobconf: destination %q references unknown runner %q", d.ID, d.Runner)
		}
	}
	if c.Destinations.Default != "" && !seen[c.Destinations.Default] {
		return fmt.Errorf("jobconf: default destination %q not defined", c.Destinations.Default)
	}
	for _, t := range c.Tools.Items {
		if !seen[t.Destination] {
			return fmt.Errorf("jobconf: tool %q mapped to unknown destination %q", t.ID, t.Destination)
		}
	}
	return nil
}

// Destination returns the destination with the given id.
func (c *Config) Destination(id string) (Destination, error) {
	for _, d := range c.Destinations.Items {
		if d.ID == id {
			return d, nil
		}
	}
	return Destination{}, fmt.Errorf("jobconf: no destination %q", id)
}

// DefaultJobConfXML is the configuration of the paper's Code 2: a dynamic
// destination backed by the GPU-aware rule, with local GPU/CPU and
// container destinations for it to choose among.
const DefaultJobConfXML = `<job_conf>
  <plugins>
    <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner" workers="4"/>
  </plugins>
  <destinations default="dynamic">
    <destination id="dynamic" runner="dynamic">
      <param id="type">python</param>
      <param id="function">gpu_dynamic_destination</param>
      <param id="rules_module">galaxy.jobs.rules.dynamic_destination</param>
    </destination>
    <destination id="local_gpu" runner="local">
      <param id="gpu_enabled">true</param>
    </destination>
    <destination id="local_cpu" runner="local"/>
    <destination id="docker" runner="local">
      <param id="docker_enabled">true</param>
      <param id="gpu_enabled">true</param>
    </destination>
    <destination id="singularity" runner="local">
      <param id="singularity_enabled">true</param>
      <param id="gpu_enabled">true</param>
    </destination>
  </destinations>
  <tools>
    <tool id="racon" destination="dynamic"/>
    <tool id="bonito" destination="dynamic"/>
  </tools>
</job_conf>
`

// Default returns the parsed DefaultJobConfXML; it panics on error because
// the embedded document is a compile-time constant covered by tests.
func Default() *Config {
	c, err := Parse(DefaultJobConfXML)
	if err != nil {
		panic(fmt.Sprintf("jobconf: embedded default invalid: %v", err))
	}
	return c
}
